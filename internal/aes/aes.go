// Package aes implements AES-128 (FIPS-197) from scratch, together with
// the paper's distributed 16-node mapping (Section 5.2): the cipher state
// is spread over a 4x4 grid of identical nodes, one state byte each, and
// the round structure (ShiftRows, MixColumns) induces the communication
// pattern of the paper's Figure 6a — all-to-all inside each state column
// and cyclic shifts along rows 2 and 4, with row 3 degenerating to swap
// pairs.
//
// The block cipher itself is validated against the standard library's
// crypto/aes in the tests; the distributed execution on the NoC simulator
// must produce bit-identical ciphertexts.
package aes

import (
	"fmt"
)

// BlockBytes is the AES block size.
const BlockBytes = 16

// KeyBytes is the AES-128 key size.
const KeyBytes = 16

// Rounds is the number of AES-128 rounds.
const Rounds = 10

// sbox is generated at init from the GF(2^8) inverse plus the affine
// transform, avoiding 256 hand-typed constants.
var sbox [256]byte

func init() {
	// Multiplicative inverses via brute force (fine at init time).
	inv := func(x byte) byte {
		if x == 0 {
			return 0
		}
		for y := 1; y < 256; y++ {
			if gmul(x, byte(y)) == 1 {
				return byte(y)
			}
		}
		panic("aes: no inverse")
	}
	for i := 0; i < 256; i++ {
		b := inv(byte(i))
		// Affine transform: b ^ rot(b,1) ^ rot(b,2) ^ rot(b,3) ^ rot(b,4) ^ 0x63.
		r := b ^ rotl8(b, 1) ^ rotl8(b, 2) ^ rotl8(b, 3) ^ rotl8(b, 4) ^ 0x63
		sbox[i] = r
	}
}

func rotl8(x byte, n uint) byte { return x<<n | x>>(8-n) }

// gmul multiplies in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1.
func gmul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

// SBox returns the S-box substitution of x (exported for the distributed
// node logic).
func SBox(x byte) byte { return sbox[x] }

// KeySchedule holds the 11 round keys as raw 16-byte blocks in FIPS order
// (round key r, byte i applies to state byte s[i%4][i/4]).
type KeySchedule [Rounds + 1][BlockBytes]byte

// ExpandKey computes the AES-128 key schedule.
func ExpandKey(key []byte) (KeySchedule, error) {
	var ks KeySchedule
	if len(key) != KeyBytes {
		return ks, fmt.Errorf("aes: key length %d, want %d", len(key), KeyBytes)
	}
	// Words w[0..43].
	var w [44][4]byte
	for i := 0; i < 4; i++ {
		copy(w[i][:], key[4*i:4*i+4])
	}
	rcon := byte(1)
	for i := 4; i < 44; i++ {
		t := w[i-1]
		if i%4 == 0 {
			// RotWord + SubWord + Rcon.
			t = [4]byte{sbox[t[1]], sbox[t[2]], sbox[t[3]], sbox[t[0]]}
			t[0] ^= rcon
			rcon = gmul(rcon, 2)
		}
		for j := 0; j < 4; j++ {
			w[i][j] = w[i-4][j] ^ t[j]
		}
	}
	for r := 0; r <= Rounds; r++ {
		for c := 0; c < 4; c++ {
			copy(ks[r][4*c:4*c+4], w[4*r+c][:])
		}
	}
	return ks, nil
}

// RoundKeyByte returns round key byte for state position (row, col): FIPS
// stores round keys column-major.
func (ks *KeySchedule) RoundKeyByte(round, row, col int) byte {
	return ks[round][4*col+row]
}

// state is the AES state, s[r][c] stored at index 4*c + r (FIPS
// column-major).
type state [BlockBytes]byte

func (s *state) at(r, c int) byte     { return s[4*c+r] }
func (s *state) set(r, c int, v byte) { s[4*c+r] = v }

// Encrypt encrypts one 16-byte block with the expanded key, implementing
// the reference (non-distributed) cipher.
func Encrypt(ks KeySchedule, block []byte) ([]byte, error) {
	if len(block) != BlockBytes {
		return nil, fmt.Errorf("aes: block length %d, want %d", len(block), BlockBytes)
	}
	var s state
	copy(s[:], block)
	addRoundKey(&s, ks, 0)
	for r := 1; r < Rounds; r++ {
		subBytes(&s)
		shiftRows(&s)
		mixColumns(&s)
		addRoundKey(&s, ks, r)
	}
	subBytes(&s)
	shiftRows(&s)
	addRoundKey(&s, ks, Rounds)
	out := make([]byte, BlockBytes)
	copy(out, s[:])
	return out, nil
}

func subBytes(s *state) {
	for i := range s {
		s[i] = sbox[s[i]]
	}
}

func shiftRows(s *state) {
	var t state
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			t.set(r, c, s.at(r, (c+r)%4))
		}
	}
	*s = t
}

// MixColumnCoeff returns the MixColumns matrix coefficient applied to
// input row j when producing output row i.
func MixColumnCoeff(i, j int) byte {
	m := [4][4]byte{
		{2, 3, 1, 1},
		{1, 2, 3, 1},
		{1, 1, 2, 3},
		{3, 1, 1, 2},
	}
	return m[i][j]
}

func mixColumns(s *state) {
	var t state
	for c := 0; c < 4; c++ {
		for i := 0; i < 4; i++ {
			var v byte
			for j := 0; j < 4; j++ {
				v ^= gmul(MixColumnCoeff(i, j), s.at(j, c))
			}
			t.set(i, c, v)
		}
	}
	*s = t
}

func addRoundKey(s *state, ks KeySchedule, round int) {
	for i := range s {
		s[i] ^= ks[round][i]
	}
}
