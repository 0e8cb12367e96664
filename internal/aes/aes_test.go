package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFIPS197VectorAppendixB(t *testing.T) {
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	pt := mustHex(t, "3243f6a8885a308d313198a2e0370734")
	want := mustHex(t, "3925841d02dc09fbdc118597196a0b32")
	ks, err := ExpandKey(key)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Encrypt(ks, pt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct, want) {
		t.Fatalf("ciphertext = %x, want %x", ct, want)
	}
}

func TestFIPS197KeyExpansionFirstAndLastWords(t *testing.T) {
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	ks, err := ExpandKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ks[0][:], key) {
		t.Fatalf("round key 0 = %x", ks[0])
	}
	// FIPS-197 A.1: w[43] = b6630ca6; round key 10 ends with it.
	want := mustHex(t, "d014f9a8c9ee2589e13f0cc8b6630ca6")
	if !bytes.Equal(ks[10][:], want) {
		t.Fatalf("round key 10 = %x, want %x", ks[10], want)
	}
}

func TestExpandKeyRejectsBadLength(t *testing.T) {
	if _, err := ExpandKey(make([]byte, 15)); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestEncryptRejectsBadBlock(t *testing.T) {
	ks, _ := ExpandKey(make([]byte, 16))
	if _, err := Encrypt(ks, make([]byte, 8)); err == nil {
		t.Fatal("short block accepted")
	}
}

func TestSBoxKnownValues(t *testing.T) {
	// FIPS-197 Figure 7 spot checks.
	cases := map[byte]byte{0x00: 0x63, 0x01: 0x7c, 0x53: 0xed, 0xff: 0x16}
	for in, want := range cases {
		if got := SBox(in); got != want {
			t.Fatalf("SBox(%#x) = %#x, want %#x", in, got, want)
		}
	}
	// S-box is a bijection.
	seen := map[byte]bool{}
	for i := 0; i < 256; i++ {
		v := SBox(byte(i))
		if seen[v] {
			t.Fatal("S-box not injective")
		}
		seen[v] = true
	}
}

func TestGMulKnownValues(t *testing.T) {
	// FIPS-197 Section 4.2 example: {57} x {13} = {fe}.
	if got := gmul(0x57, 0x13); got != 0xfe {
		t.Fatalf("gmul(0x57,0x13) = %#x, want 0xfe", got)
	}
	if gmul(0x57, 0x01) != 0x57 || gmul(0, 0xab) != 0 {
		t.Fatal("identity/zero laws broken")
	}
}

// Property: our cipher agrees with crypto/aes on random keys and blocks.
func TestPropertyMatchesCryptoAES(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		key := make([]byte, 16)
		pt := make([]byte, 16)
		rng.Read(key)
		rng.Read(pt)
		ks, err := ExpandKey(key)
		if err != nil {
			return false
		}
		got, err := Encrypt(ks, pt)
		if err != nil {
			return false
		}
		ref, err := stdaes.NewCipher(key)
		if err != nil {
			return false
		}
		want := make([]byte, 16)
		ref.Encrypt(want, pt)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeIDLayoutMatchesPaper(t *testing.T) {
	// Grid column 0 holds AES state column 0 and is {1,5,9,13} — the
	// vertex set the paper's first MGG4 maps to.
	var ids []int
	for r := 0; r < 4; r++ {
		ids = append(ids, int(NodeID(r, 0)))
	}
	want := []int{1, 5, 9, 13}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("column 0 ids = %v, want %v", ids, want)
		}
	}
}

func TestACGStructureMatchesFigure6a(t *testing.T) {
	g := ACG(0.1)
	if g.NodeCount() != 16 {
		t.Fatalf("nodes = %d", g.NodeCount())
	}
	// 4 columns x 12 all-to-all edges + rows 1..3 x 4 shift edges = 60.
	if g.EdgeCount() != 60 {
		t.Fatalf("edges = %d, want 60", g.EdgeCount())
	}
	// Row 1 (ids 1..4) must have no intra-row edges.
	for a := 1; a <= 4; a++ {
		for b := 1; b <= 4; b++ {
			if a != b && g.HasEdge(graph.NodeID(a), graph.NodeID(b)) {
				t.Fatalf("row 0 has edge %d->%d", a, b)
			}
		}
	}
	// Row 3 (ids 9..12) edges must be the two swap pairs.
	for _, pr := range [][2]int{{9, 11}, {11, 9}, {10, 12}, {12, 10}} {
		if !g.HasEdge(graph.NodeID(pr[0]), graph.NodeID(pr[1])) {
			t.Fatalf("missing row-3 swap edge %v", pr)
		}
	}
	if g.HasEdge(9, 10) || g.HasEdge(9, 12) {
		t.Fatal("row 3 has non-swap edges")
	}
	// Column edges carry 72 bits/block; row edges 80.
	e, _ := g.EdgeBetween(1, 5) // same column
	if e.Volume != 72 {
		t.Fatalf("column volume = %g, want 72", e.Volume)
	}
	e, _ = g.EdgeBetween(9, 11) // row 3 swap
	if e.Volume != 80 {
		t.Fatalf("row volume = %g, want 80", e.Volume)
	}
	// Bandwidth proportionality.
	if e.Bandwidth != 80*0.1 {
		t.Fatalf("bandwidth = %g", e.Bandwidth)
	}
}
