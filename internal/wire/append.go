// Package wire is the JSON layer under the repository's canonical wire
// forms (graphs, placements, architectures, routing tables, VC
// assignments, solver stats and synthesis results). Each of those types
// writes itself with the append helpers here and reads itself through a
// Reader, in one pass and without reflection.
//
// The bytes are exactly those encoding/json's reflection writes for the
// same values: numbers in its shortest round-trip form, strings with
// json.Marshal's escaping, HTML escapes included. The Reader accepts
// exactly what json.Unmarshal accepts and applies the same rules: null
// leaves scalars and structs as they are, duplicate members decode into
// the value the earlier one left, and member names match
// case-insensitively by the same folding.
package wire

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21
// up, with the exponent unpadded. NaN and ±Inf have no JSON form: they
// append nothing and set *err unless it already holds an error.
func AppendFloat(b []byte, f float64, err *error) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if *err == nil {
			*err = fmt.Errorf("wire: unsupported value: %v", f)
		}
		return b
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendInt appends v in decimal.
func AppendInt[T ~int | ~int64](b []byte, v T) []byte {
	return strconv.AppendInt(b, int64(v), 10)
}

const hex = "0123456789abcdef"

// AppendString appends s quoted as json.Marshal quotes it: '"', '\\'
// and control bytes escaped (\b \f \n \r \t by name), '<', '>' and '&'
// as \u003c \u003e \u0026, U+2028 and U+2029 as \u2028 \u2029, and
// every byte of invalid UTF-8 as \ufffd.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
