package wire

import (
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a document that opens more
// objects and arrays than this at once is rejected.
const maxDepth = 10000

// Error is a malformed document, or a value of the wrong kind for what
// it decodes into.
type Error struct {
	Offset int // byte offset in the input where it was detected
	Msg    string
}

func (e *Error) Error() string {
	return "wire: " + e.Msg + " at offset " + strconv.Itoa(e.Offset)
}

// Reader decodes one JSON document in a single pass. Its methods read
// the next value and check its syntax as they go; the first error, of
// syntax, kind or one recorded with Fail, is kept and every later call
// reads nothing, so a decoder can run straight through and check Err
// (or Finish) once at the end.
//
// Objects and arrays are read as
//
//	if r.Object() {
//		for r.More() {
//			switch r.Key(names) {
//			case "a": ...
//			default: r.Skip()
//			}
//		}
//	}
//
// and the same with Array and no Key.
type Reader struct {
	data  []byte
	off   int
	err   error
	first bool   // the innermost container was just opened
	open  []byte // closing byte of every open container, innermost last
	buf   []byte // unescaped key or string
	arr   [16]byte
}

// NewReader returns a reader positioned at the start of data.
func NewReader(data []byte) *Reader {
	r := &Reader{data: data}
	r.open = r.arr[:0]
	return r
}

// Err returns the first error the reader met or was given.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's error unless it already has one.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Finish checks that only whitespace follows the value read and returns
// the reader's error.
func (r *Reader) Finish() error {
	if r.err == nil && r.ws() < len(r.data) {
		r.fail("invalid character " + quoteByte(r.data[r.off]) + " after top-level value")
	}
	return r.err
}

func (r *Reader) fail(msg string) {
	r.Fail(&Error{Offset: r.off, Msg: msg})
}

// mismatch records that the next value is not of the kind wanted. The
// value's own syntax is checked first, so a malformed document is still
// reported as such.
func (r *Reader) mismatch(want string) {
	off := r.off
	kind := r.kind()
	r.Skip()
	if r.err == nil {
		r.Fail(&Error{Offset: off, Msg: "cannot decode " + kind + " into " + want})
	}
}

func (r *Reader) kind() string {
	switch r.data[r.off] {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}

func quoteByte(c byte) string { return strconv.QuoteRune(rune(c)) }

// ws skips whitespace and returns the offset of the next byte.
func (r *Reader) ws() int {
	for r.off < len(r.data) {
		if c := r.data[r.off]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			break
		}
		r.off++
	}
	return r.off
}

// peek skips whitespace and returns the next byte, or 0 at the end of
// the input (recording an error: a value was expected there).
func (r *Reader) peek() byte {
	if r.err != nil {
		return 0
	}
	if r.ws() == len(r.data) {
		r.fail("unexpected end of JSON input")
		return 0
	}
	return r.data[r.off]
}

// Null reads a null if one comes next and reports whether it did.
func (r *Reader) Null() bool {
	if r.peek() != 'n' {
		return false
	}
	r.literal("null")
	return r.err == nil
}

func (r *Reader) literal(lit string) {
	if len(r.data)-r.off >= len(lit) && string(r.data[r.off:r.off+len(lit)]) == lit {
		r.off += len(lit)
		return
	}
	for i := 0; i < len(lit); i++ {
		if r.off+i == len(r.data) {
			r.off += i
			r.fail("unexpected end of JSON input")
			return
		}
		if r.data[r.off+i] != lit[i] {
			r.off += i
			r.fail("invalid character " + quoteByte(r.data[r.off]) + " in literal " + lit)
			return
		}
	}
}

func (r *Reader) push(close byte) bool {
	if len(r.open) == maxDepth {
		r.fail("exceeded max depth")
		return false
	}
	r.off++
	r.open = append(r.open, close)
	r.first = true
	return true
}

// Object opens an object and reports whether it did; any other value is
// an error.
func (r *Reader) Object() bool {
	switch r.peek() {
	case 0:
		return false
	case '{':
		return r.push('}')
	}
	r.mismatch("object")
	return false
}

// Array opens an array and reports whether it did; any other value is an
// error.
func (r *Reader) Array() bool {
	switch r.peek() {
	case 0:
		return false
	case '[':
		return r.push(']')
	}
	r.mismatch("array")
	return false
}

// More reports whether the innermost open object or array has another
// member or element, and closes it when it has not.
func (r *Reader) More() bool {
	if r.err != nil {
		return false
	}
	if r.ws() == len(r.data) {
		r.fail("unexpected end of JSON input")
		return false
	}
	c, close := r.data[r.off], r.open[len(r.open)-1]
	first := r.first
	r.first = false
	if c == close {
		r.off++
		r.open = r.open[:len(r.open)-1]
		return false
	}
	if first {
		return true
	}
	if c == ',' {
		r.off++
		return true
	}
	if close == '}' {
		r.fail("invalid character " + quoteByte(c) + " after object key:value pair")
	} else {
		r.fail("invalid character " + quoteByte(c) + " after array element")
	}
	return false
}

// Key reads a member name and its colon and returns the entry of names
// it selects: the one equal to it, else the one it equals under
// encoding/json's case folding, else "". names must be ASCII and
// distinct under folding.
func (r *Reader) Key(names []string) string {
	if r.peek() != '"' {
		if r.err == nil {
			r.fail("invalid character " + quoteByte(r.data[r.off]) + " looking for beginning of object key string")
		}
		return ""
	}
	if n, ok := r.plainKey(names); ok {
		return n
	}
	key := r.str()
	if r.err != nil {
		return ""
	}
	if r.ws() == len(r.data) {
		r.fail("unexpected end of JSON input")
		return ""
	}
	if r.data[r.off] != ':' {
		r.fail("invalid character " + quoteByte(r.data[r.off]) + " after object key")
		return ""
	}
	r.off++
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if foldEqual(key, n) {
			return n
		}
	}
	return ""
}

// plainKey reads the member name at r.off and its colon when they are
// spelled exactly as one of names and directly followed by the colon,
// the form every encoder writes, and returns that name.
func (r *Reader) plainKey(names []string) (string, bool) {
	rest := r.data[r.off+1:]
	for _, n := range names {
		if len(rest) > len(n)+1 && rest[len(n)] == '"' && rest[len(n)+1] == ':' && string(rest[:len(n)]) == n {
			r.off += len(n) + 3
			return n, true
		}
	}
	return "", false
}

// foldEqual reports whether key folds to the ASCII name as encoding/json
// folds member names: ASCII letters to upper case, any other rune to the
// least rune of its simple case-folding orbit (so U+212A KELVIN SIGN
// matches 'k' and U+017F LONG S matches 's').
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		var f rune
		if c := key[i]; c < utf8.RuneSelf {
			f = rune(upper(c))
			i++
		} else {
			r, n := utf8.DecodeRune(key[i:])
			f = foldRune(r)
			i += n
		}
		if j == len(name) || f != rune(upper(name[j])) {
			return false
		}
	}
	return j == len(name)
}

func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// str reads a string at r.off and returns its unescaped bytes: a slice
// of the input when it is plain ASCII without escapes, else r.buf.
func (r *Reader) str() []byte {
	start := r.off + 1
	i := start
	for i < len(r.data) {
		c := r.data[i]
		if c == '"' {
			r.off = i + 1
			return r.data[start:i]
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	return r.unquote(start, i)
}

// unquote reads the rest of a string whose bytes from start to i are
// plain ASCII, decoding escapes and replacing invalid UTF-8 with U+FFFD
// as encoding/json does.
func (r *Reader) unquote(start, i int) []byte {
	b := append(r.buf[:0], r.data[start:i]...)
	for {
		if i == len(r.data) {
			r.off = i
			r.fail("unexpected end of JSON input")
			return nil
		}
		switch c := r.data[i]; {
		case c == '"':
			r.off = i + 1
			r.buf = b
			return b
		case c == '\\':
			if i+1 == len(r.data) {
				r.off = i + 1
				r.fail("unexpected end of JSON input")
				return nil
			}
			switch e := r.data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr, ok := r.hex4(i + 2)
				if !ok {
					return nil
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					if rr2, ok := r.peekHex4(i); ok {
						if dec := utf16.DecodeRune(rr, rr2); dec != unicode.ReplacementChar {
							b = utf8.AppendRune(b, dec)
							i += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default:
				r.off = i + 1
				r.fail("invalid character " + quoteByte(e) + " in string escape code")
				return nil
			}
			i += 2
		case c < ' ':
			r.off = i
			r.fail("invalid character " + quoteByte(c) + " in string literal")
			return nil
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRune(r.data[i:])
			b = utf8.AppendRune(b, rr)
			i += size
		}
	}
}

// hex4 reads the four hex digits of a \u escape starting at i.
func (r *Reader) hex4(i int) (rune, bool) {
	var v rune
	for k := i; k < i+4; k++ {
		if k == len(r.data) {
			r.off = k
			r.fail("unexpected end of JSON input")
			return 0, false
		}
		d, ok := hexDigit(r.data[k])
		if !ok {
			r.off = k
			r.fail("invalid character " + quoteByte(r.data[k]) + " in \\u hexadecimal character escape")
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// peekHex4 decodes a \u escape at i without consuming it or failing.
func (r *Reader) peekHex4(i int) (rune, bool) {
	if len(r.data)-i < 6 || r.data[i] != '\\' || r.data[i+1] != 'u' {
		return 0, false
	}
	var v rune
	for _, c := range r.data[i+2 : i+6] {
		d, ok := hexDigit(c)
		if !ok {
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

func hexDigit(c byte) (rune, bool) {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0'), true
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10), true
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10), true
	}
	return 0, false
}

// number reads a number literal and returns its bytes, or nil (with the
// error recorded) when the next value is no number.
func (r *Reader) number(want string) []byte {
	start := r.off
	i := start
	if i < len(r.data) && r.data[i] == '-' {
		i++
	}
	switch {
	case i == len(r.data):
		r.off = i
		r.fail("unexpected end of JSON input")
		return nil
	case r.data[i] == '0':
		i++
	case '1' <= r.data[i] && r.data[i] <= '9':
		i++
		for i < len(r.data) && isDigit(r.data[i]) {
			i++
		}
	case i == start && want != "":
		r.mismatch(want)
		return nil
	case i == start:
		r.fail("invalid character " + quoteByte(r.data[i]) + " looking for beginning of value")
		return nil
	default:
		r.off = i
		r.fail("invalid character " + quoteByte(r.data[i]) + " in numeric literal")
		return nil
	}
	if i < len(r.data) && r.data[i] == '.' {
		i++
		if i == len(r.data) || !isDigit(r.data[i]) {
			return r.badNumber(i, "after decimal point in numeric literal")
		}
		for i < len(r.data) && isDigit(r.data[i]) {
			i++
		}
	}
	if i < len(r.data) && (r.data[i] == 'e' || r.data[i] == 'E') {
		i++
		if i < len(r.data) && (r.data[i] == '+' || r.data[i] == '-') {
			i++
		}
		if i == len(r.data) || !isDigit(r.data[i]) {
			return r.badNumber(i, "in exponent of numeric literal")
		}
		for i < len(r.data) && isDigit(r.data[i]) {
			i++
		}
	}
	r.off = i
	return r.data[start:i]
}

func (r *Reader) badNumber(i int, where string) []byte {
	r.off = i
	if i == len(r.data) {
		r.fail("unexpected end of JSON input")
	} else {
		r.fail("invalid character " + quoteByte(r.data[i]) + " " + where)
	}
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Int reads an integer into *p; null leaves *p as it is. A number with a
// fraction or exponent, or out of int64 range, is an error, as in
// encoding/json.
func Int[T ~int | ~int64](r *Reader, p *T) {
	if r.Null() || r.err != nil {
		return
	}
	if n, ok := r.smallInt(); ok {
		*p = T(n)
		return
	}
	at := r.off
	lit := r.number("integer")
	if lit == nil {
		return
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		r.Fail(&Error{Offset: at, Msg: "cannot decode number " + string(lit) + " into integer"})
		return
	}
	*p = T(n)
}

// smallInt reads the common integer, at most 18 digits with no fraction
// or exponent, which needs no strconv call; it reads nothing and reports
// false for anything else.
func (r *Reader) smallInt() (int64, bool) {
	i := r.off
	neg := i < len(r.data) && r.data[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for i < len(r.data) && i-start < 18 && isDigit(r.data[i]) {
		n = n*10 + int64(r.data[i]-'0')
		i++
	}
	if digits := i - start; digits == 0 || digits > 1 && r.data[start] == '0' {
		return 0, false
	}
	if i < len(r.data) {
		if c := r.data[i]; isDigit(c) || c == '.' || c == 'e' || c == 'E' {
			return 0, false
		}
	}
	r.off = i
	if neg {
		n = -n
	}
	return n, true
}

// Float reads a number into *p; null leaves *p as it is. A number out of
// float64 range is an error, as in encoding/json.
func (r *Reader) Float(p *float64) {
	if r.Null() || r.err != nil {
		return
	}
	at := r.off
	lit := r.number("float")
	if lit == nil {
		return
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.Fail(&Error{Offset: at, Msg: "cannot decode number " + string(lit) + " into float"})
		return
	}
	*p = f
}

// Bool reads true or false into *p; null leaves *p as it is.
func (r *Reader) Bool(p *bool) {
	switch r.peek() {
	case 0:
	case 't':
		r.literal("true")
		if r.err == nil {
			*p = true
		}
	case 'f':
		r.literal("false")
		if r.err == nil {
			*p = false
		}
	case 'n':
		r.literal("null")
	default:
		r.mismatch("bool")
	}
}

// String reads a string into *p; null leaves *p as it is.
func (r *Reader) String(p *string) {
	switch r.peek() {
	case 0:
	case '"':
		if s := r.str(); r.err == nil {
			*p = string(s)
		}
	case 'n':
		r.literal("null")
	default:
		r.mismatch("string")
	}
}

// Skip reads and discards one value of any kind, checking its syntax.
func (r *Reader) Skip() {
	switch r.peek() {
	case 0:
	case '{':
		if r.push('}') {
			for r.More() {
				r.Key(nil)
				r.Skip()
			}
		}
	case '[':
		if r.push(']') {
			for r.More() {
				r.Skip()
			}
		}
	case '"':
		r.str()
	case 't':
		r.literal("true")
	case 'f':
		r.literal("false")
	case 'n':
		r.literal("null")
	default:
		r.number("")
	}
}

// Slice reads an array into s with encoding/json's slice rules, reading
// each element with elem: element i decodes into s[i] as it stands when
// s already has it (a member listed twice decodes over what the first
// left), the slice grows like append, and it ends with exactly the
// elements read, empty but not nil when there were none. null makes it
// nil.
func Slice[T any](r *Reader, s []T, elem func(*Reader, *T)) []T {
	if r.Null() {
		return nil
	}
	if !r.Array() {
		return s
	}
	n := 0
	for r.More() {
		if n == len(s) {
			if n < cap(s) {
				s = s[:n+1]
			} else {
				var zero T
				s = append(s, zero)
			}
		}
		elem(r, &s[n])
		n++
	}
	if n == 0 {
		return []T{}
	}
	return s[:n]
}
