package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// TestAppendStringMatchesMarshal: AppendString quotes strings exactly as
// json.Marshal does, HTML escapes, line and paragraph separators and
// invalid UTF-8 included.
func TestAppendStringMatchesMarshal(t *testing.T) {
	strs := []string{"", "plain", `q"b\s/`, "<a href=x>&amp;</a>", "\x00\x01\x1f\x7f\b\f\n\r\t",
		"\xe2\x80\xa8\xe2\x80\xa9", "\xff\xfe", "\xed\xa0\x80", "caf\xc3\xa9 \xf0\x9f\x98\x80", "\xe2\x80", "a\xc3"}
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte("ab<>&\"\\\x00\x1f\x7f\x80\xbf\xc3\xa9\xe2\x80\xa8\xf0\x9f\xff")
	for range 20000 {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		strs = append(strs, string(b))
	}
	for _, s := range strs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal %s", s, got, want)
		}
	}
}

// skipValid reports whether the reader accepts data as one JSON value.
func skipValid(data []byte) bool {
	r := NewReader(data)
	r.Skip()
	return r.Finish() == nil
}

// TestSkipMatchesValid: a reader skipping one value accepts exactly the
// documents json.Valid accepts, up to encoding/json's nesting limit.
func TestSkipMatchesValid(t *testing.T) {
	for _, in := range skipInputs() {
		if got, want := skipValid([]byte(in)), json.Valid([]byte(in)); got != want {
			t.Fatalf("input %.80q: reader accepts %v, json.Valid %v", in, got, want)
		}
	}
}

func skipInputs() []string {
	return []string{
		`{"a":[1,-0,0.5,1e9,-2E-3,true,false,null,"sé\n"],"b":{}}`, ` [ ] `, `""`, `-`, `01`, `1.`, `.5`, `1e`, `1e+`,
		`[1,]`, `{"a"}`, `{"a":1,}`, `{,}`, `[,1]`, `{"a" 1}`, `{1:2}`, `tru`, `nulll`, `"\x"`, `"\u12"`, `"\u12G4"`,
		"\"\x01\"", "\"\xff\"", `"\ud800\udc00 \ud800 \udc00x"`, `[1}`, `{"a":1]`, `[1 2]`, `1 2`, ``, ` `, `}`,
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		strings.Repeat(`{"a":`, 10000) + "1" + strings.Repeat("}", 10000),
	}
}

// FuzzSkipMatchesValid is TestSkipMatchesValid on generated inputs.
func FuzzSkipMatchesValid(f *testing.F) {
	for _, in := range skipInputs() {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := skipValid(data), json.Valid(data); got != want {
			t.Fatalf("input %q: reader accepts %v, json.Valid %v", data, got, want)
		}
	})
}

// TestKeyFoldsLikeEncodingJSON: Key selects the member a name would
// bind to in encoding/json, exactly or by its case folding (KELVIN SIGN
// folds to 'k', LONG S to 's'), and nothing else.
func TestKeyFoldsLikeEncodingJSON(t *testing.T) {
	names := []string{"kind", "size"}
	for _, key := range []string{"kind", "size", "KIND", "Size", "\xe2\x84\xaaind", "\xc5\xbfize", "siz", "sizes",
		"kin\\u0064", "s\\u0130ze", "k\xffnd", "other", ""} {
		doc := `{"` + key + `":7}`
		var want struct {
			Kind int `json:"kind"`
			Size int `json:"size"`
		}
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatal(err)
		}
		r := NewReader([]byte(doc))
		if !r.Object() || !r.More() {
			t.Fatalf("%s: no member", doc)
		}
		got := r.Key(names)
		r.Skip()
		if r.More() || r.Finish() != nil {
			t.Fatalf("%s: %v", doc, r.Err())
		}
		switch {
		case want.Kind == 7 && got != "kind", want.Size == 7 && got != "size", want.Kind+want.Size == 0 && got != "":
			t.Fatalf("%s: Key selects %q, encoding/json fills %+v", doc, got, want)
		}
	}
}
