package canonjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestInt(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"0", 0, true},
		{" 42", 42, true},
		{"-7", -7, true},
		{"9223372036854775807", 9223372036854775807, true},
		{"-9223372036854775807", -9223372036854775807, true},
		{"9223372036854775808", 0, false},
		{"99999999999999999999", 0, false},
		{"-0", 0, false},
		{"01", 0, false},
		{"1.0", 0, false},
		{"1e2", 0, false},
		{"1E2", 0, false},
		{"-", 0, false},
		{"", 0, false},
		{`"1"`, 0, false},
		{"+1", 0, false},
	} {
		r := NewReader([]byte(c.in))
		got := r.Int()
		if r.End(); r.OK() != c.ok || c.ok && got != c.want {
			t.Errorf("Int(%q) = %d, ok %t; want %d, ok %t", c.in, got, r.OK(), c.want, c.ok)
		}
	}
}

func TestStr(t *testing.T) {
	for _, c := range []struct {
		in, want string
		ok       bool
	}{
		{`"abc"`, "abc", true},
		{`""`, "", true},
		{`"a b/<>&'"`, "a b/<>&'", true},
		{`"a\"b"`, "", false},
		{`"a\u0041"`, "", false},
		{"\"é\"", "", false},
		{"\"a\tb\"", "", false},
		{"\"a\x7fb\"", "", false},
		{`"abc`, "", false},
		{`abc`, "", false},
		{`null`, "", false},
	} {
		r := NewReader([]byte(c.in))
		got := r.Str()
		if r.End(); r.OK() != c.ok || got != c.want {
			t.Errorf("Str(%q) = %q, ok %t; want %q, ok %t", c.in, got, r.OK(), c.want, c.ok)
		}
	}
}

// readPair reads {"a": int, "b": [bool...]} and renders what it read.
func readPair(in string) (string, bool) {
	r := NewReader([]byte(in))
	var out strings.Builder
	r.Object([]string{"a", "b"}, func(i int) {
		switch i {
		case 0:
			out.WriteString("a=" + strconv.Itoa(r.Int()) + ";")
		case 1:
			r.Array(func() { out.WriteString(strconv.FormatBool(r.Bool()) + ",") })
		}
	})
	r.End()
	return out.String(), r.OK()
}

func TestObjectAndArray(t *testing.T) {
	for _, c := range []struct {
		in, want string
		ok       bool
	}{
		{`{}`, "", true},
		{` { "a" : 1 , "b" : [ true , false ] } `, "a=1;true,false,", true},
		{`{"b":[],"a":2}`, "a=2;", true},
		{"{\n\t\"a\":3\r\n}\n", "a=3;", true},
		{`{"a":1,"a":2}`, "", false},
		{`{"A":1}`, "", false},
		{`{"c":1}`, "", false},
		{`{"a":1,}`, "", false},
		{`{"a":1 "b":[]}`, "", false},
		{`{"b":[true,]}`, "", false},
		{`{"b":[true false]}`, "", false},
		{`{"b":null}`, "", false},
		{`{"a":1}{}`, "", false},
		{`{"a":1} x`, "", false},
		{`{"a":1`, "", false},
		{`[]`, "", false},
		{"{\"a\":1}\x00", "", false},
		{"\ufeff{}", "", false},
	} {
		got, ok := readPair(c.in)
		if ok != c.ok || ok && got != c.want {
			t.Errorf("%q: read %q, ok %t; want %q, ok %t", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestRaw(t *testing.T) {
	for _, c := range []struct {
		in, want string
		ok       bool
	}{
		{` {"x": [1, -0, 0.5, 1e-3, 2E+10, true, false, null, "s", {}]} `, `{"x": [1, -0, 0.5, 1e-3, 2E+10, true, false, null, "s", {}]}`, true},
		{`null`, `null`, true},
		{`-12.5e3`, `-12.5e3`, true},
		{`{"Any":{"Key":1}}`, `{"Any":{"Key":1}}`, true},
		{`01`, "", false},
		{`1.`, "", false},
		{`.5`, "", false},
		{`1e`, "", false},
		{`-`, "", false},
		{`{"x":1,}`, "", false},
		{`{"x" 1}`, "", false},
		{`{1:1}`, "", false},
		{`["\u0041"]`, "", false},
		{`nul`, "", false},
		{strings.Repeat("[", maxRawDepth) + strings.Repeat("]", maxRawDepth), strings.Repeat("[", maxRawDepth) + strings.Repeat("]", maxRawDepth), true},
		{strings.Repeat("[", maxRawDepth+2) + strings.Repeat("]", maxRawDepth+2), "", false},
		{strings.Repeat("[", 100000), "", false},
	} {
		r := NewReader([]byte(c.in))
		got := r.Raw()
		if r.End(); r.OK() != c.ok || c.ok && string(got) != c.want {
			t.Errorf("Raw(%.40q) = %.40q, ok %t; want %.40q, ok %t", c.in, got, r.OK(), c.want, c.ok)
		}
	}
}

// TestDeclineSticks: after a decline every read declines and returns a
// zero value.
func TestDeclineSticks(t *testing.T) {
	r := NewReader([]byte(`x 1 "s" true`))
	r.Int()
	if r.OK() {
		t.Fatal("x read as an int")
	}
	if v, s, b := r.Int(), r.Str(), r.Bool(); v != 0 || s != "" || b || r.OK() {
		t.Errorf("after a decline: %d %q %t ok %t", v, s, b, r.OK())
	}
}

// TestReplay: Replay yields the data, then the error (or io.EOF).
func TestReplay(t *testing.T) {
	src := bytes.Repeat([]byte("0123456789"), 500)
	boom := errors.New("boom")
	if got, err := io.ReadAll(Replay(src, boom)); err != boom || !bytes.Equal(got, src) {
		t.Errorf("Replay yields %d B then %v", len(got), err)
	}
	if got, err := io.ReadAll(Replay(src, nil)); err != nil || !bytes.Equal(got, src) {
		t.Errorf("Replay yields %d B then %v", len(got), err)
	}
}

// TestAfterDocument: whitespace to the end is clean; a second value, a
// stray byte or a cut-off literal is trailing data; a read error of the
// stream after the document is that error, not trailing data.
func TestAfterDocument(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct {
		in       string
		readErr  error
		trailing bool
		err      error
	}{
		{`{} `, nil, false, nil},
		{`{}`, nil, false, nil},
		{`{} {}`, nil, true, nil},
		{`{} ]`, nil, true, nil},
		{`{} x`, nil, true, nil},
		{`{} tru`, nil, true, nil},
		{"{} \n ", boom, false, boom},
		{`{} ]`, boom, true, nil},
	} {
		dec := json.NewDecoder(Replay([]byte(c.in), c.readErr))
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if trailing, err := AfterDocument(dec); trailing != c.trailing || err != c.err {
			t.Errorf("%q then %v: trailing %t, err %v; want %t, %v", c.in, c.readErr, trailing, err, c.trailing, c.err)
		}
	}
}

// TestNewReaderScansFirst: a backslash or a byte outside ASCII anywhere
// in the input declines before the first read; plain ASCII of any
// length does not.
func TestNewReaderScansFirst(t *testing.T) {
	long := `["` + strings.Repeat("abcdefgh", 9) + `"]`
	for _, c := range []struct {
		in string
		ok bool
	}{
		{long, true},
		{`[1,2,3]`, true},
		{long[:40] + `\n` + long[40:], false},
		{long[:40] + "é" + long[40:], false},
		{long[:len(long)-3] + "\x80" + long[len(long)-3:], false},
		{`["\u0041"]`, false},
	} {
		if got := NewReader([]byte(c.in)).OK(); got != c.ok {
			t.Errorf("NewReader(%.50q).OK() = %t, want %t", c.in, got, c.ok)
		}
	}
}
