// Package canonjson reads the canonical subset of JSON that the
// repository's own encoders write, in one pass over a byte slice and
// without reflection.
//
// The subset is whitespace, strings of printable ASCII without escapes,
// integers that fit an int (no fraction, exponent, leading zero or
// minus zero), true and false, arrays, and objects whose keys the
// caller names exactly, each at most once. On anything else a Reader
// declines: it never reports an error, it only stops and says so
// through OK. The caller then decodes the same bytes with
// encoding/json, which stays the reference for every other input and
// for every error text.
package canonjson

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
)

// AfterDocument reports what follows the document that dec has just
// decoded. trailing is true when anything but whitespace does: a token,
// or bytes that start none. err is a read error of the stream there,
// such as an http.MaxBytesReader limit falling in trailing whitespace;
// that is the stream's fault, not trailing data. Both are zero at a
// clean end of input.
func AfterDocument(dec *json.Decoder) (trailing bool, err error) {
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return false, nil
	case err == nil, err == io.ErrUnexpectedEOF, errors.As(err, new(*json.SyntaxError)):
		return true, nil
	default:
		return false, err
	}
}

// Reader reads canonical-subset JSON from a byte slice. Its methods
// read one value each at the current position; after a decline every
// further read declines too and returns a zero value.
type Reader struct {
	data     []byte
	off      int
	declined bool
}

// NewReader returns a Reader positioned at the start of data. It
// declines at once when data holds a backslash or a byte outside
// ASCII: only a string could hold one, and no string of the subset
// does, so a document that leaves the subset late that way costs one
// fast scan instead of a partial decode.
func NewReader(data []byte) *Reader {
	r := &Reader{data: data}
	if !plainASCII(data) {
		r.decline()
	}
	return r
}

// plainASCII reports whether data is ASCII without a backslash, eight
// bytes at a time.
func plainASCII(data []byte) bool {
	if bytes.IndexByte(data, '\\') >= 0 {
		return false
	}
	for ; len(data) >= 8; data = data[8:] {
		if binary.LittleEndian.Uint64(data)&0x8080808080808080 != 0 {
			return false
		}
	}
	for _, c := range data {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// OK reports whether every read so far stayed inside the subset.
func (r *Reader) OK() bool { return !r.declined }

// decline marks the input as outside the subset and moves to its end,
// so loops driven by the input stop.
func (r *Reader) decline() {
	r.declined = true
	r.off = len(r.data)
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (r *Reader) peek() byte {
	for r.off < len(r.data) {
		switch c := r.data[r.off]; c {
		case ' ', '\t', '\n', '\r':
			r.off++
		default:
			return c
		}
	}
	return 0
}

// expect consumes c as the next non-space byte, or declines.
func (r *Reader) expect(c byte) bool {
	if r.peek() != c {
		r.decline()
		return false
	}
	r.off++
	return true
}

// literal consumes word (true, false or null) if it comes next.
func (r *Reader) literal(word string) bool {
	if r.peek() == word[0] && len(r.data)-r.off >= len(word) && string(r.data[r.off:r.off+len(word)]) == word {
		r.off += len(word)
		return true
	}
	return false
}

// str returns the bytes of a string of printable ASCII without escapes.
func (r *Reader) str() []byte {
	if !r.expect('"') {
		return nil
	}
	start := r.off
	for ; r.off < len(r.data); r.off++ {
		switch c := r.data[r.off]; {
		case c == '"':
			r.off++
			return r.data[start : r.off-1]
		case c < 0x20 || c >= 0x7f || c == '\\':
			r.decline()
			return nil
		}
	}
	r.decline()
	return nil
}

// Str reads a string of printable ASCII without escapes.
func (r *Reader) Str() string { return string(r.str()) }

// Int reads an integer that fits an int. A fraction or exponent after
// it is left for the next read, which declines at the '.', 'e' or 'E'.
func (r *Reader) Int() int {
	neg := r.peek() == '-'
	if neg {
		r.off++
	}
	start := r.off
	var v uint64
	for ; r.off < len(r.data) && '0' <= r.data[r.off] && r.data[r.off] <= '9'; r.off++ {
		d := uint64(r.data[r.off] - '0')
		if v > (math.MaxInt-d)/10 {
			r.decline()
			return 0
		}
		v = v*10 + d
	}
	switch n := r.off - start; {
	case n == 0, n > 1 && r.data[start] == '0', neg && v == 0:
		r.decline()
		return 0
	}
	if neg {
		return -int(v)
	}
	return int(v)
}

// Bool reads true or false.
func (r *Reader) Bool() bool {
	switch {
	case r.literal("true"):
		return true
	case r.literal("false"):
		return false
	}
	r.decline()
	return false
}

// Array reads an array, calling elem once per element to read it.
func (r *Reader) Array(elem func()) {
	if !r.expect('[') {
		return
	}
	if r.peek() == ']' {
		r.off++
		return
	}
	for {
		elem()
		switch r.peek() {
		case ',':
			r.off++
		case ']':
			r.off++
			return
		default:
			r.decline()
			return
		}
	}
}

// Object reads an object whose keys are all among keys (at most 64),
// each at most once, calling member with the key's index to read its
// value.
func (r *Reader) Object(keys []string, member func(i int)) {
	if !r.expect('{') {
		return
	}
	if r.peek() == '}' {
		r.off++
		return
	}
	var seen uint64
	for {
		i := index(keys, r.str())
		if i < 0 || seen&(1<<i) != 0 || !r.expect(':') {
			r.decline()
			return
		}
		seen |= 1 << i
		member(i)
		switch r.peek() {
		case ',':
			r.off++
		case '}':
			r.off++
			return
		default:
			r.decline()
			return
		}
	}
}

// index returns the position of key in keys, or -1.
func index(keys []string, key []byte) int {
	for i, k := range keys {
		if string(key) == k {
			return i
		}
	}
	return -1
}

// maxRawDepth bounds the nesting Raw follows before it declines, far
// below encoding/json's own limit.
const maxRawDepth = 64

// Raw reads a value of any shape and returns its bytes, from its first
// to its last byte, for a decoder of its own. Besides the subset it
// accepts null and every JSON number; strings stay printable ASCII
// without escapes, and the keys of its objects are not checked.
func (r *Reader) Raw() []byte {
	r.peek()
	from := r.off
	r.skip(0)
	if r.declined {
		return nil
	}
	return r.data[from:r.off]
}

// skip consumes one value of Raw's grammar.
func (r *Reader) skip(depth int) {
	if depth > maxRawDepth {
		r.decline()
		return
	}
	switch r.peek() {
	case '{':
		r.off++
		if r.peek() == '}' {
			r.off++
			return
		}
		for !r.declined {
			r.str()
			r.expect(':')
			r.skip(depth + 1)
			if r.peek() == '}' {
				r.off++
				return
			}
			r.expect(',')
		}
	case '[':
		r.Array(func() { r.skip(depth + 1) })
	case '"':
		r.str()
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		r.number()
	default:
		if !r.literal("true") && !r.literal("false") && !r.literal("null") {
			r.decline()
		}
	}
}

// number consumes a JSON number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (r *Reader) number() {
	if r.off < len(r.data) && r.data[r.off] == '-' {
		r.off++
	}
	switch {
	case r.off < len(r.data) && r.data[r.off] == '0':
		r.off++
	case !r.digits():
		r.decline()
		return
	}
	if r.off < len(r.data) && r.data[r.off] == '.' {
		r.off++
		if !r.digits() {
			r.decline()
			return
		}
	}
	if r.off < len(r.data) && (r.data[r.off] == 'e' || r.data[r.off] == 'E') {
		r.off++
		if r.off < len(r.data) && (r.data[r.off] == '+' || r.data[r.off] == '-') {
			r.off++
		}
		if !r.digits() {
			r.decline()
		}
	}
}

// digits consumes a run of decimal digits and reports whether there
// was one.
func (r *Reader) digits() bool {
	start := r.off
	for r.off < len(r.data) && '0' <= r.data[r.off] && r.data[r.off] <= '9' {
		r.off++
	}
	return r.off > start
}

// End declines unless only whitespace is left.
func (r *Reader) End() {
	if r.peek(); r.off != len(r.data) {
		r.decline()
	}
}

// Replay returns a reader that yields data and then err (io.EOF when
// err is nil): the stream a decoder reading the original source would
// have seen, so a fallback decode of a body read up to an error fails
// as that decoder would have.
func Replay(data []byte, err error) io.Reader {
	if err == nil {
		return bytes.NewReader(data)
	}
	return io.MultiReader(bytes.NewReader(data), errReader{err})
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
