package jsonindent

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
)

// Writer appends one JSON document value by value, without reflection.
// With an empty indent it writes exactly what json.Marshal writes for
// the same values; otherwise it writes what AppendIndent makes of that
// with the writer's prefix and indent, so an encoder can splice its
// document into an indented one at any depth. Key starts an object
// member and Next an array element; then one value follows. The first
// error sticks.
//
// A struct encoder writes Key and a value per field in field order,
// and skips a field whose omitempty tag would omit it.
type Writer struct {
	b              []byte
	prefix, indent string
	// line holds "\n", the prefix and indents, filled to lineLen as
	// depth grows, so a new line is one copy; a deeper one is written
	// piece by piece.
	line    [64]byte
	lineLen int
	colon   string // a key's closing quote and colon, and a space when indented
	depth   int
	empty   bool // the innermost open object or array has no member yet
	err     error
}

// NewWriter returns a Writer that appends to dst.
func NewWriter(dst []byte, prefix, indent string) Writer {
	w := Writer{b: dst, prefix: prefix, indent: indent, colon: `":`}
	if indent != "" {
		w.colon = `": `
	}
	if len(prefix) < len(w.line) {
		w.line[0] = '\n'
		w.lineLen = 1 + copy(w.line[1:], prefix)
	}
	return w
}

// Bytes returns the document written so far and the first error.
func (w *Writer) Bytes() ([]byte, error) { return w.b, w.err }

// Next starts an array element: a comma after an earlier one and a new
// line. It returns w, so an element reads w.Next().Int(v).
func (w *Writer) Next() *Writer {
	if w.empty {
		w.empty = false
	} else {
		w.b = append(w.b, ',')
	}
	if w.indent != "" {
		w.newline()
	}
	return w
}

// Key starts an object member as Next starts an element, and writes
// the key. k is written between quotes as it is: a struct encoder's
// keys are Go field names and tag names, which need no escaping, and a
// key that does need it is passed escaped (AppendString's output
// without its quotes). Key returns w, so a member reads
// w.Key(k).Int(v).
func (w *Writer) Key(k string) *Writer {
	w.Next()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, w.colon...)
	return w
}

// newline starts a line at the current depth. It stays out of line,
// so Next inlines.
//
//go:noinline
func (w *Writer) newline() {
	if n := 1 + len(w.prefix) + w.depth*len(w.indent); n <= len(w.line) {
		for w.lineLen < n {
			w.lineLen += copy(w.line[w.lineLen:], w.indent)
		}
		w.b = append(w.b, w.line[:n]...)
		return
	}
	w.b = append(append(w.b, '\n'), w.prefix...)
	for range w.depth {
		w.b = append(w.b, w.indent...)
	}
}

// Open starts an object ('{') or an array ('[').
func (w *Writer) Open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

// Close ends the innermost object ('}') or array (']'); an empty one
// stays on the line it opened on.
func (w *Writer) Close(c byte) {
	w.depth--
	if !w.empty && w.indent != "" {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// String writes s as json.Marshal does, escapes included.
func (w *Writer) String(s string) { w.b = AppendString(w.b, s) }

// Int writes v.
func (w *Writer) Int(v int64) { w.b = strconv.AppendInt(w.b, v, 10) }

// Bool writes v.
func (w *Writer) Bool(v bool) { w.b = strconv.AppendBool(w.b, v) }

// Null writes null.
func (w *Writer) Null() { w.b = append(w.b, "null"...) }

// Float writes v as json.Marshal writes a float64: like strconv's
// shortest 'f' form, but 'e' below 1e-6 and from 1e21 up, with the
// exponent's leading zero dropped. A NaN or an infinity is the error
// json.Marshal returns for it.
func (w *Writer) Float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, v, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// Ints writes v as an array; a nil slice is null, as for json.Marshal.
func (w *Writer) Ints(v []int64) {
	if v == nil {
		w.Null()
		return
	}
	w.Open('[')
	for _, x := range v {
		w.Next().Int(x)
	}
	w.Close(']')
}

// Strings writes v as an array; a nil slice is null, as for
// json.Marshal.
func (w *Writer) Strings(v []string) {
	if v == nil {
		w.Null()
		return
	}
	w.Open('[')
	for _, s := range v {
		w.Next().String(s)
	}
	w.Close(']')
}

// Value writes v through json.Marshal, indented at the current depth:
// the way out for a value no encoder writes by hand.
func (w *Writer) Value(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	if w.indent == "" {
		w.b = append(w.b, b...)
		return
	}
	w.b = AppendIndent(w.b, b, w.prefix+strings.Repeat(w.indent, w.depth), w.indent)
}
