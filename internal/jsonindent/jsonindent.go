// Package jsonindent writes the indented JSON the serving tier hashes,
// journals and replies with. Encode produces the same bytes as an
// encoding/json Encoder with SetIndent("", "  "), but indents in one
// linear pass over the compact json.Marshal output instead of running
// encoding/json's validating scanner a second time. Writer is the one
// reflection-free encoder under every hand-written AppendJSON: it
// reproduces json.Marshal's bytes, and AppendIndent's layout of them,
// value by value.
package jsonindent

import (
	"encoding/json"
	"io"
)

// Encode writes v as JSON indented by two spaces per level, followed by
// a newline: byte for byte what json.NewEncoder(w) with
// SetIndent("", "  ") writes.
func Encode(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	// Two-space indentation makes a serving reply about 1.7–1.9× its
	// compact size; 2× leaves room for it and the newline.
	out := AppendIndent(make([]byte, 0, 2*len(b)+1), b, "", "  ")
	_, err = w.Write(append(out, '\n'))
	return err
}

// AppendIndent appends src to dst indented as json.Indent would. src
// must be compact, valid JSON (json.Marshal or json.Compact output):
// outside strings it holds no whitespace, so the pass only has to find
// string boundaries, track bracket depth and keep empty {} and [] on
// one line.
func AppendIndent(dst, src []byte, prefix, indent string) []byte {
	// line is "\n", the prefix and depth indents, grown to the deepest
	// level seen so far.
	line := append([]byte{'\n'}, prefix...)
	depth := 0
	newline := func() {
		n := 1 + len(prefix) + depth*len(indent)
		for len(line) < n {
			line = append(line, indent...)
		}
		dst = append(dst, line[:n]...)
	}
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			// A backslash escapes the byte after it, so a run of
			// backslashes pairs up and only an unpaired one hides a quote.
			j := i + 1
			for ; src[j] != '"'; j++ {
				if src[j] == '\\' {
					j++
				}
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			if next := src[i+1]; next == '}' || next == ']' {
				dst = append(dst, c, next)
				i++
				continue
			}
			dst = append(dst, c)
			depth++
			newline()
		case '}', ']':
			depth--
			newline()
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			newline()
		case ':':
			dst = append(dst, ':', ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// AppendString appends s as a JSON string, byte for byte what
// json.Marshal(s) writes. Printable ASCII other than the quote, the
// backslash and the HTML-escaped <, > and & is copied as is; any other
// string goes through json.Marshal.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // scmvet:ok ignorederr a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
