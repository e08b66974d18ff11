package nn

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecodeJSON hammers the user-facing network import path. The
// contract under arbitrary input: DecodeJSON either returns an error
// or a network that passes Validate — never a panic, never a
// half-built graph — and any accepted network survives an
// EncodeJSON/DecodeJSON round trip byte-identically. DecodeJSON also
// agrees with its reflection reference, decodeJSONReflect: the same error
// text, or networks with the same encoding.
func FuzzDecodeJSON(f *testing.F) {
	f.Add(`{"name":"tiny","input":{"c":3,"h":8,"w":8},"layers":[` +
		`{"name":"c1","op":"conv","inputs":["input"],"out_channels":4,"kernel":3,"stride":1,"pad":1}]}`)
	f.Add(`{"name":"res","input":{"c":8,"h":16,"w":16},"layers":[` +
		`{"name":"c1","op":"conv","inputs":["input"],"out_channels":8,"kernel":3,"stride":1,"pad":1},` +
		`{"name":"c2","op":"conv","inputs":["c1"],"out_channels":8,"kernel":3,"stride":1,"pad":1},` +
		`{"name":"add","op":"add","inputs":["input","c2"]},` +
		`{"name":"gp","op":"gpool","inputs":["add"]},` +
		`{"name":"fc","op":"fc","inputs":["gp"],"out_channels":10}]}`)
	f.Add(`{"name":"pools","input":{"c":2,"h":9,"w":9},"layers":[` +
		`{"name":"p1","op":"pool","pool":"avg","inputs":["input"],"kernel":3,"stride":2,"pad":0},` +
		`{"name":"sh","op":"shuffle","inputs":["p1"],"groups":2},` +
		`{"name":"cat","op":"concat","inputs":["p1","sh"]}]}`)
	f.Add(`{"name":"","input":{},"layers":[]}`)
	f.Add(`{"name":"bad","input":{"c":-1,"h":0,"w":1<<60}}`)
	f.Add(`not json at all`)
	// Inputs outside canonjson's subset, which the reflection path
	// decodes or rejects.
	for _, v := range []string{
		strings.Replace(tinyJSON, `"name"`, `"NAME"`, 2),
		strings.Replace(tinyJSON, `"tiny"`, `"ti\u006ey"`, 1),
		strings.Replace(tinyJSON, `"c1"`, `"c\u00e9"`, 2),
		strings.Replace(tinyJSON, `"name":"tiny"`, `"name":"a","name":"tiny"`, 1),
		strings.Replace(tinyJSON, `"kernel":3`, `"kernel":3,"kernel":1`, 1),
		strings.Replace(tinyJSON, `"inputs":["input"]`, `"inputs":["input"],"inputs":["input"]`, 1),
		strings.Replace(tinyJSON, `"layers":[`, `"layers":[],"layers":[`, 1),
		strings.Replace(tinyJSON, `"input":{"c":3,"h":8,"w":8}`, `"input":null`, 1),
		strings.Replace(tinyJSON, `"inputs":["input"]`, `"inputs":null`, 1),
		`{"name":"x","input":{"c":1,"h":1,"w":1},"layers":null}`,
		`null`,
		strings.Replace(tinyJSON, `"kernel":3`, `"kernel":3.0`, 1),
		strings.Replace(tinyJSON, `"pad":1`, `"pad":1e0`, 1),
		strings.Replace(tinyJSON, `"pad":1`, `"pad":-0`, 1),
		strings.Replace(tinyJSON, `"pad":1`, `"pad":01`, 1),
		strings.Replace(tinyJSON, `"c":3`, `"c":9223372036854775807`, 1),
		strings.Replace(tinyJSON, `"c":3`, `"c":9223372036854775808`, 1),
		strings.Replace(tinyJSON, `"c":3`, `"c":-9223372036854775808`, 1),
		strings.Replace(tinyJSON, `"stride":1`, `"stride":true`, 1),
		tinyJSON + ` trailing`,
		tinyJSON + tinyJSON,
		tinyJSON + "\n",
		" \t" + tinyJSON,
		tinyJSON[:len(tinyJSON)-3],
	} {
		f.Add(v)
	}

	f.Fuzz(func(t *testing.T, data string) {
		net, err := DecodeJSON(strings.NewReader(data))
		ref, refErr := decodeJSONReflect(strings.NewReader(data))
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("DecodeJSON error %v, reflection reference %v\ninput: %q", err, refErr, data)
		}
		if err != nil {
			return
		}
		if a, b := mustEncode(t, net), mustEncode(t, ref); !bytes.Equal(a, b) {
			t.Fatalf("DecodeJSON and its reflection reference disagree:\n%s\nvs\n%s", a, b)
		}
		if verr := net.Validate(); verr != nil {
			t.Fatalf("DecodeJSON accepted a network failing Validate: %v\ninput: %q", verr, data)
		}
		var enc bytes.Buffer
		if err := EncodeJSON(&enc, net); err != nil {
			t.Fatalf("EncodeJSON failed on an accepted network: %v", err)
		}
		again, err := DecodeJSON(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding encoded network: %v\njson: %s", err, enc.Bytes())
		}
		var enc2 bytes.Buffer
		if err := EncodeJSON(&enc2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatalf("encode/decode/encode not a fixed point:\n%s\nvs\n%s", enc.Bytes(), enc2.Bytes())
		}
	})
}

func mustEncode(t *testing.T, n *Network) []byte {
	t.Helper()
	b, err := AppendJSON(nil, n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
