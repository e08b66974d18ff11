package jsonindent_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"shortcutmining/internal/compress"
	"shortcutmining/internal/core"
	"shortcutmining/internal/fault"
	"shortcutmining/internal/jsonindent"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/serve"
)

// escapes holds strings whose encodings exercise the string scan:
// backslash runs before and after quotes, HTML escapes, control
// characters, U+2028 and non-ASCII text.
var escapes = []string{
	`\`, `\\`, `\\\`, `"`, `\"`, `\\"`, `\\\"`, `"\`, `a\\\\"b"\\`,
	"<a href=\"x\">&amp;</a>", "tab\tnl\nnul\x00", "  ", "é ü 中 🙂",
	"{[,:]}", `{"k":[1,2]}`, "",
}

// tinyGraph is a three-layer residual block whose layer names need
// escaping. It keeps the observed RunStats seed small enough for the
// fuzzer to mutate and minimize quickly.
const tinyGraph = `{"name":"tiny","input":{"c":4,"h":8,"w":8},"layers":[
 {"name":"conv<1>","op":"conv","inputs":["input"],"out_channels":4,"kernel":3,"stride":1,"pad":1},
 {"name":"conv \\\"2\\\"","op":"conv","inputs":["conv<1>"],"out_channels":4,"kernel":1,"stride":1},
 {"name":"add&é","op":"add","inputs":["conv<1>","conv \\\"2\\\""]}]}`

// values are the documents the serving tier encodes: an observed
// RunStats with its metrics snapshot, a platform config with faults
// and compression, a finished job view, and escaped strings.
func values(tb testing.TB) map[string]any {
	tb.Helper()
	net, err := nn.DecodeJSON(strings.NewReader(tinyGraph))
	if err != nil {
		tb.Fatal(err)
	}
	st, err := core.SimulateObservedContext(context.Background(), net, core.Default(), core.SCM, nil, metrics.New())
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.Default()
	if cfg.Faults, err = fault.ParseSpec("seed=42;bank-fail@4:n=3;dma-drop:p=0.02"); err != nil {
		tb.Fatal(err)
	}
	if cfg.Compression, err = compress.ParseSpec("zvc:sparsity=0.5,enc=2,dec=2"); err != nil {
		tb.Fatal(err)
	}
	created := time.Date(2030, 1, 2, 3, 4, 5, 6, time.UTC)
	view := serve.View{ID: "j000001", Kind: "simulate", RequestID: `r<1>&"\`, State: serve.JobDone,
		Created: created, Started: &created, Finished: &created, Stats: &st}
	return map[string]any{
		"stats":   st,
		"config":  cfg,
		"view":    view,
		"escapes": escapes,
		"nested":  map[string]any{"empty": map[string]any{}, "list": []any{}, "deep": [][]any{{[]int{}}, {1.5e-9, nil, true}}},
		"scalar":  "top-level \\\" string",
		"nil":     nil,
	}
}

// want is the reference encoding: encoding/json's own indenting
// Encoder.
func want(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestEncodeMatchesEncoder(t *testing.T) {
	for name, v := range values(t) {
		var got bytes.Buffer
		if err := jsonindent.Encode(&got, v); err != nil {
			t.Fatal(err)
		}
		if w := want(t, v); !bytes.Equal(got.Bytes(), w) {
			t.Errorf("%s: Encode differs from Encoder.SetIndent\n got: %.300s\nwant: %.300s", name, got.Bytes(), w)
		}
	}
}

func TestEncodeError(t *testing.T) {
	var got bytes.Buffer
	if err := jsonindent.Encode(&got, map[string]any{"c": make(chan int)}); err == nil {
		t.Error("unencodable value accepted")
	}
	if got.Len() != 0 {
		t.Errorf("failed Encode wrote %q", got.Bytes())
	}
}

// FuzzIndent checks the indenting pass against json.Indent on the
// compact form of every valid document, with and without a prefix.
// It also decodes each document into any and writes it again through a
// Writer, which must match json.Marshal compact and AppendIndent of
// that indented.
func FuzzIndent(f *testing.F) {
	for _, v := range values(f) {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range escapes {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(` { "a" : [ 1 , { } , [ ] , "\\\"" ] } `))

	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		var src bytes.Buffer
		if err := json.Compact(&src, data); err != nil {
			t.Fatal(err)
		}
		for _, prefix := range []string{"", "> "} {
			var w bytes.Buffer
			if err := json.Indent(&w, src.Bytes(), prefix, "  "); err != nil {
				t.Fatal(err)
			}
			if got := jsonindent.AppendIndent(nil, src.Bytes(), prefix, "  "); !bytes.Equal(got, w.Bytes()) {
				t.Fatalf("prefix %q: indent of %q\n got: %q\nwant: %q", prefix, src.Bytes(), got, w.Bytes())
			}
		}

		var v any
		if json.Unmarshal(data, &v) != nil {
			return // valid JSON whose number overflows a float64
		}
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, layout := range [][2]string{{"", ""}, {"", "  "}, {"> ", "  "}, {"\t", "\t"}} {
			prefix, indent := layout[0], layout[1]
			want := compact
			if indent != "" {
				want = jsonindent.AppendIndent(nil, compact, prefix, indent)
			}
			w := jsonindent.NewWriter([]byte("head"), prefix, indent)
			writeValue(&w, v)
			got, err := w.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[4:], want) || string(got[:4]) != "head" {
				t.Fatalf("prefix %q indent %q: Writer of %q\n got: %q\nwant: %q", prefix, indent, data, got, want)
			}
		}
	})
}

// writeValue writes v, as json.Unmarshal decodes it into any, through
// w, with object keys in json.Marshal's sorted order.
func writeValue(w *jsonindent.Writer, v any) {
	switch v := v.(type) {
	case nil:
		w.Null()
	case bool:
		w.Bool(v)
	case float64:
		w.Float(v)
	case string:
		w.String(v)
	case []any:
		w.Open('[')
		for _, e := range v {
			writeValue(w.Next(), e)
		}
		w.Close(']')
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.Open('{')
		for _, k := range keys {
			q := jsonindent.AppendString(nil, k)
			writeValue(w.Key(string(q[1:len(q)-1])), v[k])
		}
		w.Close('}')
	default:
		panic(fmt.Sprintf("writeValue: %T", v))
	}
}

// BenchmarkEncode times a resnet34 RunStats, the size of a typical
// serving reply, against encoding/json's indenting Encoder.
func BenchmarkEncode(b *testing.B) {
	st, err := core.Simulate(nn.MustBuild("resnet34"), core.Default(), core.SCM, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("jsonindent", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := jsonindent.Encode(&buf, st); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoder", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(st); err != nil {
				b.Fatal(err)
			}
		}
	})
}
