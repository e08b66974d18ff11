package nn

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"shortcutmining/internal/jsonindent"
	"shortcutmining/internal/tensor"
)

func TestDecodeJSONResidualBlock(t *testing.T) {
	src := `{
	  "name": "jsonnet",
	  "input": {"c": 8, "h": 16, "w": 16},
	  "layers": [
	    {"name": "c1", "op": "conv", "inputs": ["input"], "out_channels": 8, "kernel": 3, "stride": 1, "pad": 1},
	    {"name": "c2", "op": "conv", "inputs": ["c1"], "out_channels": 8, "kernel": 3, "stride": 1, "pad": 1, "stage": "body"},
	    {"name": "sum", "op": "add", "inputs": ["c1", "c2"]},
	    {"name": "down", "op": "pool", "pool": "max", "inputs": ["sum"], "kernel": 2, "stride": 2},
	    {"name": "gap", "op": "gpool", "inputs": ["down"]},
	    {"name": "fc", "op": "fc", "inputs": ["gap"], "out_channels": 10}
	  ]
	}`
	n, err := DecodeJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "jsonnet" || len(n.Layers) != 7 {
		t.Fatalf("decoded %s with %d layers", n.Name, len(n.Layers))
	}
	if n.Layer("c2").Stage != "body" {
		t.Errorf("stage = %q", n.Layer("c2").Stage)
	}
	if got := n.Output().Out; got != (tensor.Shape{C: 10, H: 1, W: 1}) {
		t.Errorf("output = %v", got)
	}
	if len(ShortcutEdges(n, tensor.Fixed16)) != 1 {
		t.Error("shortcut edge lost in decoding")
	}
}

func TestDecodeJSONGroupedConvAndConcat(t *testing.T) {
	src := `{
	  "name": "g",
	  "input": {"c": 8, "h": 8, "w": 8},
	  "layers": [
	    {"name": "dw", "op": "conv", "inputs": ["input"], "out_channels": 8, "kernel": 3, "stride": 1, "pad": 1, "groups": 8},
	    {"name": "pw", "op": "conv", "inputs": ["dw"], "out_channels": 8, "kernel": 1, "stride": 1},
	    {"name": "cat", "op": "concat", "inputs": ["dw", "pw"]}
	  ]
	}`
	n, err := DecodeJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.Layer("dw").NumGroups() != 8 {
		t.Error("groups lost")
	}
	if n.Layer("cat").Out.C != 16 {
		t.Errorf("concat channels = %d", n.Layer("cat").Out.C)
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"bad json", `{`, "decoding"},
		{"unknown field", `{"name":"x","input":{"c":1,"h":1,"w":1},"bogus":1,"layers":[]}`, "decoding"},
		{"no name", `{"input":{"c":1,"h":4,"w":4},"layers":[{"name":"c","op":"conv","inputs":["input"],"out_channels":1,"kernel":1,"stride":1}]}`, "needs a name"},
		{"unknown op", `{"name":"x","input":{"c":1,"h":4,"w":4},"layers":[{"name":"m","op":"magic","inputs":["input"]}]}`, "unknown op"},
		{"unknown pool", `{"name":"x","input":{"c":1,"h":4,"w":4},"layers":[{"name":"p","op":"pool","pool":"median","inputs":["input"],"kernel":2,"stride":2}]}`, "unknown pool kind"},
		{"conv arity", `{"name":"x","input":{"c":1,"h":4,"w":4},"layers":[{"name":"c","op":"conv","inputs":["input","input"],"out_channels":1,"kernel":1,"stride":1}]}`, "exactly one input"},
		{"builder error surfaces", `{"name":"x","input":{"c":1,"h":4,"w":4},"layers":[{"name":"c","op":"conv","inputs":["ghost"],"out_channels":1,"kernel":1,"stride":1}]}`, "unknown layer"},
		{"empty network", `{"name":"x","input":{"c":1,"h":4,"w":4},"layers":[]}`, "no layers"},
		{"trailing garbage", tinyJSON + ` trailing garbage`, "nn: decoding network json: unexpected data after the JSON document"},
		{"second document", tinyJSON + tinyJSON, "nn: decoding network json: unexpected data after the JSON document"},
		{"trailing garbage, reflection path", strings.Replace(tinyJSON, `"name"`, `"Name"`, 1) + ` x`, "nn: decoding network json: unexpected data after the JSON document"},
		{"unfinished trailing string", tinyJSON + ` "x`, "nn: decoding network json: unexpected data after the JSON document"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeJSON(strings.NewReader(c.src))
			if err == nil {
				t.Fatalf("expected error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestJSONRoundTripZoo(t *testing.T) {
	// Every zoo network must survive encode → decode with identical
	// structure and analysis results.
	for _, name := range ZooNames() {
		orig := MustBuild(name)
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, orig); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		back, err := DecodeJSON(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(back.Layers) != len(orig.Layers) {
			t.Fatalf("%s: layer count %d → %d", name, len(orig.Layers), len(back.Layers))
		}
		for i := range orig.Layers {
			a, b := orig.Layers[i], back.Layers[i]
			if a.Name != b.Name || a.Kind != b.Kind || a.Out != b.Out || a.Stage != b.Stage ||
				a.NumGroups() != b.NumGroups() {
				t.Fatalf("%s: layer %d differs: %+v vs %+v", name, i, a, b)
			}
		}
		ca := Characterize(orig, tensor.Fixed16)
		cb := Characterize(back, tensor.Fixed16)
		if ca != cb {
			t.Errorf("%s: characteristics changed across round trip", name)
		}
	}
}

func TestDecodeJSONShuffle(t *testing.T) {
	src := `{
	  "name": "sh",
	  "input": {"c": 12, "h": 8, "w": 8},
	  "layers": [
	    {"name": "g1", "op": "conv", "inputs": ["input"], "out_channels": 12, "kernel": 1, "stride": 1, "groups": 3},
	    {"name": "mix", "op": "shuffle", "inputs": ["g1"], "groups": 3},
	    {"name": "g2", "op": "conv", "inputs": ["mix"], "out_channels": 12, "kernel": 1, "stride": 1, "groups": 3}
	  ]
	}`
	n, err := DecodeJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.Layer("mix").Kind != OpShuffle || n.Layer("mix").NumGroups() != 3 {
		t.Error("shuffle not decoded")
	}
	// Bad groups surface the builder error.
	bad := strings.Replace(src, `"groups": 3},
	    {"name": "g2"`, `"groups": 5},
	    {"name": "g2"`, 1)
	if _, err := DecodeJSON(strings.NewReader(bad)); err == nil {
		t.Error("indivisible shuffle groups accepted")
	}
}

// tinyJSON is a one-layer network in canonical form.
const tinyJSON = `{"name":"tiny","input":{"c":3,"h":8,"w":8},"layers":[` +
	`{"name":"c1","op":"conv","inputs":["input"],"out_channels":4,"kernel":3,"stride":1,"pad":1}]}`

// TestDecodeJSONTrailingWhitespace: whitespace after the document is
// not trailing data, on either decode path.
func TestDecodeJSONTrailingWhitespace(t *testing.T) {
	for _, src := range []string{tinyJSON + " \n\t\r", strings.Replace(tinyJSON, `"name"`, `"Name"`, 1) + "\n"} {
		if _, err := DecodeJSON(strings.NewReader(src)); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

// TestDecodeJSONReadError: a read error is reported as one, whether it
// cuts the document short or comes after a whole document, where it is
// not trailing data.
func TestDecodeJSONReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct {
		src, want string
		wraps     bool
	}{
		{tinyJSON, "nn: reading network json: boom", true},
		{tinyJSON + " ", "nn: reading network json: boom", true},
		{tinyJSON[:len(tinyJSON)/2], "nn: decoding network json: boom", true},
		{tinyJSON + " x", "nn: decoding network json: unexpected data after the JSON document", false},
	} {
		_, err := DecodeJSON(io.MultiReader(strings.NewReader(c.src), iotest.ErrReader(boom)))
		if err == nil || err.Error() != c.want || errors.Is(err, boom) != c.wraps {
			t.Errorf("%.40q then a read error: %v, want %q (wrapping it: %t)", c.src, err, c.want, c.wraps)
		}
	}
}

// TestSubsetKeysMatchTags: the one-pass reader's member names are the
// json tags of the fields the reflection decoder fills, in field order.
func TestSubsetKeysMatchTags(t *testing.T) {
	for _, c := range []struct {
		keys []string
		v    any
	}{{networkKeys, jsonNetwork{}}, {shapeKeys, jsonShape{}}, {layerKeys, jsonLayer{}}} {
		typ := reflect.TypeOf(c.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			tags = append(tags, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(c.keys, tags) {
			t.Errorf("%s: keys %q, tags %q", typ, c.keys, tags)
		}
	}
}

// referenceDoc is the jsonNetwork EncodeJSON used to marshal by
// reflection; AppendJSON must write what jsonindent.Encode writes for
// it.
func referenceDoc(n *Network) (jsonNetwork, error) {
	jn := jsonNetwork{
		Name:  n.Name,
		Input: jsonShape{C: n.InputShape.C, H: n.InputShape.H, W: n.InputShape.W},
	}
	for _, l := range n.Layers {
		if l.Kind == OpInput {
			continue
		}
		jl := jsonLayer{
			Name:   l.Name,
			Inputs: append([]string(nil), l.Inputs...),
			Stage:  l.Stage,
		}
		switch l.Kind {
		case OpConv:
			jl.Op = "conv"
			jl.OutChannels = l.OutC
			jl.Kernel, jl.Stride, jl.Pad = l.K, l.Stride, l.Pad
			if g := l.NumGroups(); g > 1 {
				jl.Groups = g
			}
		case OpPool:
			jl.Op = "pool"
			jl.Pool = l.Pool.String()
			jl.Kernel, jl.Stride, jl.Pad = l.K, l.Stride, l.Pad
		case OpGlobalPool:
			jl.Op = "gpool"
		case OpFC:
			jl.Op = "fc"
			jl.OutChannels = l.OutC
		case OpEltwiseAdd:
			jl.Op = "add"
		case OpShuffle:
			jl.Op = "shuffle"
			jl.Groups = l.NumGroups()
		case OpConcat:
			jl.Op = "concat"
		default:
			return jn, fmt.Errorf("nn: cannot encode op %v", l.Kind)
		}
		jn.Layers = append(jn.Layers, jl)
	}
	return jn, nil
}

// checkAppendJSON compares AppendJSON(prefix, n) with the reflection
// encode of referenceDoc(n).
func checkAppendJSON(t *testing.T, n *Network) bool {
	t.Helper()
	doc, err := referenceDoc(n)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := jsonindent.Encode(&want, doc); err != nil {
		t.Fatal(err)
	}
	got, err := AppendJSON([]byte("prefix"), n)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "prefix"+want.String() {
		t.Errorf("%s: AppendJSON\n%s\nwant\n%s", n.Name, got, want.Bytes())
		return false
	}
	return true
}

// trickyNames are name fragments jsonindent.AppendString must escape or
// hand to json.Marshal: HTML-escaped bytes, quote, backslash, control
// bytes, U+2028/U+2029, non-ASCII and invalid UTF-8.
var trickyNames = []string{"a", "<", ">", "&", `"`, `\`, "\t", "\x00", "\x7f", "\u2028", "\u2029", "é", "日本", "\xff", " ", "plain"}

// renamed rewrites every name of n (network, layers, inputs) and every
// stage with random tricky fragments; the layer graph stays the same.
func renamed(n *Network, rng *rand.Rand) *Network {
	pick := func() string {
		var b strings.Builder
		for k := 1 + rng.Intn(3); k > 0; k-- {
			b.WriteString(trickyNames[rng.Intn(len(trickyNames))])
		}
		return b.String()
	}
	n.Name = pick()
	names := map[string]string{}
	for i, l := range n.Layers {
		names[l.Name] = fmt.Sprintf("%s%d", pick(), i)
		l.Name = names[l.Name]
		l.Stage = ""
		if rng.Intn(2) == 0 {
			l.Stage = pick()
		}
		for j, in := range l.Inputs {
			l.Inputs[j] = names[in]
		}
	}
	return n
}

// TestAppendJSONMatchesReflection: AppendJSON writes jsonindent.Encode's
// bytes for every zoo network and for random networks whose names and
// stages need escaping (testing/quick over the generator seed).
func TestAppendJSONMatchesReflection(t *testing.T) {
	for _, name := range ZooNames() {
		checkAppendJSON(t, MustBuild(name))
	}
	check := func(seed int64) bool {
		n, err := RandomNetwork(seed)
		if err != nil {
			t.Fatal(err)
		}
		return checkAppendJSON(t, renamed(n, rand.New(rand.NewSource(seed))))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// A network whose only layer is the input has no layers array.
	b := NewBuilder("bare", tensor.Shape{C: 1, H: 1, W: 1})
	checkAppendJSON(t, b.net)
}

// TestLayerPoolDropsLongLists: the layer list of a graph longer than
// maxPooledLayers is not kept for reuse.
func TestLayerPoolDropsLongLists(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"name":"long","input":{"c":1,"h":4,"w":4},"layers":[`)
	prev := "input"
	for i := 0; i <= maxPooledLayers; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"c%d","op":"conv","inputs":[%q],"out_channels":1,"kernel":1,"stride":1}`, i, prev)
		prev = fmt.Sprintf("c%d", i)
	}
	b.WriteString(`]}`)
	if _, err := DecodeJSON(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if p := layerBufs.Get().(*[]jsonLayer); cap(*p) > maxPooledLayers {
			t.Fatalf("layerBufs kept a list of %d layers", cap(*p))
		}
	}
}

// TestAppendJSONUnknownOp: an op the format cannot express is an error
// and leaves dst as it was.
func TestAppendJSONUnknownOp(t *testing.T) {
	n := MustBuild("densechain")
	n.Layers[len(n.Layers)-1].Kind = OpKind(99)
	got, err := AppendJSON([]byte("keep"), n)
	if err == nil || string(got) != "keep" {
		t.Errorf("AppendJSON = %q, %v; want \"keep\" and an error", got, err)
	}
}

// BenchmarkAppendJSON encodes resnet152, the largest zoo graph, into a
// reused buffer: the bytes a cache key hashes and an accepted record
// carries.
func BenchmarkAppendJSON(b *testing.B) {
	n := MustBuild("resnet152")
	buf, err := AppendJSON(nil, n)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if buf, err = AppendJSON(buf[:0], n); err != nil {
			b.Fatal(err)
		}
	}
}
