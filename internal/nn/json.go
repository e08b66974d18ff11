package nn

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"shortcutmining/internal/canonjson"
	"shortcutmining/internal/jsonindent"
	"shortcutmining/internal/tensor"
)

// The JSON graph format lets users define networks without writing Go:
//
//	{
//	  "name": "mynet",
//	  "input": {"c": 3, "h": 224, "w": 224},
//	  "layers": [
//	    {"name": "conv1", "op": "conv", "inputs": ["input"],
//	     "out_channels": 64, "kernel": 7, "stride": 2, "pad": 3},
//	    {"name": "pool1", "op": "pool", "pool": "max", "inputs": ["conv1"],
//	     "kernel": 3, "stride": 2, "pad": 1},
//	    {"name": "add", "op": "add", "inputs": ["shortcut", "main"]}
//	  ]
//	}
//
// Layers execute in listing order; inputs must reference earlier
// layers (or "input"). The decoded network passes through the same
// Builder validation as the Go API.

type jsonShape struct {
	C int `json:"c"`
	H int `json:"h"`
	W int `json:"w"`
}

type jsonLayer struct {
	Name        string   `json:"name"`
	Op          string   `json:"op"`
	Inputs      []string `json:"inputs,omitempty"`
	Stage       string   `json:"stage,omitempty"`
	OutChannels int      `json:"out_channels,omitempty"`
	Kernel      int      `json:"kernel,omitempty"`
	Stride      int      `json:"stride,omitempty"`
	Pad         int      `json:"pad,omitempty"`
	Groups      int      `json:"groups,omitempty"`
	Pool        string   `json:"pool,omitempty"`
}

type jsonNetwork struct {
	Name   string      `json:"name"`
	Input  jsonShape   `json:"input"`
	Layers []jsonLayer `json:"layers"`
}

// The graph format's member names, in the order of jsonNetwork's,
// jsonShape's and jsonLayer's fields.
var (
	networkKeys = []string{"name", "input", "layers"}
	shapeKeys   = []string{"c", "h", "w"}
	layerKeys   = []string{"name", "op", "inputs", "stage", "out_channels", "kernel", "stride", "pad", "groups", "pool"}
)

// DecodeJSON reads a network from the JSON graph format. A document in
// canonjson's subset is read in one pass; any other goes through the
// reflection decoder, whose error texts are the format's. Anything but
// whitespace after the document is an error.
func DecodeJSON(r io.Reader) (*Network, error) {
	// A reader that knows its length, as the bytes and strings readers
	// do, is read into one allocation.
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	data := buf.Bytes()
	if err == nil {
		cr := canonjson.NewReader(data)
		build := ReadJSON(cr)
		if cr.End(); cr.OK() {
			return build()
		}
	}
	return decodeJSONReflect(canonjson.Replay(data, err))
}

// layerBufs recycles the layer lists ReadJSON decodes into, up to
// maxPooledLayers records each; a longer list is left to the collector.
var layerBufs = sync.Pool{New: func() any { return new([]jsonLayer) }}

const maxPooledLayers = 512

// ReadJSON reads a network in the JSON graph format at cr's position
// and returns the function that builds it, whose error is DecodeJSON's
// for the same document. It returns nil when cr declines. Call the
// build once, and only when the enclosing document was read without a
// decline; otherwise the caller falls back to DecodeJSON on the bytes.
func ReadJSON(cr *canonjson.Reader) func() (*Network, error) {
	p := layerBufs.Get().(*[]jsonLayer)
	jn := jsonNetwork{Layers: (*p)[:0]}
	readNetwork(cr, &jn)
	if !cr.OK() {
		putLayers(p, jn.Layers)
		return nil
	}
	return func() (*Network, error) {
		defer putLayers(p, jn.Layers)
		return build(&jn)
	}
}

// putLayers returns a layer list to layerBufs. The builder keeps the
// strings and input lists, not the layer records, so clearing them
// drops the pool's last references.
func putLayers(p *[]jsonLayer, layers []jsonLayer) {
	clear(layers)
	if cap(layers) <= maxPooledLayers {
		*p = layers[:0]
		layerBufs.Put(p)
	}
}

// readNetwork reads a jsonNetwork at cr's position.
func readNetwork(cr *canonjson.Reader, jn *jsonNetwork) {
	cr.Object(networkKeys, func(i int) {
		switch i {
		case 0:
			jn.Name = cr.Str()
		case 1:
			cr.Object(shapeKeys, func(i int) {
				switch i {
				case 0:
					jn.Input.C = cr.Int()
				case 1:
					jn.Input.H = cr.Int()
				case 2:
					jn.Input.W = cr.Int()
				}
			})
		case 2:
			cr.Array(func() {
				jn.Layers = append(jn.Layers, jsonLayer{})
				readLayer(cr, &jn.Layers[len(jn.Layers)-1])
			})
		}
	})
}

// readLayer reads a jsonLayer at cr's position.
func readLayer(cr *canonjson.Reader, jl *jsonLayer) {
	cr.Object(layerKeys, func(i int) {
		switch i {
		case 0:
			jl.Name = cr.Str()
		case 1:
			jl.Op = cr.Str()
		case 2:
			cr.Array(func() { jl.Inputs = append(jl.Inputs, cr.Str()) })
		case 3:
			jl.Stage = cr.Str()
		case 4:
			jl.OutChannels = cr.Int()
		case 5:
			jl.Kernel = cr.Int()
		case 6:
			jl.Stride = cr.Int()
		case 7:
			jl.Pad = cr.Int()
		case 8:
			jl.Groups = cr.Int()
		case 9:
			jl.Pool = cr.Str()
		}
	})
}

// decodeJSONReflect is DecodeJSON's reference path alone: encoding/json
// with unknown fields disallowed, then the trailing-data check, then
// the build. DecodeJSON falls back to it for a document outside
// canonjson's subset; FuzzDecodeJSON holds the two to the same results.
func decodeJSONReflect(r io.Reader) (*Network, error) {
	var jn jsonNetwork
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jn); err != nil {
		return nil, fmt.Errorf("nn: decoding network json: %w", err)
	}
	switch trailing, err := canonjson.AfterDocument(dec); {
	case trailing:
		return nil, errors.New("nn: decoding network json: unexpected data after the JSON document")
	case err != nil:
		return nil, fmt.Errorf("nn: reading network json: %w", err)
	}
	return build(&jn)
}

// build runs a decoded document through the Builder: shape inference
// and validation, and the format's own checks.
func build(jn *jsonNetwork) (*Network, error) {
	if jn.Name == "" {
		return nil, fmt.Errorf("nn: network json needs a name")
	}
	b := NewBuilder(jn.Name, tensor.Shape{C: jn.Input.C, H: jn.Input.H, W: jn.Input.W})
	for _, jl := range jn.Layers {
		b.SetStage(jl.Stage)
		one := func() (string, error) {
			if len(jl.Inputs) != 1 {
				return "", fmt.Errorf("nn: layer %q (%s) needs exactly one input", jl.Name, jl.Op)
			}
			return jl.Inputs[0], nil
		}
		switch jl.Op {
		case "conv":
			in, err := one()
			if err != nil {
				return nil, err
			}
			if jl.Groups > 1 {
				b.GroupedConv(jl.Name, in, jl.OutChannels, jl.Kernel, jl.Stride, jl.Pad, jl.Groups)
			} else {
				b.Conv(jl.Name, in, jl.OutChannels, jl.Kernel, jl.Stride, jl.Pad)
			}
		case "pool":
			in, err := one()
			if err != nil {
				return nil, err
			}
			kind := MaxPool
			switch jl.Pool {
			case "", "max":
			case "avg":
				kind = AvgPool
			default:
				return nil, fmt.Errorf("nn: layer %q: unknown pool kind %q", jl.Name, jl.Pool)
			}
			b.Pool(jl.Name, in, kind, jl.Kernel, jl.Stride, jl.Pad)
		case "gpool":
			in, err := one()
			if err != nil {
				return nil, err
			}
			b.GlobalPool(jl.Name, in)
		case "fc":
			in, err := one()
			if err != nil {
				return nil, err
			}
			b.FC(jl.Name, in, jl.OutChannels)
		case "shuffle":
			in, err := one()
			if err != nil {
				return nil, err
			}
			b.Shuffle(jl.Name, in, jl.Groups)
		case "add":
			b.Add(jl.Name, jl.Inputs...)
		case "concat":
			b.Concat(jl.Name, jl.Inputs...)
		default:
			return nil, fmt.Errorf("nn: layer %q: unknown op %q", jl.Name, jl.Op)
		}
	}
	return b.Finish()
}

// EncodeJSON writes the network in the JSON graph format; decoding the
// output reproduces an identical network.
func EncodeJSON(w io.Writer, n *Network) error {
	b, err := AppendJSON(nil, n)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendJSON appends the network in the JSON graph format to dst: the
// bytes jsonindent.Encode writes for the network's jsonNetwork
// document, written without reflection. On an error dst comes back
// unextended.
func AppendJSON(dst []byte, n *Network) ([]byte, error) {
	w := jsonindent.NewWriter(dst, "", "  ")
	w.Open('{')
	w.Key("name").String(n.Name)
	w.Key("input").Open('{')
	w.Key("c").Int(int64(n.InputShape.C))
	w.Key("h").Int(int64(n.InputShape.H))
	w.Key("w").Int(int64(n.InputShape.W))
	w.Close('}')
	w.Key("layers")
	layers := false
	for _, l := range n.Layers {
		if l.Kind == OpInput {
			continue
		}
		if !layers {
			w.Open('[')
			layers = true
		}
		if err := writeLayer(w.Next(), l); err != nil {
			return dst, err
		}
	}
	if layers {
		w.Close(']')
	} else {
		w.Null()
	}
	w.Close('}')
	b, err := w.Bytes()
	if err != nil {
		return dst, err
	}
	return append(b, '\n'), nil
}

// writeLayer writes l's jsonLayer, omitting the empty members its
// omitempty tags omit.
func writeLayer(w *jsonindent.Writer, l *Layer) error {
	var op string
	outC, k, stride, pad, groups, pool := 0, 0, 0, 0, 0, ""
	switch l.Kind {
	case OpConv:
		op, outC, k, stride, pad = "conv", l.OutC, l.K, l.Stride, l.Pad
		if g := l.NumGroups(); g > 1 {
			groups = g
		}
	case OpPool:
		op, pool, k, stride, pad = "pool", l.Pool.String(), l.K, l.Stride, l.Pad
	case OpGlobalPool:
		op = "gpool"
	case OpFC:
		op, outC = "fc", l.OutC
	case OpEltwiseAdd:
		op = "add"
	case OpShuffle:
		op, groups = "shuffle", l.NumGroups()
	case OpConcat:
		op = "concat"
	default:
		return fmt.Errorf("nn: cannot encode op %v", l.Kind)
	}
	w.Open('{')
	w.Key("name").String(l.Name)
	w.Key("op").String(op)
	if len(l.Inputs) > 0 {
		w.Key("inputs").Strings(l.Inputs)
	}
	if l.Stage != "" {
		w.Key("stage").String(l.Stage)
	}
	for _, m := range [...]struct {
		key string
		v   int
	}{{"out_channels", outC}, {"kernel", k}, {"stride", stride}, {"pad", pad}, {"groups", groups}} {
		if m.v != 0 {
			w.Key(m.key).Int(int64(m.v))
		}
	}
	if pool != "" {
		w.Key("pool").String(pool)
	}
	w.Close('}')
	return nil
}
