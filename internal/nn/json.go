package nn

import (
	"encoding/json"
	"fmt"
	"io"

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

// DecodeJSON reads a network from the JSON graph format.
func DecodeJSON(r io.Reader) (*Network, error) {
	var jn jsonNetwork
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jn); err != nil {
		return nil, fmt.Errorf("nn: decoding network json: %w", err)
	}
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
			return fmt.Errorf("nn: cannot encode op %v", l.Kind)
		}
		jn.Layers = append(jn.Layers, jl)
	}
	return jsonindent.Encode(w, jn)
}
