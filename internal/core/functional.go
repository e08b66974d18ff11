package core

import (
	"context"
	"fmt"
	"hash/fnv"

	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
	"shortcutmining/internal/tensor"
	"shortcutmining/internal/tensorops"
)

// VerifyFunctional executes the network with real float32 activations
// flowing through the logical-buffer machinery and checks, at every
// consumption point, that the on-chip prefix (carried in buffer
// payloads through role switches, pinning and partial release) plus
// the spilled suffix reconstruct exactly the golden reference computed
// by package tensorops. It is the strongest correctness statement the
// repo makes about the Shortcut Mining procedures: no byte is ever
// lost, duplicated, or misattributed, under any feature set.
//
// The run uses float32 activations (so payload elements align with
// bank bytes) and deterministic weights derived from seed and the
// layer names. It returns the run statistics of the instrumented
// simulation.
func VerifyFunctional(net *nn.Network, cfg Config, feat Features, seed int64) (stats.RunStats, error) {
	cfg.DType = tensor.Float32
	if cfg.Pool.BankBytes%4 != 0 {
		return stats.RunStats{}, fmt.Errorf("core: functional mode needs 4-byte-aligned banks, got %d", cfg.Pool.BankBytes)
	}
	r, err := newRun(net, cfg, feat, nil, nil)
	if err != nil {
		return stats.RunStats{}, err
	}
	r.e.fn = &funcState{
		seed:    seed,
		golden:  make(map[int][]float32),
		spilled: make(map[int]spilledCopy),
	}
	r.e.run.Strategy += "+functional"
	return r.complete(context.Background())
}

// spilledCopy is the "DRAM image" of a feature map: the element range
// [offset, offset+len(data)) of the golden tensor.
type spilledCopy struct {
	offset int
	data   []float32
}

// funcState carries the golden tensors and the simulated DRAM contents.
type funcState struct {
	seed    int64
	golden  map[int][]float32
	spilled map[int]spilledCopy
}

func layerSeed(base int64, netName, layerName string) int64 {
	h := fnv.New64a()
	h.Write([]byte(netName))
	h.Write([]byte{'/'})
	h.Write([]byte(layerName))
	return base ^ int64(h.Sum64())
}

// produceInput materializes the golden input image; it lives in DRAM.
func (f *funcState) produceInput(e *executor, l *nn.Layer) {
	img := tensorops.RandomTensor(f.seed, l.Out.Elems())
	f.golden[l.Index] = img
	f.spilled[l.Index] = spilledCopy{offset: 0, data: img}
}

// computeGolden evaluates one layer on the golden inputs.
func (f *funcState) computeGolden(e *executor, l *nn.Layer) error {
	gather := func(name string) []float32 { return f.golden[e.net.Layer(name).Index] }
	var (
		out []float32
		err error
	)
	switch l.Kind {
	case nn.OpConv:
		g := l.NumGroups()
		w := tensorops.RandomTensor(layerSeed(f.seed, e.net.Name, l.Name), l.OutC*l.In[0].C/g*l.K*l.K)
		out, _, err = tensorops.GroupedConv2D(gather(l.Inputs[0]), l.In[0], w, l.OutC, l.K, l.Stride, l.Pad, g)
	case nn.OpPool:
		if l.Pool == nn.MaxPool {
			out, _, err = tensorops.MaxPool(gather(l.Inputs[0]), l.In[0], l.K, l.Stride, l.Pad)
		} else {
			out, _, err = tensorops.AvgPool(gather(l.Inputs[0]), l.In[0], l.K, l.Stride, l.Pad)
		}
	case nn.OpGlobalPool:
		out, _, err = tensorops.GlobalAvgPool(gather(l.Inputs[0]), l.In[0])
	case nn.OpFC:
		w := tensorops.RandomTensor(layerSeed(f.seed, e.net.Name, l.Name), l.OutC*l.In[0].Elems())
		out, _, err = tensorops.FC(gather(l.Inputs[0]), w, l.OutC)
	case nn.OpEltwiseAdd:
		ops := make([][]float32, len(l.Inputs))
		for i, in := range l.Inputs {
			ops[i] = gather(in)
		}
		out, err = tensorops.Add(ops...)
	case nn.OpConcat:
		ops := make([][]float32, len(l.Inputs))
		for i, in := range l.Inputs {
			ops[i] = gather(in)
		}
		out = tensorops.Concat(ops...)
	case nn.OpShuffle:
		out, err = tensorops.ChannelShuffle(gather(l.Inputs[0]), l.In[0], l.NumGroups())
	default:
		return fmt.Errorf("functional: unsupported op %v", l.Kind)
	}
	if err != nil {
		return err
	}
	if len(out) != l.Out.Elems() {
		return fmt.Errorf("functional: %s produced %d elems, shape says %d", l.Name, len(out), l.Out.Elems())
	}
	f.golden[l.Index] = out
	return nil
}

// verifyInputs reconstructs every operand from its on-chip payload and
// spilled suffix and compares against the golden tensor.
func (f *funcState) verifyInputs(e *executor, l *nn.Layer, distinct []int32) error {
	for _, q := range distinct {
		p := int(q)
		r := &e.residents[p]
		if !r.live {
			return fmt.Errorf("functional: %s reads unproduced fmap %d", l.Name, p)
		}
		g := f.golden[p]
		total := len(g)
		onChipElems := int(r.onChip / 4)
		if onChipElems > 0 {
			if r.buf == nil {
				return fmt.Errorf("functional: %s: fmap %d claims %d on-chip elems with no buffer", l.Name, p, onChipElems)
			}
			payload, ok := r.buf.Payload.([]float32)
			if !ok {
				return fmt.Errorf("functional: %s: fmap %d payload lost (got %T)", l.Name, p, r.buf.Payload)
			}
			if len(payload) != onChipElems {
				return fmt.Errorf("functional: %s: fmap %d payload %d elems, bookkeeping says %d",
					l.Name, p, len(payload), onChipElems)
			}
			for i := 0; i < onChipElems; i++ {
				if payload[i] != g[i] {
					return fmt.Errorf("functional: %s: fmap %d on-chip elem %d = %g, golden %g",
						l.Name, p, i, payload[i], g[i])
				}
			}
		}
		if onChipElems < total {
			sc, ok := f.spilled[p]
			if !ok {
				return fmt.Errorf("functional: %s: fmap %d misses %d spilled elems with no DRAM copy",
					l.Name, p, total-onChipElems)
			}
			if sc.offset > onChipElems || sc.offset+len(sc.data) < total {
				return fmt.Errorf("functional: %s: fmap %d DRAM copy [%d,%d) does not cover suffix [%d,%d)",
					l.Name, p, sc.offset, sc.offset+len(sc.data), onChipElems, total)
			}
			for i := onChipElems; i < total; i++ {
				if sc.data[i-sc.offset] != g[i] {
					return fmt.Errorf("functional: %s: fmap %d spilled elem %d = %g, golden %g",
						l.Name, p, i, sc.data[i-sc.offset], g[i])
				}
			}
		}
	}
	return nil
}

// evict mirrors an eviction in the functional state: the payload
// shrinks to the new prefix and the DRAM copy is extended to cover the
// grown suffix.
func (f *funcState) evict(e *executor, p int, r *resident) {
	g := f.golden[p]
	onElems := int(r.onChip / 4)
	if r.buf != nil {
		r.buf.Payload = g[:onElems]
	}
	if existing, ok := f.spilled[p]; !ok || existing.offset > onElems {
		f.spilled[p] = spilledCopy{offset: onElems, data: g[onElems:]}
	}
}

// placeOutput attaches the retained prefix to the output buffer and
// records the DRAM copy exactly as the scheduler's byte accounting
// says it happened.
func (f *funcState) placeOutput(e *executor, l *nn.Layer, out *resident, fullCopy bool) {
	g := f.golden[l.Index]
	if out.buf != nil {
		out.buf.Payload = g[:out.onChip/4]
	}
	switch {
	case fullCopy || out.buf == nil:
		f.spilled[l.Index] = spilledCopy{offset: 0, data: g}
	case out.onChip < out.total:
		off := int(out.onChip / 4)
		f.spilled[l.Index] = spilledCopy{offset: off, data: g[off:]}
	}
}
