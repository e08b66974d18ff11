// Package fused models the fused-layer CNN accelerator family (Alwani
// et al., MICRO 2016) as a comparator: consecutive layers execute as
// one pipeline over sliding line buffers, so intermediate feature maps
// inside a fusion group never touch DRAM — without requiring whole
// feature maps to fit on chip. Its structural weakness, which the
// Shortcut Mining paper targets, is that a shortcut operand crossing a
// fusion group has nowhere to live: it must round-trip through DRAM,
// and producers with multiple consumers terminate groups.
//
// The model is traffic-exact under its stated policy and
// cycle-approximate like the core schedulers. It runs on their
// platform description (core.Config), their PE and DRAM models and
// their channel timing rule, so comparisons are apples-to-apples
// (experiment E17).
package fused

import (
	"fmt"
	"slices"

	"shortcutmining/internal/core"
	"shortcutmining/internal/dram"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
	"shortcutmining/internal/tensor"
)

// Group is one fusion group: a maximal run of pipelineable layers.
type Group struct {
	Layers []int // layer indices, in execution order
	// WorkingSetBytes is the line-buffer footprint the group needs.
	WorkingSetBytes int64
}

// Result is the outcome of a fused-layer run.
type Result struct {
	Groups []Group
	Run    stats.RunStats
}

// fusable reports whether a layer can live inside a pipeline group.
func fusable(l *nn.Layer) bool {
	switch l.Kind {
	case nn.OpConv, nn.OpPool, nn.OpEltwiseAdd:
		return true
	}
	return false
}

// window returns the input rows layer l needs live per output row.
func window(l *nn.Layer) int {
	switch l.Kind {
	case nn.OpConv, nn.OpPool:
		return l.K + l.Stride
	default:
		return 1
	}
}

// lineBufferBytes is the sliding-window footprint of holding `rows`
// rows of the given feature map.
func lineBufferBytes(s tensor.Shape, rows int, d tensor.DataType) int64 {
	if rows > s.H {
		rows = s.H
	}
	return int64(rows) * int64(s.W) * int64(s.C) * int64(d.Bytes())
}

// workingSet computes the arena footprint of fusing layers[a..b]
// (indices into net.Layers): the head's input window plus, for each
// internal edge, the producer's output window sized by the consumer's
// kernel.
func workingSet(net *nn.Network, members []int, d tensor.DataType) int64 {
	head := net.Layers[members[0]]
	ws := lineBufferBytes(head.In[0], window(head), d)
	for i := 0; i < len(members)-1; i++ {
		prod := net.Layers[members[i]]
		cons := net.Layers[members[i+1]]
		ws += lineBufferBytes(prod.Out, window(cons), d)
	}
	// The tail streams its output through a double row buffer.
	tail := net.Layers[members[len(members)-1]]
	ws += lineBufferBytes(tail.Out, 2, d)
	return ws
}

// Simulate executes the network under the fused-layer policy on the
// platform the core schedulers run on, with the bank pool
// re-interpreted as one line-buffer arena, and returns the fusion plan
// plus run statistics comparable with core.Simulate results. The model
// covers one image, uncompressed and fault-free: a config with a batch
// other than 1, a codec or a fault plan is refused rather than
// modeled as a different platform.
func Simulate(net *nn.Network, cfg core.Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	switch {
	case cfg.Batch != 1:
		return Result{}, fmt.Errorf("fused: batch %d: the model covers one image", cfg.Batch)
	case cfg.Compression != nil:
		return Result{}, fmt.Errorf("fused: codec %s: the model moves uncompressed feature maps", cfg.Compression)
	case !cfg.Faults.Empty():
		return Result{}, fmt.Errorf("fused: fault plan %s: the model is fault-free", cfg.Faults)
	}
	plan, err := net.Plan()
	if err != nil {
		return Result{}, fmt.Errorf("fused: %w", err)
	}
	ch, err := dram.NewChannel(cfg.DRAM)
	if err != nil {
		return Result{}, err
	}
	arena := cfg.Pool.TotalBytes()
	res := Result{Run: stats.RunStats{
		Network:  net.Name,
		Strategy: "fused-layer",
		Batch:    1,
		ClockMHz: cfg.PE.ClockMHz,
	}}

	// Greedy grouping over execution order.
	var current []int
	flush := func() {
		if len(current) == 0 {
			return
		}
		g := Group{Layers: current, WorkingSetBytes: workingSet(net, current, cfg.DType)}
		execGroup(net, &cfg, ch, &res.Run, g)
		res.Groups = append(res.Groups, g)
		current = nil
	}
	for _, l := range net.Layers {
		if l.Kind == nn.OpInput {
			res.Run.Layers = append(res.Run.Layers, stats.LayerStats{Name: l.Name, Kind: l.Kind.String(), Stage: l.Stage})
			continue
		}
		if l.Kind == nn.OpConcat {
			// Layout-only, as in the other schedulers; it also breaks
			// the pipeline (multiple producers).
			flush()
			res.Run.Layers = append(res.Run.Layers, stats.LayerStats{Name: l.Name, Kind: l.Kind.String(), Stage: l.Stage})
			continue
		}
		// Can l extend the current group? Its primary input must be
		// the current tail, the tail must have no other consumers, and
		// the grown working set must fit.
		extendable := fusable(l) && len(current) > 0
		if extendable {
			tail := current[len(current)-1]
			primary := net.Layer(l.Inputs[len(l.Inputs)-1])
			if primary.Index != tail || plan.Consumers(tail) != 1 {
				extendable = false
			} else if workingSet(net, append(append([]int(nil), current...), l.Index), cfg.DType) > arena {
				extendable = false
			}
		}
		if extendable {
			current = append(current, l.Index)
			continue
		}
		flush()
		current = []int{l.Index}
		if !fusable(l) { // FC / global pool run standalone
			flush()
		}
	}
	flush()

	res.Run.Traffic = ch.Traffic() // scmvet:ok accounting aggregation of the channel's tally into RunStats
	res.Run.MACs = net.TotalMACs()
	for _, ls := range res.Run.Layers {
		res.Run.ComputeCycles += ls.ComputeCycles
		res.Run.MemCycles += ls.MemCycles
		res.Run.TotalCycles += ls.Cycles
		res.Run.SRAMBytes += ls.SRAMBytes
	}
	return res, nil
}

// execGroup charges one fusion group's traffic and timing. The group
// reads its head input once (line-buffered single pass), streams every
// member's weights, reads shortcut operands of internal adds from
// DRAM, and writes only the tail output.
func execGroup(net *nn.Network, cfg *core.Config, ch *dram.Channel, run *stats.RunStats, g Group) {
	d := cfg.DType
	before := ch.Traffic()

	head := net.Layers[g.Layers[0]]
	tail := net.Layers[g.Layers[len(g.Layers)-1]]

	var compute int64
	var sram int64
	for gi, idx := range g.Layers {
		l := net.Layers[idx]
		compute += cfg.PE.LayerCycles(l)
		sram += 2 * l.Out.Bytes(d)
		ch.Transfer(dram.ClassWeightRead, l.WeightBytes(d))
		// Non-primary operands of adds come from DRAM: the pipeline
		// has no home for data produced outside the current group.
		if l.Kind == nn.OpEltwiseAdd {
			for _, in := range l.Inputs[:len(l.Inputs)-1] {
				p := net.Layer(in)
				if !slices.Contains(g.Layers[:gi], p.Index) {
					ch.Transfer(dram.ClassShortcutRead, p.Out.Bytes(d))
				}
			}
		}
	}
	// Head primary input (by convention the last-listed input): one
	// line-buffered pass. A concat producer's bytes equal the sum of
	// its parts, so the address-layout view needs no special casing.
	primary := net.Layer(head.Inputs[len(head.Inputs)-1])
	ch.Transfer(dram.ClassIFMRead, primary.Out.Bytes(d))
	ch.Transfer(dram.ClassOFMWrite, tail.Out.Bytes(d))

	delta := ch.Traffic()
	for c := range delta {
		delta[c] -= before[c]
	}
	mem := cfg.MemCycles(ch, delta, 1)
	cycles := max(compute, mem) + cfg.ControlCycles

	// Attribute the group's outcome to its tail layer for reporting;
	// internal members appear with zero traffic (they are fused away).
	for _, idx := range g.Layers[:len(g.Layers)-1] {
		l := net.Layers[idx]
		run.Layers = append(run.Layers, stats.LayerStats{Name: l.Name, Kind: l.Kind.String(), Stage: l.Stage})
	}
	run.Layers = append(run.Layers, stats.LayerStats{
		Name: tail.Name, Kind: tail.Kind.String(), Stage: tail.Stage,
		ComputeCycles: compute, MemCycles: mem, Cycles: cycles,
		Traffic: delta, SRAMBytes: sram,
	})
}
