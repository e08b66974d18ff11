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
// cycle-approximate like the core schedulers, sharing the PE and DRAM
// models so comparisons are apples-to-apples (experiment E17).
package fused

import (
	"fmt"

	"shortcutmining/internal/compress"
	"shortcutmining/internal/dram"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/pe"
	"shortcutmining/internal/stats"
	"shortcutmining/internal/tensor"
)

// Config is the fused-layer platform: the same PE array and channels
// as the core schedulers, with the bank pool re-interpreted as one
// line-buffer arena.
type Config struct {
	PE                  pe.Config
	DRAM                dram.Config
	BufferBytes         int64 // on-chip line-buffer arena (= the pool capacity)
	WeightBufBytes      int64
	WeightBandwidthGBps float64
	DType               tensor.DataType
	ControlCycles       int64

	// Compression is the optional interlayer feature-map codec at the
	// DRAM boundary, identical in semantics to core.Config.Compression:
	// group boundary traffic (head input, tail output, cross-group
	// shortcut reads) moves compressed; weights never do. Intra-group
	// edges never touch DRAM, so fusion and compression compose — the
	// codec only sees what fusion failed to keep on chip.
	Compression *compress.Config
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.PE.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if c.BufferBytes <= 0 || c.WeightBufBytes <= 0 {
		return fmt.Errorf("fused: buffers must be positive")
	}
	if err := c.Compression.Validate(); err != nil {
		return err
	}
	return nil
}

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

// Simulate executes the network under the fused-layer policy and
// returns the fusion plan plus run statistics comparable with
// core.Simulate results.
func Simulate(net *nn.Network, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if _, err := net.Plan(); err != nil {
		return Result{}, fmt.Errorf("fused: %w", err)
	}
	ch, err := dram.NewChannel(cfg.DRAM)
	if err != nil {
		return Result{}, err
	}
	var tally codecTally
	if cfg.Compression != nil {
		ch.SetCompressor(cfg.Compression)
	}
	res := Result{Run: stats.RunStats{
		Network:  net.Name,
		Strategy: "fused-layer",
		Batch:    1,
		ClockMHz: cfg.PE.ClockMHz,
	}}

	// Greedy grouping over execution order.
	var current []int
	flush := func() error {
		if len(current) == 0 {
			return nil
		}
		g := Group{Layers: current, WorkingSetBytes: workingSet(net, current, cfg.DType)}
		if err := execGroup(net, cfg, ch, &res.Run, g, &tally); err != nil {
			return err
		}
		res.Groups = append(res.Groups, g)
		current = nil
		return nil
	}
	for _, l := range net.Layers {
		if l.Kind == nn.OpInput {
			res.Run.Layers = append(res.Run.Layers, stats.LayerStats{Name: l.Name, Kind: l.Kind.String(), Stage: l.Stage})
			continue
		}
		if l.Kind == nn.OpConcat {
			// Layout-only, as in the other schedulers; it also breaks
			// the pipeline (multiple producers).
			if err := flush(); err != nil {
				return Result{}, err
			}
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
			if primary.Index != tail || len(net.Consumers(tail)) != 1 {
				extendable = false
			} else if workingSet(net, append(append([]int(nil), current...), l.Index), cfg.DType) > cfg.BufferBytes {
				extendable = false
			}
		}
		if extendable {
			current = append(current, l.Index)
			continue
		}
		if err := flush(); err != nil {
			return Result{}, err
		}
		current = []int{l.Index}
		if !fusable(l) { // FC / global pool run standalone
			if err := flush(); err != nil {
				return Result{}, err
			}
		}
	}
	if err := flush(); err != nil {
		return Result{}, err
	}

	res.Run.Traffic = ch.Traffic() // scmvet:ok accounting aggregation of the channel's tally into RunStats
	res.Run.MACs = net.TotalMACs()
	for _, ls := range res.Run.Layers {
		res.Run.ComputeCycles += ls.ComputeCycles
		res.Run.MemCycles += ls.MemCycles
		res.Run.TotalCycles += ls.Cycles
		res.Run.SRAMBytes += ls.SRAMBytes
	}
	if cfg.Compression != nil {
		cs := &stats.CompressionStats{
			Codec:        cfg.Compression.String(),
			Logical:      ch.LogicalTraffic(),
			Wire:         ch.RawTraffic(),
			EncodeCycles: tally.enc,
			DecodeCycles: tally.dec,
		}
		cs.SavedBytes = cs.Logical.Total() - cs.Wire.Total()
		res.Run.Compression = cs
	}
	return res, nil
}

// codecTally accumulates codec engine time across fusion groups.
type codecTally struct{ enc, dec int64 }

// execGroup charges one fusion group's traffic and timing. The group
// reads its head input once (line-buffered single pass), streams every
// member's weights, reads shortcut operands of internal adds from
// DRAM, and writes only the tail output.
func execGroup(net *nn.Network, cfg Config, ch *dram.Channel, run *stats.RunStats, g Group, tally *codecTally) error {
	d := cfg.DType
	before := ch.Traffic()

	// xfer charges one DMA transfer and, under compression, the codec
	// engine time of (de)compressing its logical payload.
	var codec int64
	xfer := func(c dram.Class, bytes int64) {
		ch.Transfer(c, bytes)
		if cfg.Compression != nil {
			enc, dec := cfg.Compression.CodecCycles(c, bytes)
			tally.enc += enc
			tally.dec += dec
			codec += enc + dec
		}
	}

	head := net.Layers[g.Layers[0]]
	tail := net.Layers[g.Layers[len(g.Layers)-1]]

	var compute int64
	var sram int64
	for gi, idx := range g.Layers {
		l := net.Layers[idx]
		compute += cfg.PE.LayerCycles(l)
		sram += 2 * l.Out.Bytes(d)
		xfer(dram.ClassWeightRead, l.WeightBytes(d))
		// Non-primary operands of adds come from DRAM: the pipeline
		// has no home for data produced outside the current group.
		if l.Kind == nn.OpEltwiseAdd {
			for _, in := range l.Inputs[:len(l.Inputs)-1] {
				p := net.Layer(in)
				inGroup := false
				for _, m := range g.Layers[:gi] {
					if m == p.Index {
						inGroup = true
					}
				}
				if !inGroup {
					xfer(dram.ClassShortcutRead, expandBytes(net, p, d))
				}
			}
		}
	}
	// Head primary input (by convention the last-listed input): one
	// line-buffered pass. A concat producer's bytes equal the sum of
	// its parts, so the address-layout view needs no special casing.
	primary := net.Layer(head.Inputs[len(head.Inputs)-1])
	xfer(dram.ClassIFMRead, expandBytes(net, primary, d))
	xfer(dram.ClassOFMWrite, tail.Out.Bytes(d))

	delta := ch.Traffic()
	for c := range delta {
		delta[c] -= before[c]
	}
	mem := memCycles(cfg, ch, delta)
	cycles := compute
	if mem > cycles {
		cycles = mem
	}
	cycles += cfg.ControlCycles + codec

	// Attribute the group's outcome to its tail layer for reporting;
	// internal members appear with zero traffic (they are fused away).
	for _, idx := range g.Layers[:len(g.Layers)-1] {
		l := net.Layers[idx]
		run.Layers = append(run.Layers, stats.LayerStats{Name: l.Name, Kind: l.Kind.String(), Stage: l.Stage})
	}
	run.Layers = append(run.Layers, stats.LayerStats{
		Name: tail.Name, Kind: tail.Kind.String(), Stage: tail.Stage,
		ComputeCycles: compute, MemCycles: mem, Cycles: cycles, CodecCycles: codec,
		Traffic: delta, SRAMBytes: sram,
	})
	return nil
}

// expandBytes returns the byte size of a producer's feature map,
// expanding concat pseudo-producers to their parts.
func expandBytes(net *nn.Network, p *nn.Layer, d tensor.DataType) int64 {
	return p.Out.Bytes(d)
}

func memCycles(cfg Config, ch *dram.Channel, delta dram.Traffic) int64 {
	clock := cfg.PE.ClockMHz
	if cfg.WeightBandwidthGBps <= 0 {
		return ch.CyclesAt(delta.Total(), clock)
	}
	fm := ch.CyclesAt(delta.FeatureMap(), clock)
	perCycle := cfg.WeightBandwidthGBps * 1e9 / (clock * 1e6)
	w := int64(float64(delta[dram.ClassWeightRead])/perCycle + 0.999999)
	if w > fm {
		return w
	}
	return fm
}
