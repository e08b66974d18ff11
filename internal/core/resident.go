package core

import (
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sram"
)

// resident tracks where one produced feature map currently lives: the
// on-chip portion (a logical buffer in the bank pool) and the spilled
// portion (bytes in DRAM). The baseline keeps everything spilled; full
// Shortcut Mining keeps everything on chip when capacity allows.
type resident struct {
	producer int
	total    int64
	buf      *sram.Buffer // nil when nothing is on chip
	onChip   int64
	spilled  int64 // bytes available in DRAM (capacity spills or full copies)

	consumersLeft int
	lastUse       int
}

// dramBytes is the portion a consumer must fetch from DRAM.
func (r *resident) dramBytes() int64 { return r.total - r.onChip }

// dropBuffer detaches and frees the on-chip portion (used when a
// design point without retention releases a feature map whose data is
// already fully in DRAM).
func (r *resident) dropBuffer(pool *sram.Pool) error {
	if r.buf == nil {
		return nil
	}
	if r.buf.Pinned() {
		if err := pool.Unpin(r.buf); err != nil {
			return err
		}
	}
	if !r.buf.Freed() {
		if err := pool.Free(r.buf); err != nil {
			return err
		}
	}
	r.buf = nil
	r.onChip = 0
	return nil
}

// consumptionPlan precomputes, per physical layer, which feature maps
// it actually reads. Concat layers are transparent: consuming a concat
// consumes its (recursively expanded) sources, so concatenation is
// pure bank layout and DenseNet-style multi-consumer fan-out works
// without aliasing buffers.
type consumptionPlan struct {
	// sources[i] lists the physical producer indices layer i reads
	// (duplicates preserved: reading the same fmap twice costs twice).
	sources [][]int
	// distinct[i] is sources[i] without duplicates, in first-appearance
	// order.
	distinct [][]int
	// consumers[p] is the number of distinct physical layers reading
	// p's feature map.
	consumers []int
	// lastUse[p] is the index of the last physical reader (p itself
	// when unread).
	lastUse []int
}

func buildConsumptionPlan(net *nn.Network) consumptionPlan {
	n := len(net.Layers)
	cp := consumptionPlan{
		sources:   make([][]int, n),
		distinct:  make([][]int, n),
		consumers: make([]int, n),
		lastUse:   make([]int, n),
	}
	for i := range cp.lastUse {
		cp.lastUse[i] = i
	}

	// expand resolves a producer to physical sources through concats.
	var expand func(p *nn.Layer) []int
	memo := make(map[int][]int)
	expand = func(p *nn.Layer) []int {
		if p.Kind != nn.OpConcat {
			return []int{p.Index}
		}
		if got, ok := memo[p.Index]; ok {
			return got
		}
		var out []int
		for _, in := range p.Inputs {
			out = append(out, expand(net.Layer(in))...)
		}
		memo[p.Index] = out
		return out
	}

	for _, l := range net.Layers {
		if l.Kind == nn.OpInput || l.Kind == nn.OpConcat {
			continue
		}
		var srcs []int
		for _, in := range l.Inputs {
			srcs = append(srcs, expand(net.Layer(in))...)
		}
		cp.sources[l.Index] = srcs
		cp.distinct[l.Index] = uniqueInts(srcs)
		for _, p := range cp.distinct[l.Index] {
			cp.consumers[p]++
			if l.Index > cp.lastUse[p] {
				cp.lastUse[p] = l.Index
			}
		}
	}
	return cp
}

// uniqueInts returns the distinct values of s in first-appearance
// order (source lists are tiny, so the quadratic scan is fine).
func uniqueInts(s []int) []int {
	var out []int
	for _, v := range s {
		seen := false
		for _, u := range out {
			if u == v {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, v)
		}
	}
	return out
}
