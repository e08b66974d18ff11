package core

import (
	"context"
	"fmt"

	"shortcutmining/internal/compress"
	"shortcutmining/internal/dram"
	"shortcutmining/internal/fault"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sram"
	"shortcutmining/internal/stats"
	"shortcutmining/internal/tiling"
	"shortcutmining/internal/trace"
)

// Simulate executes the network on the platform under the canonical
// feature set of the strategy and returns the run statistics. rec may
// be nil when no trace is wanted.
func Simulate(net *nn.Network, cfg Config, strat Strategy, rec trace.Recorder) (stats.RunStats, error) {
	return SimulateContext(context.Background(), net, cfg, strat, rec)
}

// SimulateContext is Simulate with cancellation: the run checks ctx at
// every layer boundary (the same cadence as the liveness watchdog) and
// returns ctx.Err() — wrapped, so errors.Is sees context.Canceled or
// DeadlineExceeded — as soon as the current layer completes. The
// serving subsystem uses it for job timeouts and graceful drain.
func SimulateContext(ctx context.Context, net *nn.Network, cfg Config, strat Strategy, rec trace.Recorder) (stats.RunStats, error) {
	return SimulateObservedContext(ctx, net, cfg, strat, rec, nil)
}

// SimulateObservedContext is SimulateContext with the metrics registry
// attached: the run additionally populates reg with per-layer cycle
// attribution, per-class DRAM counters and burst/utilization
// histograms, pool high-water marks, and procedure hit/miss counters,
// and embeds a snapshot in RunStats.Metrics. reg may be nil (no
// observation).
func SimulateObservedContext(ctx context.Context, net *nn.Network, cfg Config, strat Strategy, rec trace.Recorder, reg *metrics.Registry) (stats.RunStats, error) {
	r, err := NewRun(net, cfg, strat, rec, reg)
	if err != nil {
		return stats.RunStats{}, err
	}
	return r.complete(ctx)
}

// SimulateFeatures executes the network with an explicit feature set —
// the ablation entry point (experiment E8). The canonical strategies
// are Simulate's Baseline/FMReuse/SCM.
func SimulateFeatures(net *nn.Network, cfg Config, feat Features, rec trace.Recorder) (stats.RunStats, error) {
	r, err := newRun(net, cfg, feat, rec, nil)
	if err != nil {
		return stats.RunStats{}, err
	}
	return r.complete(context.Background())
}

// featureLabel names a feature set for reports: the canonical
// strategy's name when it is one, otherwise the procedures it enables.
func featureLabel(f Features) string {
	for _, st := range Strategies() {
		if f == st.Features() {
			return st.String()
		}
	}
	s := "custom["
	if f.RoleSwitch {
		s += "P2"
	}
	if f.ShortcutRetention {
		s += "+P3"
	}
	if f.IncrementalRecycle {
		s += "+P4"
	}
	if f.PartialRetention {
		s += "+P5"
	}
	if f.StreamingRecycle {
		s += "+SR"
	}
	return s + "]"
}

type executor struct {
	net  *nn.Network
	cfg  Config
	feat Features
	pool *sram.Pool
	ch   *dram.Channel
	rec  *trace.Stamper // nil when tracing is off
	obs  *observer      // nil when metrics are off
	cp   *nn.Plan
	fn   *funcState // non-nil in functional-verification mode

	// clock is the simulated cycle at which the current layer starts
	// (the cumulative attributed cycles of everything before it);
	// memCursor tracks DMA-span placement within and across layers.
	// Both feed the cycle stamps of trace events.
	clock     int64
	memCursor int64

	// Fault-injection state: the injector replaying Config.Faults, the
	// watchdog bounds, the accumulated fault statistics, the current
	// layer name for error classification, and the fault cycles accrued
	// since the last layer closed (scrubs, migrations, retries —
	// charged to the next layer's cycle count).
	inj              *fault.Injector
	wd               fault.Watchdog
	flt              stats.FaultStats
	curLayer         string
	layerFaultCycles int64

	// Interlayer-compression state: the codec (nil when off), the
	// run-wide encode/decode engine cycle tallies, and the codec cycles
	// accrued since the last layer closed (serialized into that layer's
	// cycle count, like layerFaultCycles).
	comp             *compress.Config
	encCycles        int64
	decCycles        int64
	layerCodecCycles int64

	residents []resident   // one per layer, indexed by producer
	recycle   []recyclable // recyclables' scratch
	run       stats.RunStats

	// platform caches platformHash(cfg) for Snapshot, so a run's chain
	// of snapshots hashes its platform once; "" until first needed.
	platform string
}

// newExecutor builds the platform half of an executor (pool, channel,
// no trace); callers fill in the network, features, and plan.
func newExecutor(cfg Config) (*executor, error) {
	pool, err := sram.NewPool(cfg.Pool)
	if err != nil {
		return nil, err
	}
	ch, err := dram.NewChannel(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	e := &executor{cfg: cfg, pool: pool, ch: ch}
	if cfg.Compression != nil {
		e.comp = cfg.Compression
		ch.SetCompressor(cfg.Compression)
	}
	if !cfg.Faults.Empty() {
		e.inj = fault.NewInjector(cfg.Faults)
	}
	e.wd = fault.Watchdog{MaxDMAAttempts: cfg.DMAMaxAttempts, MaxLayerCycles: cfg.WatchdogLayerCycles}
	return e, nil
}

func (e *executor) bankBytes() int64 { return int64(e.cfg.Pool.BankBytes) }

// planBudget derives the buffer capacity the tiling planner may
// assume. The baseline's physical buffers are a static four-way split
// of the same SRAM (input/output × ping/pong) — the inflexibility the
// logical-buffer abstraction removes. Under role switching, the
// resident input serves as the input buffer and the free pool backs
// the streaming buffers.
func (e *executor) planBudget(l *nn.Layer) tiling.Budget {
	if !e.feat.RoleSwitch {
		q := e.cfg.Pool.TotalBytes() / 4
		return tiling.Budget{IBuf: q, OBuf: q, WBuf: e.cfg.WeightBufBytes}
	}
	free := e.pool.FreeBytes()
	var inOnChip int64
	for _, p := range e.cp.Distinct(l.Index) {
		inOnChip += e.residents[p].onChip
	}
	return tiling.Budget{IBuf: inOnChip + free, OBuf: free, WBuf: e.cfg.WeightBufBytes}
}

// readClass labels a DRAM read feeding layer l from producer p.
func (e *executor) readClass(p int, l *nn.Layer) dram.Class {
	switch {
	case p == 0:
		return dram.ClassIFMRead // the input image lives in DRAM
	case l.Index-p > 1:
		return dram.ClassShortcutRead
	case e.feat.RoleSwitch:
		return dram.ClassSpillRead // would have been reused; capacity spill
	default:
		return dram.ClassIFMRead
	}
}

// recyclable is an operand buffer whose consumed prefix can be
// released into the current layer's output, keeping `keep` banks as a
// live margin (zero for element-wise streams, a sliding window for
// conv/pool under the StreamingRecycle extension).
type recyclable struct {
	buf  *sram.Buffer
	keep int
}

// recyclables returns the operand buffers the layer may consume
// bank-by-bank while producing its output. For an element-wise add
// this is procedure P4 proper: every operand making its final pass,
// released to zero. Under the StreamingRecycle extension a windowed
// layer may do the same with its input, provided the tiling makes a
// single monotone pass (no output-channel grouping, which would
// re-stream the input) and a window-sized margin survives.
//
// The returned slice is the executor's scratch, valid until the next
// call.
func (e *executor) recyclables(l *nn.Layer, distinct []int32, plan tiling.Plan) []recyclable {
	finalPass := func(p int32) *resident {
		r := &e.residents[p]
		if r.consumersLeft == 1 && r.buf != nil && !r.buf.Freed() && !r.buf.Pinned() {
			return r
		}
		return nil
	}
	out := e.recycle[:0]
	switch {
	case l.Kind == nn.OpEltwiseAdd && e.feat.IncrementalRecycle:
		for _, p := range distinct {
			if r := finalPass(p); r != nil {
				out = append(out, recyclable{buf: r.buf})
			}
		}
	case (l.Kind == nn.OpConv || l.Kind == nn.OpPool) && e.feat.StreamingRecycle:
		if plan.OutGroups != 1 || plan.InGroups != 1 {
			return nil
		}
		for _, p := range distinct {
			r := finalPass(p)
			if r == nil {
				continue
			}
			// Sliding-window margin: k+stride input rows.
			in := l.In[0]
			marginBytes := int64(l.K+l.Stride) * int64(in.W) * int64(in.C) * int64(e.cfg.DType.Bytes())
			keep := int((marginBytes + e.bankBytes() - 1) / e.bankBytes())
			if keep < 1 {
				keep = 1
			}
			if r.buf.NumBanks() > keep {
				out = append(out, recyclable{buf: r.buf, keep: keep})
			}
		}
	}
	e.recycle = out
	return out
}

// nextUseAfter returns the index of the first layer after i that reads
// producer p's feature map, or a sentinel past the network when none
// does.
func (e *executor) nextUseAfter(p, i int) int {
	for j := i + 1; j < len(e.net.Layers); j++ {
		for _, s := range e.cp.Sources(j) {
			if int(s) == p {
				return j
			}
		}
	}
	return len(e.net.Layers) + 1
}

// evictOneBank implements the EvictFarthest policy: spill one tail
// bank of the pinned feature map whose next use is farthest in the
// future, provided it is farther than the output's own next use
// (otherwise eviction would be a strict loss). Inputs of the current
// layer are untouchable — they are being read right now.
func (e *executor) evictOneBank(l *nn.Layer, distinct []int32, outNext int) (bool, error) {
	best, bestNext := -1, outNext
	for p := range e.residents {
		r := &e.residents[p]
		if r.buf == nil || r.buf.Freed() || !r.buf.Pinned() {
			continue
		}
		current := false
		for _, d := range distinct {
			if int(d) == p {
				current = true
				break
			}
		}
		if current {
			continue
		}
		if nu := e.nextUseAfter(p, l.Index); nu > bestNext {
			best, bestNext = p, nu
		}
	}
	if best < 0 {
		return false, nil
	}
	r := &e.residents[best]
	if err := e.pool.Unpin(r.buf); err != nil {
		return false, err
	}
	if err := e.pool.ReleaseTailBanks(r.buf, 1); err != nil {
		return false, err
	}
	newOnChip := r.onChip
	if r.buf.Freed() {
		newOnChip = 0
	} else if c := r.buf.CapacityBytes(); newOnChip > c {
		newOnChip = c
	}
	if delta := r.onChip - newOnChip; delta > 0 {
		_, start, dur, err := e.transferSpan(dram.ClassSpillWrite, delta)
		if err != nil {
			return false, err
		}
		e.recordSpan(trace.Event{Kind: trace.KindSpill, Layer: l.Name, Class: dram.ClassSpillWrite.String(),
			Tag: e.net.Layers[best].Name, Bytes: delta, Note: "evict-farthest"}, start, dur)
	}
	r.onChip = newOnChip
	if r.buf.Freed() {
		r.buf = nil
	} else if err := e.pool.Pin(r.buf); err != nil {
		return false, err
	}
	if e.fn != nil {
		e.fn.evict(e, best, r)
	}
	return true, nil
}

// allocOutput forms the retained output buffer. It takes the free banks
// above the streaming reserve in one Alloc or Grow, then recycles
// consumed operand banks one at a time — and, under the EvictFarthest
// policy, spills colder pinned data — growing into each freed bank
// before freeing the next, which keeps the bank order of a per-bank
// loop. It returns the buffer (nil when nothing could be retained), the
// retained bytes, and the recycled bank count.
func (e *executor) allocOutput(l *nn.Layer, want int64, recycle []recyclable, distinct []int32) (*sram.Buffer, int64, int64, error) {
	if !e.feat.PartialRetention {
		capacity := e.pool.FreeBytes() - int64(e.cfg.ReserveBanks)*e.bankBytes()
		for _, rb := range recycle {
			capacity += rb.buf.CapacityBytes() - int64(rb.keep)*e.bankBytes()
		}
		if capacity < want {
			return nil, 0, 0, nil // all-or-nothing: retain nothing
		}
	}
	var (
		buf      *sram.Buffer
		got      int64
		recycled int64
	)
	for got < want {
		if avail := e.pool.FreeBanks() - e.cfg.ReserveBanks; avail > 0 {
			chunk := want - got
			if limit := int64(avail) * e.bankBytes(); chunk > limit {
				chunk = limit
			}
			if buf == nil {
				b, err := e.pool.Alloc(sram.RoleOutput, l.Name, chunk)
				if err != nil {
					return nil, 0, 0, err
				}
				buf = b
				got += chunk
			} else {
				added, err := e.pool.Grow(buf, chunk)
				if err != nil {
					return nil, 0, 0, err
				}
				if added == 0 {
					break
				}
				got += added
			}
			continue
		}
		released := false
		for _, rb := range recycle {
			if !rb.buf.Freed() && rb.buf.NumBanks() > rb.keep {
				if err := e.pool.ReleaseBanks(rb.buf, 1); err != nil {
					return nil, 0, 0, err
				}
				recycled++
				released = true
				break
			}
		}
		if !released && e.cfg.Eviction == EvictFarthest && e.feat.ShortcutRetention {
			var err error
			released, err = e.evictOneBank(l, distinct, e.nextUseAfter(l.Index, l.Index))
			if err != nil {
				return nil, 0, 0, err
			}
		}
		if !released {
			break
		}
	}
	if recycled > 0 {
		e.record(trace.Event{Kind: trace.KindRecycle, Layer: l.Name, Banks: int(recycled)})
	}
	if buf != nil {
		e.record(trace.Event{Kind: trace.KindAlloc, Layer: l.Name, Tag: l.Name,
			Role: sram.RoleOutput.String(), Banks: buf.NumBanks(), Bytes: got})
	}
	return buf, got, recycled, nil
}

// captureSpilled retains (a prefix of) producer p's feature map after
// it streamed through the current layer, when it still has consumers
// ahead and no on-chip home. Only leftover capacity beyond the
// streaming reserve is used.
func (e *executor) captureSpilled(l *nn.Layer, p int) error {
	r := &e.residents[p]
	// Capture only genuine fan-out (≥2 consumers ahead): holding banks
	// for a single far consumer is the retention-pressure gamble the
	// E15 policy study examines, not a clear win.
	if r.buf != nil || r.consumersLeft < 2 || r.onChip > 0 {
		return nil
	}
	budget := e.pool.FreeBytes() - int64(e.cfg.ReserveBanks)*e.bankBytes()
	want := r.total
	if !e.feat.PartialRetention && budget < want {
		return nil
	}
	if want > budget {
		want = budget
	}
	if want <= 0 {
		return nil
	}
	buf, err := e.pool.Alloc(sram.RoleRetained, e.net.Layers[p].Name, want)
	if err != nil {
		return err
	}
	r.buf = buf
	r.onChip = want
	if err := e.pool.Pin(buf); err != nil {
		return err
	}
	e.record(trace.Event{Kind: trace.KindPin, Layer: l.Name, Tag: buf.Tag(),
		Banks: buf.NumBanks(), Bytes: want, Note: "capture"})
	if e.fn != nil {
		g := e.fn.golden[p]
		buf.Payload = g[:want/4]
	}
	return nil
}

func (e *executor) execLayer(l *nn.Layer) error {
	e.record(trace.Event{Kind: trace.KindLayerStart, Layer: l.Name})
	e.curLayer = l.Name
	if e.memCursor < e.clock {
		e.memCursor = e.clock
	}
	if err := e.applyFaults(layerRef{index: l.Index, name: l.Name}); err != nil {
		return err
	}
	d := e.cfg.DType

	if l.Kind == nn.OpInput {
		total := l.Out.Bytes(d)
		e.residents[0] = resident{
			total: total, spilled: total, live: true,
			consumersLeft: int32(e.cp.Consumers(0)), lastUse: int32(e.cp.LastUse(0)),
		}
		if e.fn != nil {
			e.fn.produceInput(e, l)
		}
		e.run.Layers = append(e.run.Layers, stats.LayerStats{Name: l.Name, Kind: l.Kind.String(), Stage: l.Stage})
		e.record(trace.Event{Kind: trace.KindLayerEnd, Layer: l.Name})
		return nil
	}
	if l.Kind == nn.OpConcat {
		// Transparent: concatenation is bank/address layout; its
		// sources are consumed directly by the concat's readers.
		if e.fn != nil {
			if err := e.fn.computeGolden(e, l); err != nil {
				return err
			}
		}
		e.run.Layers = append(e.run.Layers, stats.LayerStats{Name: l.Name, Kind: l.Kind.String(), Stage: l.Stage})
		e.record(trace.Event{Kind: trace.KindLayerEnd, Layer: l.Name})
		return nil
	}

	before := e.ch.Traffic()
	ls := stats.LayerStats{Name: l.Name, Kind: l.Kind.String(), Stage: l.Stage}

	plan, err := tiling.ForLayer(l, d, e.planBudget(l))
	if err != nil {
		if e.pool.FailedBanks() > 0 {
			// The shrunken pool can no longer back a workable tiling:
			// degradation has a floor, and this plan is past it.
			return fault.Errf(fault.Recoverable, fault.CheckCapacity, l.Name,
				"no tiling with %d of %d banks retired: %w",
				e.pool.FailedBanks(), e.cfg.Pool.NumBanks, err)
		}
		return err
	}

	srcs := e.cp.Sources(l.Index)
	distinct := e.cp.Distinct(l.Index)

	// Operands at their final read are unpinned so the add can recycle
	// their banks and the epilogue can free them.
	for _, p := range distinct {
		r := &e.residents[p]
		if r.consumersLeft == 1 && r.buf != nil && r.buf.Pinned() {
			if err := e.pool.Unpin(r.buf); err != nil {
				return err
			}
			e.record(trace.Event{Kind: trace.KindUnpin, Layer: l.Name, Tag: r.buf.Tag()})
		}
	}

	if e.fn != nil {
		if err := e.fn.verifyInputs(e, l, distinct); err != nil {
			return err
		}
		if err := e.fn.computeGolden(e, l); err != nil {
			return err
		}
	}

	// Input traffic. The planner's IFM bytes embed the halo/group
	// overhead factor for streamed data; resident bytes are free.
	var inTotal int64
	for _, s := range l.In {
		inTotal += s.Bytes(d)
	}
	factor := 1.0
	if inTotal > 0 {
		factor = float64(plan.IFMReadBytes) / float64(inTotal)
	}
	for _, q := range srcs {
		p := int(q)
		r := &e.residents[p]
		ls.ReusedInputBytes += r.onChip
		shortcut := l.Index-p > 1 && p != 0
		if shortcut && r.onChip > 0 {
			e.obs.hit(procP3) // mined shortcut bytes served on chip
		}
		if dp := r.dramBytes(); dp > 0 {
			read := int64(float64(dp)*factor + 0.5)
			class := e.readClass(p, l)
			moved, start, dur, err := e.transferSpan(class, read)
			if err != nil {
				return err
			}
			kind := trace.KindDRAM
			if class == dram.ClassSpillRead || class == dram.ClassShortcutRead {
				kind = trace.KindRefill
			}
			switch class {
			case dram.ClassShortcutRead:
				e.obs.miss(procP3)
			case dram.ClassSpillRead:
				e.obs.miss(procP2)
			}
			e.recordSpan(trace.Event{Kind: kind, Layer: l.Name,
				Tag: e.net.Layers[p].Name, Class: class.String(), Bytes: moved}, start, dur)
		}
		if r.buf != nil && l.Index-p == 1 && r.buf.Role() != sram.RoleInput {
			if err := e.pool.SetRole(r.buf, sram.RoleInput); err != nil {
				return err
			}
			e.obs.hit(procP2)
			e.record(trace.Event{Kind: trace.KindRoleSwitch, Layer: l.Name, Tag: r.buf.Tag(),
				Role: sram.RoleInput.String()})
		}
	}

	e.ch.Transfer(dram.ClassWeightRead, plan.WeightReadBytes)

	// Output placement.
	outBytes := l.Out.Bytes(d)
	consumers := e.cp.Consumers(l.Index)
	lastUse := e.cp.LastUse(l.Index)
	out := &e.residents[l.Index]
	*out = resident{total: outBytes, consumersLeft: int32(consumers), lastUse: int32(lastUse)}

	keep := e.feat.RoleSwitch && consumers > 0
	fullCopy := !keep
	if keep && !e.feat.ShortcutRetention && lastUse > l.Index+1 {
		// Role switching alone can only hand data to the next layer;
		// later consumers need a DRAM copy.
		fullCopy = true
	}
	if keep {
		recycle := e.recyclables(l, distinct, plan)
		buf, got, recycled, err := e.allocOutput(l, outBytes, recycle, distinct)
		if err != nil {
			return err
		}
		out.buf = buf
		out.onChip = got
		ls.RecycledBanks = recycled
		if l.Kind == nn.OpEltwiseAdd && e.feat.IncrementalRecycle {
			if recycled > 0 {
				e.obs.hit(procP4)
			} else {
				e.obs.miss(procP4)
			}
		}
		if e.feat.PartialRetention {
			switch {
			case got > 0 && got < outBytes:
				e.obs.hit(procP5) // a prefix survived the squeeze
			case got == 0:
				e.obs.miss(procP5)
			}
		}
		if fullCopy {
			_, start, dur, err := e.transferSpan(dram.ClassOFMWrite, outBytes)
			if err != nil {
				return err
			}
			e.recordSpan(trace.Event{Kind: trace.KindDRAM, Layer: l.Name, Tag: l.Name,
				Class: dram.ClassOFMWrite.String(), Bytes: outBytes}, start, dur)
			out.spilled = outBytes
		} else if got < outBytes {
			spill := outBytes - got
			_, start, dur, err := e.transferSpan(dram.ClassSpillWrite, spill)
			if err != nil {
				return err
			}
			out.spilled = spill
			ls.SpilledBytes = spill
			e.recordSpan(trace.Event{Kind: trace.KindSpill, Layer: l.Name, Tag: l.Name, Bytes: spill,
				Class: dram.ClassSpillWrite.String(), Note: "partial retention"}, start, dur)
		}
	} else {
		_, start, dur, err := e.transferSpan(dram.ClassOFMWrite, outBytes)
		if err != nil {
			return err
		}
		e.recordSpan(trace.Event{Kind: trace.KindDRAM, Layer: l.Name, Tag: l.Name,
			Class: dram.ClassOFMWrite.String(), Bytes: outBytes}, start, dur)
		out.spilled = outBytes
	}

	if out.buf != nil && e.feat.ShortcutRetention && lastUse > l.Index+1 {
		if err := e.pool.Pin(out.buf); err != nil {
			return err
		}
		ls.RetainedBytes = out.onChip
		e.record(trace.Event{Kind: trace.KindPin, Layer: l.Name, Tag: l.Name,
			Banks: out.buf.NumBanks(), Bytes: out.onChip})
	}
	out.live = consumers > 0
	if e.fn != nil {
		e.fn.placeOutput(e, l, out, fullCopy)
	}

	// Release consumed operands.
	for _, p := range distinct {
		r := &e.residents[p]
		r.consumersLeft--
		if r.consumersLeft == 0 || !e.feat.ShortcutRetention {
			if r.buf != nil {
				e.record(trace.Event{Kind: trace.KindFree, Layer: l.Name, Tag: e.net.Layers[p].Name})
			}
			if err := r.dropBuffer(e.pool); err != nil {
				return err
			}
		}
	}

	// Capture: an operand that streamed from DRAM this layer but has
	// more consumers ahead (the input image feeding several branches, a
	// fully spilled fan-out fmap) is worth keeping — it is on the chip
	// right now. Leftover capacity only, so output retention keeps
	// priority.
	if e.feat.ShortcutRetention {
		for _, p := range distinct {
			if err := e.captureSpilled(l, int(p)); err != nil {
				return err
			}
		}
	}

	// Timing and bookkeeping.
	delta := e.ch.Traffic()
	for c := range delta {
		delta[c] -= before[c]
	}
	ls.Traffic = delta // scmvet:ok accounting per-layer slice of the channel's own tally, no new bytes
	ls.ComputeCycles = e.cfg.PE.LayerCycles(l)
	ls.MemCycles = e.cfg.MemCycles(e.ch, delta, e.inj.Factor())
	ls.Cycles = ls.ComputeCycles
	if ls.MemCycles > ls.Cycles {
		ls.Cycles = ls.MemCycles
	}
	if e.cfg.DetailedTiming {
		if cyc := e.pipelineCycles(l, plan, delta); cyc > ls.Cycles {
			ls.Cycles = cyc
		}
	}
	ls.Cycles += e.cfg.ControlCycles
	// Fault handling is serialized with the layer: scrubs, migrations,
	// and DMA retry/backoff stalls accrued since the previous layer
	// closed are charged on top of the overlap model.
	ls.Cycles += e.layerFaultCycles
	e.layerFaultCycles = 0
	// Codec engine time (encode on stores, decode on loads) is likewise
	// serialized with the layer that moved the data.
	ls.CodecCycles = e.layerCodecCycles
	ls.Cycles += e.layerCodecCycles
	e.layerCodecCycles = 0
	if werr := e.wd.CheckLayer(l.Name, ls.Cycles); werr != nil {
		return werr
	}
	ls.SRAMBytes = 2 * (inTotal + outBytes + plan.WeightReadBytes)
	e.run.Layers = append(e.run.Layers, ls)
	if e.rec != nil {
		e.recordSpan(trace.Event{Kind: trace.KindLayerEnd, Layer: l.Name, Bytes: delta.Total(),
			Banks: e.pool.UsedBanks(), Pinned: e.pool.PinnedBanks(),
			Note: fmt.Sprintf("pinned=%d", e.pool.PinnedBanks())}, e.clock+ls.Cycles, ls.Cycles)
	}
	e.clock += ls.Cycles
	return nil
}

func (e *executor) finish() (stats.RunStats, error) {
	if used := e.pool.UsedBanks(); used != 0 {
		return stats.RunStats{}, fault.Errf(fault.Fatal, fault.CheckBankLeak, "",
			"core: %s: %d banks leaked at end of run", e.net.Name, used)
	}
	if err := e.pool.CheckInvariants(); err != nil {
		return stats.RunStats{}, fault.Errf(fault.Fatal, fault.CheckInvariant, "",
			"core: %s: %w", e.net.Name, err)
	}
	batch := int64(e.cfg.Batch)
	r := &e.run
	r.Traffic = e.ch.Traffic() // scmvet:ok accounting aggregation of the channel's tally into RunStats
	for c := range r.Traffic {
		if dram.Class(c) == dram.ClassWeightRead && e.cfg.AmortizeWeights {
			continue // weights stream once per batch (layer-inner loop)
		}
		r.Traffic[c] *= batch // scmvet:ok accounting batch replication of per-image traffic (layer loop simulates one image)
	}
	for i := range r.Layers {
		ls := &r.Layers[i]
		r.ComputeCycles += ls.ComputeCycles * batch
		r.MemCycles += ls.MemCycles * batch
		r.TotalCycles += ls.Cycles * batch
		r.SRAMBytes += ls.SRAMBytes * batch
	}
	r.MACs = e.net.TotalMACs() * batch
	ps := e.pool.Stats()
	r.PeakUsedBanks = ps.PeakUsedBanks
	r.PeakPinnedBanks = ps.PeakPinnedBanks
	r.RoleSwitches = ps.RoleSwitches
	r.BanksRecycled = ps.BanksRecycled
	r.BanksEvicted = ps.BanksEvicted
	// Fault statistics are per-run, not per-image: the injected events
	// happen once regardless of batch.
	r.Faults = e.flt
	if e.comp != nil {
		cs := &stats.CompressionStats{
			Codec:        e.comp.String(),
			Logical:      e.ch.LogicalTraffic(),
			Wire:         e.ch.RawTraffic(),
			EncodeCycles: e.encCycles * batch,
			DecodeCycles: e.decCycles * batch,
		}
		for c := range cs.Logical {
			if dram.Class(c) == dram.ClassWeightRead && e.cfg.AmortizeWeights {
				continue // same batch treatment as r.Traffic above
			}
			cs.Logical[c] *= batch // scmvet:ok accounting batch scaling of the per-image codec ledger, mirrors r.Traffic above
			cs.Wire[c] *= batch    // scmvet:ok accounting batch scaling of the per-image codec ledger, mirrors r.Traffic above
		}
		cs.SavedBytes = cs.Logical.Total() - cs.Wire.Total()
		r.Compression = cs
	}
	r.Energy = e.cfg.Energy.Estimate(r.Traffic.Total(), r.SRAMBytes, r.MACs)
	e.obs.finishRun(e)
	return *r, nil
}
