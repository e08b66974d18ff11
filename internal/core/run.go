package core

import (
	"context"
	"fmt"
	"slices"

	"shortcutmining/internal/dram"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sram"
	"shortcutmining/internal/stats"
	"shortcutmining/internal/trace"
)

// Run is a resumable, layer-granular simulation: the stepping API
// underneath every Simulate entry point and the unit the multi-tenant
// scheduler (internal/sched) interleaves on one accelerator. A Run
// advances one layer per Step, can be suspended at any layer boundary
// — spilling its live logical buffers to DRAM so another tenant may
// use the bank pool — and resumed later, paying the re-load cost.
//
// The single-tenant path (NewRun + Step until done, no suspends)
// produces RunStats bit-identical to Simulate: suspend/resume costs
// are accounted separately in SchedStats, never folded into the run's
// own traffic or cycle attribution, so per-stream results always
// reconcile exactly against the single-tenant baseline.
type Run struct {
	e *executor

	next      int // index of the next layer to execute
	done      bool
	err       error
	result    stats.RunStats
	suspended bool
	saved     []savedBuffer
	sched     SchedStats
}

// savedBuffer records what Suspend tore down so Resume can rebuild an
// equivalent pool state: the same bank count, role, tag, and pin
// status yield identical downstream scheduling decisions.
type savedBuffer struct {
	producer int
	role     sram.Role
	tag      string
	banks    int
	pinned   bool
}

// SchedStats is the multi-tenancy cost ledger of a Run: everything a
// scheduler did to it on top of its single-tenant execution. The
// fields are deliberately not part of RunStats — per-stream traffic
// stays bit-identical to the single-tenant run, and the scheduler
// reports these separately.
type SchedStats struct {
	Suspends int64 `json:"suspends"`
	Resumes  int64 `json:"resumes"`
	// SpillBytes is written to DRAM at suspension: the resident bytes
	// that had no up-to-date DRAM copy (burst-rounded).
	SpillBytes int64 `json:"spill_bytes"`
	// ReloadBytes is read back at resumption: the bytes that must be
	// resident again for the run to continue where it left off.
	ReloadBytes int64 `json:"reload_bytes"`
	// SpillCycles / ReloadCycles are the channel-occupancy cycles of
	// the above, charged to the stream by the scheduler (they never
	// appear in RunStats.TotalCycles).
	SpillCycles  int64 `json:"spill_cycles"`
	ReloadCycles int64 `json:"reload_cycles"`
}

// Footprint is a point-in-time view of a run's bank-pool occupancy —
// what Suspend would have to spill.
type Footprint struct {
	UsedBanks     int   `json:"used_banks"`
	PinnedBanks   int   `json:"pinned_banks"`
	FreeBanks     int   `json:"free_banks"`
	ResidentBytes int64 `json:"resident_bytes"`
}

// NewRun builds a resumable run under a canonical strategy; it errors
// on any value outside Strategies. rec and reg may be nil (no trace, no
// metrics); a trace.Nop rec is the same as nil. The first layer runs on
// the first Step.
func NewRun(net *nn.Network, cfg Config, strat Strategy, rec trace.Recorder, reg *metrics.Registry) (*Run, error) {
	if !slices.Contains(Strategies(), strat) {
		return nil, fmt.Errorf("core: unknown strategy %v", strat)
	}
	return newRun(net, cfg, strat.Features(), rec, reg)
}

// newRun validates the platform and builds a run with an explicit
// feature set. The network was validated, and its consumption plan
// computed, by nn.Builder.Finish; a network without a plan is an
// error. Every entry point constructs through it.
func newRun(net *nn.Network, cfg Config, feat Features, rec trace.Recorder, reg *metrics.Registry) (*Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cp, err := net.Plan()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e, err := newExecutor(cfg)
	if err != nil {
		return nil, err
	}
	if _, nop := rec.(trace.Nop); rec != nil && !nop {
		e.rec = &trace.Stamper{R: rec}
	}
	e.obs = newObserver(reg, e.ch)
	e.net = net
	e.feat = feat
	e.cp = cp
	e.residents = make([]resident, len(net.Layers))
	e.run = stats.RunStats{
		Network:  net.Name,
		Strategy: featureLabel(feat),
		Batch:    cfg.Batch,
		ClockMHz: cfg.PE.ClockMHz,
		Layers:   make([]stats.LayerStats, 0, len(net.Layers)),
	}
	return &Run{e: e}, nil
}

// complete steps the run until every layer has executed and returns
// its statistics. Cancellation is cooperative at layer granularity: a
// canceled run stops before its next layer, leaving no partial-layer
// state behind (the per-layer watchdog bounds how long one layer can
// take to reach the check).
func (r *Run) complete(ctx context.Context) (stats.RunStats, error) {
	for {
		done, err := r.Step(ctx)
		if err != nil {
			return stats.RunStats{}, err
		}
		if done {
			return r.Result()
		}
	}
}

// Network returns the network the run executes.
func (r *Run) Network() *nn.Network { return r.e.net }

// NumLayers is the total layer count; NextLayer the index of the next
// layer Step would execute (== NumLayers once done).
func (r *Run) NumLayers() int { return len(r.e.net.Layers) }

// NextLayer returns the index of the next layer to execute.
func (r *Run) NextLayer() int { return r.next }

// Done reports whether every layer has executed and the epilogue ran.
func (r *Run) Done() bool { return r.done }

// Err returns the terminal error, if the run failed.
func (r *Run) Err() error { return r.err }

// Suspended reports whether the run is currently suspended.
func (r *Run) Suspended() bool { return r.suspended }

// Clock is the run's own attributed cycle count so far — the sum of
// executed layer cycles, excluding scheduler suspend/resume costs.
func (r *Run) Clock() int64 { return r.e.clock }

// Sched returns the accumulated multi-tenancy cost ledger.
func (r *Run) Sched() SchedStats { return r.sched }

// MinBankDemand is the smallest number of in-service banks the run
// needs to make progress: the streaming reserve plus one allocatable
// bank. The scheduler's admission control refuses to launch a run
// whose demand does not fit the shared pool.
func (r *Run) MinBankDemand() int { return r.e.cfg.ReserveBanks + 1 }

// Footprint reports the run's current bank-pool occupancy.
func (r *Run) Footprint() Footprint {
	var resident int64
	for i := range r.e.residents {
		if res := &r.e.residents[i]; res.buf != nil && !res.buf.Freed() {
			resident += res.onChip
		}
	}
	return Footprint{
		UsedBanks:     r.e.pool.UsedBanks(),
		PinnedBanks:   r.e.pool.PinnedBanks(),
		FreeBanks:     r.e.pool.FreeBanks(),
		ResidentBytes: resident,
	}
}

// Handoff describes what a cross-chip boundary at the current layer
// boundary would have to move: the live on-chip bytes split into
// ordinary feature-map state and pinned shortcut state. Procedures
// P2–P5 keep the latter resident across a span of layers, so a
// placement cut through a shortcut span forces the pinned banks over
// the interconnect link — the quantity shortcut-affinity placement
// (internal/cluster) exists to minimize.
type Handoff struct {
	FmapBytes     int64 `json:"fmap_bytes"`
	ShortcutBytes int64 `json:"shortcut_bytes"`
}

// Total is the full payload a chip-to-chip handoff must carry.
func (h Handoff) Total() int64 { return h.FmapBytes + h.ShortcutBytes }

// Handoff reports the current cross-chip handoff payload. Like
// Footprint it is a read-only snapshot; Suspend remains the mechanism
// that actually evacuates the state.
func (r *Run) Handoff() Handoff {
	var h Handoff
	for i := range r.e.residents {
		res := &r.e.residents[i]
		if res.buf == nil || res.buf.Freed() {
			continue
		}
		if res.buf.Pinned() {
			h.ShortcutBytes += res.onChip
		} else {
			h.FmapBytes += res.onChip
		}
	}
	return h
}

// fail parks the run in its terminal error state.
func (r *Run) fail(err error) error {
	r.err = err
	return err
}

// Step executes the next layer (auto-resuming a suspended run first)
// and returns true once the whole network has executed and the run
// epilogue (leak checks, stats assembly) completed. Cancellation is
// cooperative at layer granularity, exactly like SimulateContext.
// After an error the run is terminal: further Steps return the same
// error.
func (r *Run) Step(ctx context.Context) (bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if r.err != nil {
		return false, r.err
	}
	if r.done {
		return true, nil
	}
	if r.suspended {
		if err := r.Resume(); err != nil {
			return false, err
		}
	}
	l := r.e.net.Layers[r.next]
	if err := ctx.Err(); err != nil {
		return false, r.fail(fmt.Errorf("core: %s: canceled before layer %s: %w", r.e.net.Name, l.Name, err))
	}
	if err := r.e.execLayer(l); err != nil {
		return false, r.fail(fmt.Errorf("core: %s: layer %s: %w", r.e.net.Name, l.Name, err))
	}
	r.next++
	if r.next == len(r.e.net.Layers) {
		res, err := r.e.finish()
		if err != nil {
			return false, r.fail(err)
		}
		r.result = res
		r.done = true
	}
	return r.done, nil
}

// Result returns the finished run's statistics. It errors until Done.
func (r *Run) Result() (stats.RunStats, error) {
	if r.err != nil {
		return stats.RunStats{}, r.err
	}
	if !r.done {
		return stats.RunStats{}, fmt.Errorf("core: %s: run not finished (next layer %d of %d)",
			r.e.net.Name, r.next, len(r.e.net.Layers))
	}
	return r.result, nil
}

// Suspend vacates the bank pool at a layer boundary so another tenant
// can use it: every live logical buffer is torn down, resident bytes
// without an up-to-date DRAM copy are spilled (procedure P5 applied to
// the whole working set), and enough is remembered to rebuild an
// equivalent pool state on Resume. It returns the footprint that was
// live at the moment of suspension. Suspending a run that holds no
// buffers is free. Functional-verification runs cannot be suspended
// (their golden payloads live in the buffers).
func (r *Run) Suspend() (Footprint, error) {
	if r.err != nil {
		return Footprint{}, r.err
	}
	if r.done {
		return Footprint{}, fmt.Errorf("core: %s: cannot suspend a finished run", r.e.net.Name)
	}
	if r.suspended {
		return Footprint{}, fmt.Errorf("core: %s: already suspended", r.e.net.Name)
	}
	if r.e.fn != nil {
		return Footprint{}, fmt.Errorf("core: %s: functional-verification runs are single-tenant", r.e.net.Name)
	}
	fp := r.Footprint()
	layer := "(pre-start)"
	if r.next > 0 {
		layer = r.e.net.Layers[r.next-1].Name
	}
	for p := range r.e.residents {
		res := &r.e.residents[p]
		if res.buf == nil || res.buf.Freed() {
			continue
		}
		buf := res.buf
		r.saved = append(r.saved, savedBuffer{
			producer: p,
			role:     buf.Role(),
			tag:      buf.Tag(),
			banks:    buf.NumBanks(),
			pinned:   buf.Pinned(),
		})
		// Only bytes with no current DRAM copy must be written back;
		// a fully spilled fmap whose prefix is also resident re-loads
		// for free traffic-wise. The write-back goes through the
		// interlayer codec like any spill: the ledger records the wire
		// bytes, and encode time joins the spill's cycle bill.
		if dirty := res.total - res.spilled; dirty > 0 {
			moved := r.e.ch.WirePayload(dram.ClassSpillWrite, dirty)
			r.sched.SpillBytes += moved
			r.sched.SpillCycles += r.e.ch.CyclesAt(moved, r.e.cfg.PE.ClockMHz)
			if r.e.comp != nil {
				enc, _ := r.e.comp.CodecCycles(dram.ClassSpillWrite, dirty)
				r.sched.SpillCycles += enc
			}
			r.e.record(trace.Event{Kind: trace.KindSpill, Layer: layer, Tag: buf.Tag(),
				Bytes: moved, Note: "suspend"})
			res.spilled = res.total
		}
		if buf.Pinned() {
			if err := r.e.pool.Unpin(buf); err != nil {
				return Footprint{}, r.fail(err)
			}
		}
		if err := r.e.pool.Free(buf); err != nil {
			return Footprint{}, r.fail(err)
		}
		res.buf = nil
	}
	if used := r.e.pool.UsedBanks(); used != 0 {
		return Footprint{}, r.fail(fmt.Errorf("core: %s: %d banks still occupied after suspend", r.e.net.Name, used))
	}
	r.sched.Suspends++
	r.suspended = true
	return fp, nil
}

// Resume rebuilds the pool state Suspend recorded — same bank counts,
// roles, tags, and pin status — and charges the re-load traffic for
// the bytes that must be resident again. The run then continues
// exactly as if it had never been preempted.
func (r *Run) Resume() error {
	if r.err != nil {
		return r.err
	}
	if !r.suspended {
		return fmt.Errorf("core: %s: not suspended", r.e.net.Name)
	}
	bankBytes := r.e.bankBytes()
	for _, s := range r.saved {
		buf, err := r.e.pool.Alloc(s.role, s.tag, int64(s.banks)*bankBytes)
		if err != nil {
			return r.fail(fmt.Errorf("core: %s: resuming %s: %w", r.e.net.Name, s.tag, err))
		}
		if s.pinned {
			if err := r.e.pool.Pin(buf); err != nil {
				return r.fail(err)
			}
		}
		res := &r.e.residents[s.producer]
		res.buf = buf
		if res.onChip > 0 {
			moved := r.e.ch.WirePayload(dram.ClassSpillRead, res.onChip)
			r.sched.ReloadBytes += moved
			r.sched.ReloadCycles += r.e.ch.CyclesAt(moved, r.e.cfg.PE.ClockMHz)
			if r.e.comp != nil {
				_, dec := r.e.comp.CodecCycles(dram.ClassSpillRead, res.onChip)
				r.sched.ReloadCycles += dec
			}
			r.e.record(trace.Event{Kind: trace.KindRefill, Layer: r.e.net.Layers[r.next].Name,
				Tag: s.tag, Bytes: moved, Note: "resume"})
		}
	}
	r.saved = r.saved[:0]
	r.sched.Resumes++
	r.suspended = false
	return nil
}
