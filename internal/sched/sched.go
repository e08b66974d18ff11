package sched

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"shortcutmining/internal/core"
	"shortcutmining/internal/dram"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/noc"
	"shortcutmining/internal/stats"
	"shortcutmining/internal/trace"
)

// tenant is one request from its arrival until it retires.
type tenant struct {
	stream, seq int
	arrival     int64
	start       int64     // cycle of the first executed layer; -1 until then
	run         *core.Run // nil until launched, and again once retired
	quantum     int       // layers executed since the last switch-in
	seg         int       // index of the segment it executes next
	readyAt     int64     // earliest start of that segment
	handoffs    Handoffs
	comp        *stats.CompressionStats // codec ledger of its handoffs
}

// engine is the one event loop behind every scenario. One chip runs
// each network as a single segment under the spec's policy; several
// chips run each network's placement segments over a noc fabric.
type engine struct {
	ctx    context.Context
	cfg    core.Config
	spec   *Spec
	nets   []*nn.Network
	segs   [][]segment // per stream: the chip segments of its layers
	fabric *noc.Fabric // nil on one chip

	arrivals []*tenant // every request, in (arrival, stream, seq) order
	ai       int       // next arrival not yet replayed
	waiting  []*tenant // arrived, not launched (arrival order)
	ready    []*tenant // launched, unfinished; on one chip ready[0] is on the accelerator
	current  *tenant   // on one chip: the tenant that stepped last
	settled  int       // completed + rejected

	chips []ChipLedger
	led   Ledger
}

// Run executes a single-chip scenario on the platform and returns the
// per-stream QoS statistics. reg may be nil (no metrics).
func Run(cfg core.Config, spec *Spec, reg *metrics.Registry) (*Result, error) {
	return RunContext(context.Background(), cfg, spec, reg)
}

// RunContext is Run with cooperative cancellation at layer granularity
// (the same cadence as core.SimulateContext).
func RunContext(ctx context.Context, cfg core.Config, spec *Spec, reg *metrics.Registry) (*Result, error) {
	if spec != nil && spec.Chips > 1 {
		// Sharded scenarios are reported per chip and per link —
		// cluster.Result's view (scm-sched with chips>1, POST /v1/cluster).
		return nil, fmt.Errorf("sched: spec requests chips=%d; multi-chip scenarios run through the cluster package", spec.Chips)
	}
	l, err := Execute(ctx, cfg, spec, nil)
	if err != nil {
		return nil, err
	}
	res := l.result()
	publish(reg, res)
	return res, nil
}

// Execute runs any scenario, single- or multi-chip, and returns its
// ledger. rec receives the interconnect's link-occupancy spans and may
// be nil.
func Execute(ctx context.Context, cfg core.Config, spec *Spec, rec trace.Recorder) (*Ledger, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Scheduled requests are single inferences: the pool holds one
	// image's working set, and batching across streams is a scheduler
	// follow-on (see ROADMAP), not an implicit config knob.
	cfg.Batch = 1
	cfg.AmortizeWeights = false
	if spec.Compress != nil {
		cfg.Compression = spec.Compress
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &engine{ctx: ctx, cfg: cfg, spec: spec, led: Ledger{Spec: spec, Config: cfg}}
	if err := e.build(rec); err != nil {
		return nil, err
	}
	if err := e.loop(); err != nil {
		return nil, err
	}
	return e.ledger(), nil
}

// build lays out the chips, the fabric and every stream's segments,
// and replays the arrival process into tenants.
func (e *engine) build(rec trace.Recorder) error {
	spec := e.spec
	chips := max(spec.Chips, 1)
	var place Placement
	if chips > 1 {
		var err error
		if place, err = ParsePlacement(spec.Placement); err != nil {
			return err
		}
		topo := noc.Ring
		if spec.Topology != "" {
			if topo, err = noc.ParseTopology(spec.Topology); err != nil {
				return err
			}
		}
		e.fabric, err = noc.New(noc.Config{Chips: chips, Topology: topo,
			LinkGBps: spec.LinkGBps, HopLatency: spec.HopLatency, ClockMHz: e.cfg.PE.ClockMHz})
		if err != nil {
			return err
		}
		if rec != nil {
			st := &trace.Stamper{R: rec}
			e.fabric.SetSpanFunc(func(link string, bytes, start, dur int64) {
				st.Record(trace.Event{Kind: trace.KindLink, Tag: link, Bytes: bytes, Cycle: start, DurCycles: dur})
			})
		}
		e.led.Placement, e.led.Topology = place.String(), topo.String()
	}
	e.chips = make([]ChipLedger, chips)
	for c := range e.chips {
		e.chips[c].Chip = c
	}

	names := spec.streamNames()
	e.nets = make([]*nn.Network, len(spec.Streams))
	e.segs = make([][]segment, len(spec.Streams))
	e.led.Streams = make([]StreamLedger, len(spec.Streams))
	for i, st := range spec.Streams {
		net, err := nn.Build(st.Network)
		if err != nil {
			return fmt.Errorf("sched: stream %d: %w", i, err)
		}
		e.nets[i] = net
		e.segs[i] = []segment{{chip: 0, lo: 0, hi: len(net.Layers)}}
		acc := &e.led.Streams[i]
		acc.Name, acc.Network, acc.Strategy = names[i], st.Network, st.Strategy.String()
		acc.Priority, acc.Requests = st.Priority, st.Requests
		if chips > 1 {
			perLayer, single, err := profile(e.ctx, net, e.cfg, st.Strategy)
			if err != nil {
				return fmt.Errorf("sched: stream %d (%s): %w", i, st.Network, err)
			}
			e.segs[i] = segments(assign(place, net, e.cfg.DType, perLayer, chips))
			acc.SingleTenantCycles = single
		}
	}
	e.arrivals = buildArrivals(spec)
	return nil
}

// buildArrivals precomputes every request's arrival cycle. Poisson
// streams draw exponential gaps from a per-stream RNG derived from the
// spec seed, so arrival processes are independent of each other and of
// stream order yet fully reproducible.
func buildArrivals(spec *Spec) []*tenant {
	var out []*tenant
	for i, st := range spec.Streams {
		// Per-stream RNG: golden-ratio stride decorrelates adjacent
		// stream seeds without depending on stream count or order.
		rng := rand.New(rand.NewSource(spec.Seed + int64(i)*0x1E3779B97F4A7C15))
		t := st.StartCycles
		for j := 0; j < st.Requests; j++ {
			if j > 0 {
				gap := st.GapCycles
				if st.Poisson && st.GapCycles > 0 {
					gap = int64(rng.ExpFloat64()*float64(st.GapCycles)) + 1
				}
				t += gap
			}
			out = append(out, &tenant{stream: i, seq: j, arrival: t, start: -1, readyAt: t})
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].arrival != out[b].arrival {
			return out[a].arrival < out[b].arrival
		}
		if out[a].stream != out[b].stream {
			return out[a].stream < out[b].stream
		}
		return out[a].seq < out[b].seq
	})
	return out
}

// loop is the deterministic event loop: pick the next tenant and its
// chip, step its layers, account clock and reload deltas, then retire
// it or — at the end of a segment — ship it to the next chip.
func (e *engine) loop() error {
	for e.settled < len(e.arrivals) {
		if err := e.ctx.Err(); err != nil {
			return fmt.Errorf("sched: canceled: %w", err)
		}
		c, t, err := e.next()
		if err != nil || t == nil {
			return err // t == nil: only rejected requests remained
		}
		ch := &e.chips[c]
		if t.start < 0 {
			t.start = ch.FinishCycle
		}
		// One chip decides again after every layer; several run the
		// segment to its end.
		hi := e.segs[t.stream][t.seg].hi
		clock, reload := t.run.Clock(), t.run.Sched().ReloadCycles
		var done bool
		for {
			if done, err = t.run.Step(e.ctx); err != nil {
				return fmt.Errorf("sched: %s: %w", e.label(t), err)
			}
			t.quantum++
			if done || e.fabric == nil || t.run.NextLayer() >= hi {
				break
			}
		}
		compute, reloaded := t.run.Clock()-clock, t.run.Sched().ReloadCycles-reload
		ch.FinishCycle += compute + reloaded
		ch.ComputeCycles += compute
		ch.ReloadCycles += reloaded
		ch.Segments++
		if done {
			err = e.retire(c, t)
		} else if t.run.NextLayer() >= hi {
			err = e.ship(c, t)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// next returns the chip and tenant to step, with the chip's clock
// moved to the tenant's start; a nil tenant when nothing is left.
func (e *engine) next() (int, *tenant, error) {
	if e.fabric != nil {
		return e.earliest()
	}
	// One chip: the spec's policy picks among the arrived requests, and
	// switching away from an unfinished tenant preempts it.
	ch := &e.chips[0]
	for {
		e.absorb(ch.FinishCycle)
		t, err := e.pick()
		if err != nil {
			return 0, nil, err
		}
		if t != nil {
			if cur := e.current; cur != nil && cur != t && cur.run != nil {
				if err := e.suspend(0, cur); err != nil {
					return 0, nil, err
				}
				t.quantum = 0
			}
			e.current = t
			return 0, t, nil
		}
		if e.ai == len(e.arrivals) {
			return 0, nil, nil
		}
		ch.FinishCycle = e.arrivals[e.ai].arrival // idle until the next arrival
	}
}

// earliest is the multi-chip dispatch rule: the runnable segment with
// the earliest start runs next, ties to the lowest (chip, stream, seq),
// and runs to its end. Executing it cannot invalidate the choice:
// everything it generates starts at or after it.
func (e *engine) earliest() (int, *tenant, error) {
	e.absorb(math.MaxInt64)
	var best *tenant
	var bestStart int64
	bestChip := 0
	for _, queue := range [][]*tenant{e.waiting, e.ready} {
		for _, t := range queue {
			c := e.segs[t.stream][t.seg].chip
			start := max(t.readyAt, e.chips[c].FinishCycle)
			if best == nil || start < bestStart || start == bestStart && (c < bestChip ||
				c == bestChip && (t.stream < best.stream || t.stream == best.stream && t.seq < best.seq)) {
				best, bestStart, bestChip = t, start, c
			}
		}
	}
	if best == nil {
		return 0, nil, nil
	}
	e.chips[bestChip].FinishCycle = bestStart
	if best.run == nil {
		if err := e.launch(best); err != nil {
			return 0, nil, err
		}
	}
	return bestChip, best, nil
}

// absorb replays arrivals up to cycle now into the waiting queue (they
// stay in deterministic arrival order).
func (e *engine) absorb(now int64) {
	for e.ai < len(e.arrivals) && e.arrivals[e.ai].arrival <= now {
		e.waiting = append(e.waiting, e.arrivals[e.ai])
		e.ai++
	}
}

// pick chooses the single-chip tenant to run next under the spec's
// policy, launching from the waiting queue when the policy calls for
// it. ready[0] is the current tenant; pick reorders ready so its choice
// is at the head. Returns nil when nothing is runnable (idle until the
// next arrival).
func (e *engine) pick() (*tenant, error) {
	e.dropRejected()
	for len(e.waiting) > 0 && e.roomToLaunch() {
		if err := e.launch(e.waiting[0]); err != nil {
			return nil, err
		}
	}
	if len(e.ready) == 0 {
		return nil, nil
	}
	switch e.spec.Policy {
	case RoundRobin:
		// Rotate on quantum expiry.
		if e.ready[0].quantum >= e.spec.quantum() && len(e.ready) > 1 {
			e.ready = append(e.ready[1:], e.ready[0])
			e.ready[0].quantum = 0
		}
	case Priority:
		// The highest-priority runnable wins; the current tenant is
		// only preempted by a strictly higher priority, so equal
		// priorities never thrash.
		best := 0
		for i := 1; i < len(e.ready); i++ {
			if e.prioLess(e.ready[best], e.ready[i]) {
				best = i
			}
		}
		if best != 0 && e.prio(e.ready[best]) > e.prio(e.ready[0]) {
			chosen := e.ready[best]
			e.ready = append(e.ready[:best], e.ready[best+1:]...)
			e.ready = append([]*tenant{chosen}, e.ready...)
			e.ready[0].quantum = 0
		}
	}
	return e.ready[0], nil
}

// roomToLaunch reports whether another run may become resident: fcfs
// runs one request to completion at a time, the preemptive policies
// keep up to MaxResident (0 = unlimited).
func (e *engine) roomToLaunch() bool {
	limit := e.spec.MaxResident
	if e.spec.Policy == FCFS {
		limit = 1
	}
	return limit == 0 || len(e.ready) < limit
}

func (e *engine) prio(t *tenant) int { return e.spec.Streams[t.stream].Priority }

// prioLess reports whether b should be preferred over a: higher
// priority first, then earlier arrival, then stream order, then seq.
func (e *engine) prioLess(a, b *tenant) bool {
	if pa, pb := e.prio(a), e.prio(b); pa != pb {
		return pa < pb
	}
	if a.arrival != b.arrival {
		return b.arrival < a.arrival
	}
	if a.stream != b.stream {
		return b.stream < a.stream
	}
	return b.seq < a.seq
}

// dropRejected refuses waiting requests whose bank demand — a stream's
// MinBanks, else the run's minimum — cannot fit the pool, so pick only
// ever sees launchable work.
func (e *engine) dropRejected() {
	kept := e.waiting[:0]
	for _, t := range e.waiting {
		demand := e.spec.Streams[t.stream].MinBanks
		if demand == 0 {
			demand = e.cfg.ReserveBanks + 1
		}
		if demand <= e.cfg.Pool.NumBanks {
			kept = append(kept, t)
		} else {
			e.led.Streams[t.stream].Rejected++
			e.settled++
		}
	}
	e.waiting = kept
}

// launch admits a waiting request: it leaves the queue and becomes a
// resident tenant at the back of the ready list.
func (e *engine) launch(t *tenant) error {
	e.waiting = remove(e.waiting, t)
	run, err := core.NewRun(e.nets[t.stream], e.cfg, e.spec.Streams[t.stream].Strategy, nil, nil)
	if err != nil {
		return fmt.Errorf("sched: launching %s: %w", e.label(t), err)
	}
	t.run = run
	e.ready = append(e.ready, t)
	e.led.PeakResident = max(e.led.PeakResident, len(e.ready))
	return nil
}

// suspend evacuates a tenant's working set P5-style on chip c; the
// spill cycles serialize onto that chip's DRAM channel.
func (e *engine) suspend(c int, t *tenant) error {
	before := t.run.Sched().SpillCycles
	if _, err := t.run.Suspend(); err != nil {
		return fmt.Errorf("sched: suspending %s: %w", e.label(t), err)
	}
	spilled := t.run.Sched().SpillCycles - before
	e.chips[c].FinishCycle += spilled
	e.chips[c].SpillCycles += spilled
	return nil
}

// ship suspends a tenant at the end of its segment on chip c and sends
// its live feature-map and pinned-shortcut state to the chip of its
// next segment.
func (e *engine) ship(c int, t *tenant) error {
	h := t.run.Handoff()
	if err := e.suspend(c, t); err != nil {
		return err
	}
	t.seg++
	dst := e.segs[t.stream][t.seg].chip
	src := &e.chips[c]
	// The handoff ships compressed when a codec covers the interchip
	// class: encode serializes on the source chip before the fabric
	// sees the payload, decode delays the destination's readiness.
	payload := h.Total()
	var dec int64
	if cc := e.cfg.Compression; cc != nil {
		wire := cc.WireBytes(dram.ClassInterchip, payload)
		var enc int64
		enc, dec = cc.CodecCycles(dram.ClassInterchip, payload)
		src.FinishCycle += enc
		src.CodecCycles += enc
		e.chips[dst].CodecCycles += dec
		t.handoffs.InterchipLogicalBytes += payload
		t.handoffs.CodecCycles += enc + dec
		if t.comp == nil {
			t.comp = &stats.CompressionStats{}
		}
		t.comp.Logical[dram.ClassInterchip] += payload // scmvet:ok accounting codec ledger of the handoff, not a transfer; the fabric records the wire bytes
		t.comp.Wire[dram.ClassInterchip] += wire       // scmvet:ok accounting codec ledger of the handoff, not a transfer; the fabric records the wire bytes
		t.comp.SavedBytes += payload - wire
		t.comp.EncodeCycles += enc
		t.comp.DecodeCycles += dec
		payload = wire
	}
	tr, err := e.fabric.Send(c, dst, payload, src.FinishCycle)
	if err != nil {
		return fmt.Errorf("sched: %s handoff: %w", e.label(t), err)
	}
	t.readyAt = tr.Arrive + dec
	t.handoffs.Crossings++
	t.handoffs.InterchipBytes += tr.Bytes
	t.handoffs.ShortcutHandoffBytes += h.ShortcutBytes
	t.handoffs.BackpressureCycles += tr.QueueCycles
	return nil
}

// retire folds a completed tenant on chip c into the ledger and
// releases its run.
func (e *engine) retire(c int, t *tenant) error {
	e.ready = remove(e.ready, t)
	res, err := t.run.Result()
	if err != nil {
		return fmt.Errorf("sched: %s: %w", e.label(t), err)
	}
	now := e.chips[c].FinishCycle
	acc := &e.led.Streams[t.stream]
	sc := t.run.Sched()
	acc.Completed++
	acc.Preemptions += sc.Suspends
	acc.Sched.Suspends += sc.Suspends
	acc.Sched.Resumes += sc.Resumes
	acc.Sched.SpillBytes += sc.SpillBytes
	acc.Sched.ReloadBytes += sc.ReloadBytes
	acc.Sched.SpillCycles += sc.SpillCycles
	acc.Sched.ReloadCycles += sc.ReloadCycles
	acc.ServiceCycles += res.TotalCycles
	acc.Traffic.Add(res.Traffic) // scmvet:ok accounting fold of a finished request's RunStats into the stream ledger
	if acc.SingleTenantCycles == 0 {
		acc.SingleTenantCycles = res.TotalCycles
	}
	if res.Compression != nil {
		if t.comp == nil {
			t.comp = &stats.CompressionStats{}
		}
		t.comp.Add(*res.Compression)
	}
	if t.comp != nil {
		if acc.Compression == nil {
			acc.Compression = &stats.CompressionStats{}
		}
		acc.Compression.Add(*t.comp)
	}
	acc.Crossings += int64(t.handoffs.Crossings)
	acc.InterchipBytes += t.handoffs.InterchipBytes
	acc.InterchipLogicalBytes += t.handoffs.InterchipLogicalBytes
	acc.CodecCycles += t.handoffs.CodecCycles
	lat, wait := now-t.arrival, t.start-t.arrival
	acc.latencies = append(acc.latencies, lat)
	acc.queueWaits = append(acc.queueWaits, wait)
	e.led.Requests = append(e.led.Requests, RequestLedger{
		RequestStat: RequestStat{
			Stream: acc.Name, Seq: t.seq,
			Arrival: t.arrival, Start: t.start, Finish: now,
			Latency: lat, QueueWait: wait, ServiceCycles: res.TotalCycles,
			Preemptions: sc.Suspends, SpillBytes: sc.SpillBytes, ReloadBytes: sc.ReloadBytes,
		},
		Handoffs: t.handoffs,
		stream:   t.stream,
	})
	e.led.MakespanCycles = max(e.led.MakespanCycles, now)
	e.settled++
	t.run = nil // release the finished run's pool
	return nil
}

// ledger completes the ledger once the loop has drained.
func (e *engine) ledger() *Ledger {
	l := &e.led
	for i := range l.Streams {
		s := &l.Streams[i]
		s.Latency, s.QueueWait = quantiles(s.latencies), quantiles(s.queueWaits)
		if n := len(s.latencies); n > 0 {
			var sum int64
			for _, v := range s.latencies {
				sum += v
			}
			s.MeanLatency = float64(sum) / float64(n)
		}
		if s.Compression != nil {
			if l.Compression == nil {
				l.Compression = &stats.CompressionStats{}
			}
			l.Compression.Add(*s.Compression)
		}
	}
	l.Chips = e.chips
	if e.fabric != nil {
		l.Noc = e.fabric.Stats()
	}
	return l
}

func (e *engine) label(t *tenant) string {
	return fmt.Sprintf("%s request %d", e.led.Streams[t.stream].Name, t.seq)
}

// remove deletes t from list, keeping the order of the rest.
func remove(list []*tenant, t *tenant) []*tenant {
	for i, x := range list {
		if x == t {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// profile runs one uncontended single-tenant inference to measure
// per-layer cycles (the balancing input of LeastLoad/Affinity) and the
// stream's single-tenant baseline, against which sharded service
// cycles reconcile bit-identically.
func profile(ctx context.Context, net *nn.Network, cfg core.Config, strat core.Strategy) ([]int64, int64, error) {
	res, err := core.SimulateContext(ctx, net, cfg, strat, nil)
	if err != nil {
		return nil, 0, err
	}
	perLayer := make([]int64, len(res.Layers))
	for i, ls := range res.Layers {
		perLayer[i] = ls.Cycles
	}
	return perLayer, res.TotalCycles, nil
}
