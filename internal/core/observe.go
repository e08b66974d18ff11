package core

import (
	"shortcutmining/internal/dram"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/trace"
)

// Metric names exposed by an observed run. The per-layer cycle
// counters are the acceptance contract: their sum equals
// RunStats.TotalCycles exactly.
const (
	MetricLayerCycles        = "scm_layer_cycles_total"
	MetricLayerComputeCycles = "scm_layer_compute_cycles_total"
	MetricLayerMemCycles     = "scm_layer_mem_cycles_total"
	MetricDRAMBytes          = "scm_dram_bytes_total"
	MetricDRAMTransfers      = "scm_dram_transfers_total"
	MetricDRAMBurstBytes     = "scm_dram_burst_bytes"
	MetricDRAMUtilization    = "scm_dram_bandwidth_utilization"
	MetricPoolUsedPeak       = "scm_pool_used_banks_peak"
	MetricPoolPinnedPeak     = "scm_pool_pinned_banks_peak"
	MetricProcHits           = "scm_proc_hits_total"
	MetricProcMisses         = "scm_proc_misses_total"

	// Interlayer-compression metrics (absent when no codec is
	// configured; registered lazily at run finish).
	MetricCompressLogicalBytes = "scm_compress_logical_bytes_total"
	MetricCompressWireBytes    = "scm_compress_wire_bytes_total"
	MetricCompressSavedBytes   = "scm_compress_saved_bytes_total"
	MetricCompressCodecCycles  = "scm_compress_codec_cycles_total"

	// Fault-injection metrics (all zero in a fault-free run).
	MetricFaultsInjected  = "scm_faults_injected_total"
	MetricDMARetries      = "scm_dma_retries_total"
	MetricDMARetryCycles  = "scm_dma_retry_cycles_total"
	MetricBankRelocations = "scm_bank_relocations_total"
	MetricFaultSpillBytes = "scm_fault_spill_bytes_total"
	MetricDegradedCycles  = "scm_dram_degraded_cycles_total"
	MetricBandwidthFactor = "scm_dram_bandwidth_factor"
	MetricPoolFailedBanks = "scm_pool_failed_banks"
)

// Fault kind labels of MetricFaultsInjected.
const (
	FaultBankFail      = "bank-fail"
	FaultBankTransient = "bank-transient"
	FaultBWDegrade     = "bw-degrade"
)

// Procedure labels of the hit/miss counters. Hit/miss semantics per
// procedure (an operand under partial retention can count on both
// sides — the on-chip prefix hits, the DRAM remainder misses):
//
//	p2  hit: an output buffer was role-switched into the next layer's
//	    input; miss: an adjacent producer's bytes had to stream back
//	    from DRAM despite role switching being on (capacity spill).
//	p3  hit: a shortcut operand (producer distance > 1) was served
//	    from retained banks; miss: shortcut bytes were re-fetched.
//	p4  hit: an element-wise add recycled consumed operand banks into
//	    its output; miss: recycling was enabled at an add but no bank
//	    could be recycled.
//	p5  hit: partial retention kept a non-empty prefix of an output
//	    that did not fully fit; miss: an output that wanted on-chip
//	    placement retained nothing.
const (
	ProcRoleSwitch = "p2"
	ProcRetention  = "p3"
	ProcRecycle    = "p4"
	ProcPartial    = "p5"
)

// procedure indexes the observer's hit/miss counts; procLabels holds
// each one's proc label.
type procedure int

const (
	procP2 procedure = iota // role switching
	procP3                  // shortcut retention
	procP4                  // incremental recycling
	procP5                  // partial retention
	numProcs
)

var procLabels = [numProcs]string{ProcRoleSwitch, ProcRetention, ProcRecycle, ProcPartial}

// observer counts, during an observed run, only what no ledger of the
// run holds: per-class transfer counts and burst sizes (from the
// channel hook), P2–P5 hits and misses, and bandwidth-factor changes.
// finishRun writes every other family once from RunStats, its
// FaultStats included, the pool's failed-bank count and the injector's
// final factor. A nil *observer disables observation with a single
// branch per site.
type observer struct {
	reg   *metrics.Registry
	burst *metrics.Histogram
	util  *metrics.Histogram

	transfers    [dram.NumClasses]int64
	hits, misses [numProcs]int64
	bwChanges    int64
}

// newObserver registers the two histogram families first, so they lead
// the registry's family order, and hooks ch's transfers. Returns nil
// for a nil registry so call sites can gate on one pointer.
func newObserver(reg *metrics.Registry, ch *dram.Channel) *observer {
	if reg == nil {
		return nil
	}
	o := &observer{
		reg: reg,
		burst: reg.Histogram(MetricDRAMBurstBytes,
			"burst-rounded bytes moved per DRAM transfer, for one image",
			metrics.ExpBuckets(64, 4, 10)), // 64 B .. 16 MiB
		util: reg.Histogram(MetricDRAMUtilization,
			"per-layer feature-map channel occupancy (mem cycles / layer cycles), for one image",
			[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}),
	}
	ch.SetObserver(func(c dram.Class, _, moved int64) {
		o.transfers[c]++
		o.burst.Observe(float64(moved))
	})
	return o
}

// hit / miss count one outcome of a procedure; nil-safe.
func (o *observer) hit(p procedure) {
	if o != nil {
		o.hits[p]++
	}
}

func (o *observer) miss(p procedure) {
	if o != nil {
		o.misses[p]++
	}
}

// factorChanged counts one change of the injected bandwidth factor;
// nil-safe.
func (o *observer) factorChanged() {
	if o != nil {
		o.bwChanges++
	}
}

// finishRun writes every family of the finished run e.run and embeds
// the registry snapshot in the run result. Registration order is the
// exposition's family and series order, which observed_metrics.golden
// pins. Two families are contracts:
// DRAM bytes equal RunStats.Traffic class by class, and the per-layer
// cycle attribution is batch-scaled so it sums to
// RunStats.TotalCycles exactly. Transfer counts and burst sizes stay
// those of the one simulated image.
func (o *observer) finishRun(e *executor) {
	if o == nil {
		return
	}
	reg, r, batch := o.reg, &e.run, int64(e.cfg.Batch)
	reg.Gauge(MetricPoolUsedPeak,
		"high-water mark of occupied SRAM banks, for one image").Set(float64(r.PeakUsedBanks))
	reg.Gauge(MetricPoolPinnedPeak,
		"high-water mark of pinned (retained) SRAM banks, for one image").Set(float64(r.PeakPinnedBanks))
	for _, c := range dram.Classes() {
		l := metrics.L("class", c.String())
		reg.Counter(MetricDRAMBytes, "burst-rounded off-chip bytes by traffic class, scaled by batch", l).Add(r.Traffic[c])
		reg.Counter(MetricDRAMTransfers, "DRAM transfers by traffic class, for one image", l).Add(o.transfers[c])
	}
	for p, label := range procLabels {
		l := metrics.L("proc", label)
		reg.Counter(MetricProcHits,
			"times a Shortcut Mining procedure served its purpose, for one image", l).Add(o.hits[p])
		reg.Counter(MetricProcMisses,
			"times a Shortcut Mining procedure fell back to DRAM, for one image", l).Add(o.misses[p])
	}
	f := &r.Faults
	for _, k := range [...]struct {
		kind string
		n    int64
	}{{FaultBankFail, f.BankFailures}, {FaultBankTransient, f.TransientErrors}, {FaultBWDegrade, o.bwChanges}} {
		reg.Counter(MetricFaultsInjected, "injected faults by kind, for the whole run", metrics.L("kind", k.kind)).Add(k.n)
	}
	reg.Counter(MetricDMARetries,
		"DMA transfer attempts that failed and were reissued, for the whole run").Add(f.DMARetries)
	reg.Counter(MetricDMARetryCycles,
		"cycles spent on DMA re-transfers and exponential backoff, for the whole run").Add(f.DMARetryCycles)
	reg.Counter(MetricBankRelocations,
		"failing banks whose contents migrated to a spare bank, for the whole run").Add(f.Relocations)
	reg.Counter(MetricFaultSpillBytes,
		"bytes P5-spilled to DRAM because a failing bank had no spare, for the whole run").Add(f.FaultSpillBytes)
	reg.Counter(MetricDegradedCycles,
		"extra channel cycles caused by bandwidth degradation, for the whole run").Add(f.DegradedCycles)
	bw := reg.Gauge(MetricBandwidthFactor,
		"current effective feature-map bandwidth multiplier (1 = nominal), for the whole run")
	bw.Set(1) // the run starts at nominal bandwidth: that is the gauge's peak
	bw.Set(e.inj.Factor())
	reg.Gauge(MetricPoolFailedBanks,
		"SRAM banks retired from service, for the whole run").Set(float64(e.pool.FailedBanks()))
	for i := range r.Layers {
		ls := &r.Layers[i]
		if ls.Cycles > 0 {
			o.util.Observe(float64(ls.MemCycles) / float64(ls.Cycles))
		}
		l := metrics.L("layer", ls.Name)
		reg.Counter(MetricLayerCycles,
			"attributed cycles per layer, scaled by batch (sums to RunStats.TotalCycles)", l).Add(ls.Cycles * batch)
		reg.Counter(MetricLayerComputeCycles,
			"PE-array cycles per layer, scaled by batch", l).Add(ls.ComputeCycles * batch)
		reg.Counter(MetricLayerMemCycles,
			"feature-map channel occupancy cycles per layer, scaled by batch", l).Add(ls.MemCycles * batch)
	}
	if cs := r.Compression; cs != nil {
		for _, c := range dram.Classes() {
			if !c.Compressible() {
				continue
			}
			l := metrics.L("class", c.String())
			reg.Counter(MetricCompressLogicalBytes,
				"pre-codec (logical) bytes by compressible traffic class, scaled by batch", l).Add(cs.Logical[c])
			reg.Counter(MetricCompressWireBytes,
				"post-codec wire payload bytes by compressible traffic class, scaled by batch", l).Add(cs.Wire[c])
		}
		reg.Counter(MetricCompressSavedBytes,
			"bytes the interlayer codec kept off the wire, scaled by batch").Add(cs.SavedBytes)
		reg.Counter(MetricCompressCodecCycles,
			"codec engine cycles serialized into the run, scaled by batch",
			metrics.L("dir", "encode")).Add(cs.EncodeCycles)
		reg.Counter(MetricCompressCodecCycles,
			"codec engine cycles serialized into the run, scaled by batch",
			metrics.L("dir", "decode")).Add(cs.DecodeCycles)
	}
	r.Metrics = reg.Snapshot()
}

// record stamps the event with the executor's layer clock and forwards
// it to the trace recorder, if any.
func (e *executor) record(ev trace.Event) {
	if e.rec == nil {
		return
	}
	ev.Cycle = e.clock
	e.rec.Record(ev)
}

// recordSpan forwards an interval event (DMA transfer, layer span)
// with an explicit start cycle and duration.
func (e *executor) recordSpan(ev trace.Event, start, dur int64) {
	if e.rec == nil {
		return
	}
	ev.Cycle = start
	ev.DurCycles = dur
	e.rec.Record(ev)
}

// transferSpan moves bytes over the feature-map channel, advances the
// DMA cursor by the transfer's occupancy cycles, and returns the moved
// bytes plus the span for trace stamping. The cursor never runs
// backwards: it is pulled up to the layer clock at layer entry, so
// DMA spans stay monotone across the whole run.
//
// Under fault injection the span stretches: bandwidth degradation
// scales the occupancy by 1/factor, and each injected transient
// failure reissues the transfer after an exponentially growing
// backoff. Exhausting the per-transfer attempt budget is a fatal
// stuck-progress RunError.
func (e *executor) transferSpan(c dram.Class, bytes int64) (moved, start, dur int64, err error) {
	moved = e.ch.Transfer(c, bytes)
	dur = e.ch.CyclesAt(moved, e.cfg.PE.ClockMHz)
	if e.comp != nil && moved > 0 {
		// Codec engine time is charged on the logical payload and
		// serialized into the layer (like fault handling), not into the
		// channel-occupancy span: the channel only sees wire bytes.
		enc, dec := e.comp.CodecCycles(c, bytes)
		e.encCycles += enc
		e.decCycles += dec
		e.layerCodecCycles += enc + dec
	}
	if f := e.inj.Factor(); f < 1 && dur > 0 {
		scaled := int64(float64(dur)/f + 0.999999)
		e.flt.DegradedCycles += scaled - dur
		dur = scaled
	}
	if moved > 0 {
		if err := e.retryLoop(c, bytes, moved, dur); err != nil {
			return moved, e.memCursor, dur, err
		}
	}
	start = e.memCursor
	e.memCursor += dur
	return moved, start, dur, nil
}
