package cluster

import (
	"fmt"

	"shortcutmining/internal/core"
	"shortcutmining/internal/dram"
	"shortcutmining/internal/noc"
	"shortcutmining/internal/sched"
	"shortcutmining/internal/stats"
)

// RequestResult is one settled request's sharded timeline, in cycles.
type RequestResult struct {
	Stream    string `json:"stream"`
	Seq       int    `json:"seq"`
	Arrival   int64  `json:"arrival"`
	Start     int64  `json:"start"`
	Finish    int64  `json:"finish"`
	Latency   int64  `json:"latency"`
	QueueWait int64  `json:"queue_wait"`
	// ServiceCycles is the request's own attributed cycles —
	// bit-identical to its single-tenant run.
	ServiceCycles int64 `json:"service_cycles"`
	// Crossings counts chip boundaries the request traversed;
	// InterchipBytes the flit-rounded payload it moved over the fabric,
	// of which ShortcutHandoffBytes were pinned shortcut state forced
	// across a placement cut.
	Crossings            int   `json:"crossings"`
	InterchipBytes       int64 `json:"interchip_bytes"`
	ShortcutHandoffBytes int64 `json:"shortcut_handoff_bytes"`
	// InterchipLogicalBytes is the pre-codec handoff payload and
	// CodecCycles the interchip encode+decode time on this request's
	// critical path; both are zero when compression is off.
	InterchipLogicalBytes int64 `json:"interchip_logical_bytes,omitempty"`
	CodecCycles           int64 `json:"codec_cycles,omitempty"`
	// BackpressureCycles is the time this request's handoffs queued
	// behind competing transfers.
	BackpressureCycles int64 `json:"backpressure_cycles"`
}

// StreamResult is one stream's sharded QoS outcome.
type StreamResult struct {
	Name     string `json:"name"`
	Network  string `json:"network"`
	Strategy string `json:"strategy"`

	Requests  int `json:"requests"`
	Completed int `json:"completed"`

	Latency     sched.Quantiles `json:"latency_cycles"`
	QueueWait   sched.Quantiles `json:"queue_wait_cycles"`
	MeanLatency float64         `json:"mean_latency_cycles"`

	// ServiceCycles reconciles exactly: Completed × SingleTenantCycles.
	ServiceCycles      int64 `json:"service_cycles"`
	SingleTenantCycles int64 `json:"single_tenant_cycles"`

	// Sched ledgers the boundary suspend/resume costs; Crossings and
	// InterchipBytes the fabric traffic the placement induced.
	Sched          core.SchedStats `json:"sched"`
	Crossings      int64           `json:"crossings"`
	InterchipBytes int64           `json:"interchip_bytes"`
	// InterchipLogicalBytes / CodecCycles mirror the per-request fields;
	// Compression is the stream's full codec ledger (per-chip DRAM
	// boundaries plus interchip handoffs). All zero/nil without a
	// compress= clause.
	InterchipLogicalBytes int64                   `json:"interchip_logical_bytes,omitempty"`
	CodecCycles           int64                   `json:"codec_cycles,omitempty"`
	Compression           *stats.CompressionStats `json:"compression,omitempty"`

	// Traffic sums the completed requests' own DRAM traffic (excludes
	// boundary spill/reload and interchip bytes, reported above).
	Traffic dram.Traffic `json:"traffic"`
}

// ChipResult is one chip's activity ledger.
type ChipResult struct {
	Chip     int   `json:"chip"`
	Segments int64 `json:"segments"`
	// ComputeCycles is run-attributed execution; SpillCycles /
	// ReloadCycles the boundary evacuation and restore charged to this
	// chip's DRAM channel.
	ComputeCycles int64 `json:"compute_cycles"`
	SpillCycles   int64 `json:"spill_cycles"`
	ReloadCycles  int64 `json:"reload_cycles"`
	// CodecCycles is interchip codec engine time at this chip: encode
	// on egress handoffs, decode on ingress (zero without compression).
	CodecCycles int64 `json:"codec_cycles,omitempty"`
	// FinishCycle is when the chip went idle for good.
	FinishCycle int64 `json:"finish_cycle"`
}

// Result is a complete sharded-scenario outcome.
type Result struct {
	Chips     int    `json:"chips"`
	Topology  string `json:"topology"`
	Placement string `json:"placement"`
	Seed      int64  `json:"seed"`
	PoolBanks int    `json:"pool_banks"` // per chip

	MakespanCycles int64 `json:"makespan_cycles"`

	Streams   []StreamResult  `json:"streams"`
	Requests  []RequestResult `json:"requests"`
	ChipStats []ChipResult    `json:"chip_stats"`
	Noc       noc.FabricStats `json:"noc"`

	// Traffic aggregates every request's per-class DRAM bytes plus the
	// interchip class, which equals Noc.Bytes by construction.
	Traffic        dram.Traffic `json:"traffic"`
	InterchipBytes int64        `json:"interchip_bytes"`

	// InterchipLogicalBytes is the pre-codec handoff payload total and
	// Compression the cluster-wide codec ledger; zero/nil without a
	// compress= clause.
	InterchipLogicalBytes int64                   `json:"interchip_logical_bytes,omitempty"`
	Compression           *stats.CompressionStats `json:"compression,omitempty"`
}

// view is the multi-chip view of a scenario ledger.
func view(l *sched.Ledger) *Result {
	res := &Result{
		Chips:          l.Spec.Chips,
		Topology:       l.Topology,
		Placement:      l.Placement,
		Seed:           l.Spec.Seed,
		PoolBanks:      l.Config.Pool.NumBanks,
		MakespanCycles: l.MakespanCycles,
		Noc:            l.Noc,
		Compression:    l.Compression,
	}
	for _, s := range l.Streams {
		res.Streams = append(res.Streams, StreamResult{
			Name:     s.Name,
			Network:  s.Network,
			Strategy: s.Strategy,

			Requests:  s.Requests,
			Completed: s.Completed,

			Latency:     s.Latency,
			QueueWait:   s.QueueWait,
			MeanLatency: s.MeanLatency,

			ServiceCycles:      s.ServiceCycles,
			SingleTenantCycles: s.SingleTenantCycles,

			Sched:          s.Sched,
			Crossings:      s.Crossings,
			InterchipBytes: s.InterchipBytes,

			InterchipLogicalBytes: s.InterchipLogicalBytes,
			CodecCycles:           s.CodecCycles,
			Compression:           s.Compression,
			Traffic:               s.Traffic,
		})
		res.Traffic.Add(s.Traffic) // scmvet:ok accounting aggregate of per-stream ledgers into the cluster ledger
		res.InterchipBytes += s.InterchipBytes
		res.InterchipLogicalBytes += s.InterchipLogicalBytes
	}
	res.Traffic[dram.ClassInterchip] = res.InterchipBytes // scmvet:ok accounting fabric bytes enter the ledger under their own class
	for _, q := range l.Requests {
		res.Requests = append(res.Requests, RequestResult{
			Stream: q.Stream, Seq: q.Seq,
			Arrival: q.Arrival, Start: q.Start, Finish: q.Finish,
			Latency: q.Latency, QueueWait: q.QueueWait,
			ServiceCycles:         q.ServiceCycles,
			Crossings:             q.Crossings,
			InterchipBytes:        q.InterchipBytes,
			ShortcutHandoffBytes:  q.ShortcutHandoffBytes,
			InterchipLogicalBytes: q.InterchipLogicalBytes,
			CodecCycles:           q.CodecCycles,
			BackpressureCycles:    q.BackpressureCycles,
		})
	}
	for _, c := range l.Chips {
		res.ChipStats = append(res.ChipStats, ChipResult(c))
	}
	return res
}

// Reconcile cross-checks every ledger in the result; a non-nil error
// means cycles or bytes leaked between the per-request, per-chip,
// per-stream, and fabric views. E24 and the package tests call this on
// every run.
func (r *Result) Reconcile() error {
	var reqService, reqInter, reqQueue, reqInterLogical, reqCodec int64
	for _, q := range r.Requests {
		reqService += q.ServiceCycles
		reqInter += q.InterchipBytes
		reqQueue += q.BackpressureCycles
		reqInterLogical += q.InterchipLogicalBytes
		reqCodec += q.CodecCycles
	}
	var chipCompute, chipSpill, chipReload, chipCodec int64
	for _, c := range r.ChipStats {
		chipCompute += c.ComputeCycles
		chipSpill += c.SpillCycles
		chipReload += c.ReloadCycles
		chipCodec += c.CodecCycles
	}
	var streamService, streamInter, streamInterLogical, streamCodec int64
	var ledger core.SchedStats
	for _, s := range r.Streams {
		if s.Completed != s.Requests {
			return fmt.Errorf("cluster: stream %s completed %d of %d requests", s.Name, s.Completed, s.Requests)
		}
		if want := int64(s.Completed) * s.SingleTenantCycles; s.ServiceCycles != want {
			return fmt.Errorf("cluster: stream %s service cycles %d != completed×single-tenant %d — sharded runs are not bit-identical",
				s.Name, s.ServiceCycles, want)
		}
		streamService += s.ServiceCycles
		streamInter += s.InterchipBytes
		streamInterLogical += s.InterchipLogicalBytes
		streamCodec += s.CodecCycles
		ledger.SpillCycles += s.Sched.SpillCycles
		ledger.ReloadCycles += s.Sched.ReloadCycles
	}
	if reqService != chipCompute || reqService != streamService {
		return fmt.Errorf("cluster: service cycles leak: requests %d, chips %d, streams %d",
			reqService, chipCompute, streamService)
	}
	if chipSpill != ledger.SpillCycles || chipReload != ledger.ReloadCycles {
		return fmt.Errorf("cluster: boundary cycles leak: chips spill/reload %d/%d, streams %d/%d",
			chipSpill, chipReload, ledger.SpillCycles, ledger.ReloadCycles)
	}
	if reqInter != streamInter || reqInter != r.InterchipBytes || reqInter != r.Noc.Bytes {
		return fmt.Errorf("cluster: interchip bytes leak: requests %d, streams %d, result %d, fabric %d",
			reqInter, streamInter, r.InterchipBytes, r.Noc.Bytes)
	}
	if r.Traffic[dram.ClassInterchip] != r.Noc.Bytes {
		return fmt.Errorf("cluster: traffic ledger interchip class %d != fabric bytes %d",
			r.Traffic[dram.ClassInterchip], r.Noc.Bytes)
	}
	if reqQueue != r.Noc.BackpressureCycles {
		return fmt.Errorf("cluster: backpressure leak: requests %d, fabric %d", reqQueue, r.Noc.BackpressureCycles)
	}
	if reqInterLogical != streamInterLogical || reqInterLogical != r.InterchipLogicalBytes {
		return fmt.Errorf("cluster: interchip logical bytes leak: requests %d, streams %d, result %d",
			reqInterLogical, streamInterLogical, r.InterchipLogicalBytes)
	}
	if reqCodec != chipCodec || reqCodec != streamCodec {
		return fmt.Errorf("cluster: codec cycles leak: requests %d, chips %d, streams %d",
			reqCodec, chipCodec, streamCodec)
	}
	if r.Compression != nil {
		cl := r.Compression.Logical[dram.ClassInterchip]
		if cl != r.InterchipLogicalBytes {
			return fmt.Errorf("cluster: codec ledger interchip logical %d != result %d", cl, r.InterchipLogicalBytes)
		}
		// The codec ledger's wire bytes are pre-flit-rounding, so they
		// bound the fabric's rounded byte count from below.
		if cw := r.Compression.Wire[dram.ClassInterchip]; cw > r.Noc.Bytes {
			return fmt.Errorf("cluster: codec ledger interchip wire %d exceeds fabric bytes %d", cw, r.Noc.Bytes)
		}
	}
	var linkQueue, linkBusy int64
	for _, l := range r.Noc.Links {
		linkQueue += l.BackpressureCycles
		linkBusy += l.BusyCycles
	}
	if linkQueue != r.Noc.BackpressureCycles || linkBusy != r.Noc.BusyCycles {
		return fmt.Errorf("cluster: per-link sums %d/%d != fabric totals %d/%d",
			linkQueue, linkBusy, r.Noc.BackpressureCycles, r.Noc.BusyCycles)
	}
	return nil
}

// Table renders the per-stream sharded QoS for CLI / markdown use.
func (r *Result) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Sharded QoS (chips=%d, topo=%s, place=%s, seed=%d)",
			r.Chips, r.Topology, r.Placement, r.Seed),
		"stream", "network", "reqs", "done",
		"lat p50 (Mcyc)", "lat p95 (Mcyc)",
		"crossings", "interchip MB", "backpressure (Mcyc)")
	mcyc := func(v int64) string { return fmt.Sprintf("%.2f", float64(v)/1e6) }
	for _, s := range r.Streams {
		var bp int64
		for _, q := range r.Requests {
			if q.Stream == s.Name {
				bp += q.BackpressureCycles
			}
		}
		t.Add(s.Name, s.Network,
			fmt.Sprintf("%d", s.Requests), fmt.Sprintf("%d", s.Completed),
			mcyc(s.Latency.P50), mcyc(s.Latency.P95),
			fmt.Sprintf("%d", s.Crossings),
			fmt.Sprintf("%.2f", float64(s.InterchipBytes)/1e6),
			mcyc(bp))
	}
	return t
}

// ChipTable renders the per-chip activity ledger.
func (r *Result) ChipTable() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Per-chip activity (chips=%d, topo=%s, place=%s)", r.Chips, r.Topology, r.Placement),
		"chip", "segments", "compute (Mcyc)", "spill (Mcyc)", "reload (Mcyc)", "finish (Mcyc)")
	mcyc := func(v int64) string { return fmt.Sprintf("%.2f", float64(v)/1e6) }
	for _, c := range r.ChipStats {
		t.Add(fmt.Sprintf("c%d", c.Chip), fmt.Sprintf("%d", c.Segments),
			mcyc(c.ComputeCycles), mcyc(c.SpillCycles), mcyc(c.ReloadCycles), mcyc(c.FinishCycle))
	}
	return t
}
