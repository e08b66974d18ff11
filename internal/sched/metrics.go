package sched

import (
	"shortcutmining/internal/metrics"
)

// Scheduler metric names (the per-run simulator metrics live in
// internal/core; these describe the multi-tenant layer above it).
const (
	MetricRequests       = "scm_sched_requests_total"
	MetricPreemptions    = "scm_sched_preemptions_total"
	MetricTenancyBytes   = "scm_sched_tenancy_bytes_total"
	MetricLatencyCycles  = "scm_sched_latency_cycles"
	MetricQueueCycles    = "scm_sched_queue_wait_cycles"
	MetricResidentRuns   = "scm_sched_resident_runs_peak"
	MetricMakespanCycles = "scm_sched_makespan_cycles"
	// MetricCompressSaved counts bytes the interlayer codec kept off the
	// DRAM bus, per stream (zero when the spec has no compress= clause).
	MetricCompressSaved = "scm_sched_compress_saved_bytes_total"
)

// publish exports a finished result onto the registry. The simulation
// is a deterministic batch, so instruments are written once from the
// assembled result rather than streamed mid-run.
func publish(reg *metrics.Registry, r *Result) {
	if reg == nil {
		return
	}
	reg.Gauge(MetricResidentRuns, "high-water mark of co-resident runs").SetMax(float64(r.PeakResident))
	reg.Gauge(MetricMakespanCycles, "finish cycle of the last completed request").Set(float64(r.MakespanCycles))
	// Latency buckets span one fast layer (~1e4 cycles) to minutes of
	// queueing at 200 MHz (~1e10 cycles).
	bounds := metrics.ExpBuckets(1e4, 4, 11)
	latency := map[string]*metrics.Histogram{}
	queue := map[string]*metrics.Histogram{}
	for _, s := range r.Streams {
		l := metrics.L("stream", s.Name)
		reg.Counter(MetricRequests, "requests by terminal state", l, metrics.L("state", "completed")).Add(int64(s.Completed))
		reg.Counter(MetricRequests, "requests by terminal state", l, metrics.L("state", "rejected")).Add(int64(s.Rejected))
		reg.Counter(MetricPreemptions, "layer-boundary suspensions per stream", l).Add(s.Preemptions)
		reg.Counter(MetricTenancyBytes, "bytes spilled at preemption and re-loaded at resumption", l).Add(s.Sched.SpillBytes)
		var saved int64
		if s.Compression != nil {
			saved = s.Compression.SavedBytes
		}
		reg.Counter(MetricCompressSaved, "bytes the interlayer codec kept off the DRAM bus", l).Add(saved)
		latency[s.Name] = reg.Histogram(MetricLatencyCycles, "request latency (arrival to completion) in cycles", bounds, l)
		queue[s.Name] = reg.Histogram(MetricQueueCycles, "cycles between arrival and first executed layer", bounds, l)
	}
	for _, q := range r.Requests {
		latency[q.Stream].Observe(float64(q.Latency))
		queue[q.Stream].Observe(float64(q.QueueWait))
	}
}
