// Package cluster reports one multi-tenant scheduling scenario sharded
// across N simulated accelerator chips connected by a contended
// interconnect (internal/noc). The scenario runs through sched's one
// event loop: each chip owns its own bank pool; a placement policy
// maps every stream's layers onto chips as contiguous segments (or
// per-layer for the hash baseline), and a request executes its
// segments in order, suspending P5-style at every chip boundary and
// handing its live feature-map and pinned-shortcut state to the next
// chip over the fabric.
//
// The execution model deliberately reuses the proven core.Run
// suspend/resume machinery at boundaries, so each request's own
// RunStats stay bit-identical to a single-chip run: all sharding costs
// — spill/reload at the boundary, link serialization, hop latency,
// and backpressure behind competing transfers — are ledgered
// separately and reconcile exactly (Result.Reconcile).
//
// Like sched, the whole simulation is deterministic: the same spec
// always yields byte-identical results. Segments are scheduled
// non-preemptively, earliest-start-first with (chip, stream, seq)
// tie-breaking, each chip serving one segment at a time.
package cluster

import (
	"context"
	"fmt"

	"shortcutmining/internal/core"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/sched"
	"shortcutmining/internal/trace"
)

// Run executes a chips>1 scenario and returns the sharded outcome.
// reg and rec may be nil (no metrics, no trace).
func Run(cfg core.Config, spec *sched.Spec, reg *metrics.Registry, rec trace.Recorder) (*Result, error) {
	return RunContext(context.Background(), cfg, spec, reg, rec)
}

// RunContext is Run with cooperative cancellation at layer granularity.
func RunContext(ctx context.Context, cfg core.Config, spec *sched.Spec, reg *metrics.Registry, rec trace.Recorder) (*Result, error) {
	if spec != nil && spec.Chips < 2 {
		return nil, fmt.Errorf("cluster: spec has chips=%d; single-chip scenarios run through sched", spec.Chips)
	}
	l, err := sched.Execute(ctx, cfg, spec, rec)
	if err != nil {
		return nil, err
	}
	res := view(l)
	publish(reg, res)
	return res, nil
}
