package core

import (
	"fmt"

	"shortcutmining/internal/dram"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sram"
	"shortcutmining/internal/stats"
)

// SnapshotVersion is the RunSnapshot wire-format version. Decoders
// reject snapshots from a different version instead of guessing.
const SnapshotVersion = 1

// RunSnapshot is the serializable state of a suspended Run: everything
// RestoreRun needs to rebuild a Run that finishes with RunStats
// bit-identical to a run that was never torn down. It exists so the
// serving tier can journal a long simulation at layer boundaries and,
// after a crash, resume mid-network instead of recomputing.
//
// Only suspended runs snapshot cleanly — at a suspension boundary the
// bank pool is empty and the whole live state fits the fields below.
// Runs with a trace recorder, a metrics registry, fault injection, or
// functional verification attached refuse to snapshot: their state
// (emitted events, registry series, RNG draws, golden payloads) lives
// outside the Run and cannot be rebuilt faithfully.
type RunSnapshot struct {
	Version int    `json:"version"`
	Network string `json:"network"`
	// Label is the canonical strategy override of NewRun ("" for runs
	// built from an explicit feature set).
	Label    string   `json:"label,omitempty"`
	Features Features `json:"features"`

	// Next is the index of the next layer to execute; Clock and
	// MemCursor are the executor's cycle cursors at the boundary.
	Next      int   `json:"next"`
	Clock     int64 `json:"clock"`
	MemCursor int64 `json:"mem_cursor"`

	Sched     SchedStats         `json:"sched"`
	Saved     []SavedBuffer      `json:"saved,omitempty"`
	Residents []ResidentSnapshot `json:"residents,omitempty"`

	// Traffic, RawTraffic, and LogicalTraffic restore the DRAM channel
	// tally; PoolStats restores the bank pool's cumulative telemetry
	// (peaks, role switches) that finish() folds into RunStats.
	// LogicalTraffic and the codec cycle counters are zero in snapshots
	// from builds without compression support — valid, because those
	// builds could only run uncompressed.
	Traffic        dram.Traffic `json:"traffic"`
	RawTraffic     dram.Traffic `json:"raw_traffic"`
	LogicalTraffic dram.Traffic `json:"logical_traffic"`
	PoolStats      sram.Stats   `json:"pool_stats"`

	// EncodeCycles / DecodeCycles carry the interlayer codec engine
	// time accrued so far (zero when compression is off).
	EncodeCycles int64 `json:"encode_cycles,omitempty"`
	DecodeCycles int64 `json:"decode_cycles,omitempty"`

	// Scratch is the partially assembled RunStats (header plus the
	// per-layer records of every executed layer).
	Scratch stats.RunStats `json:"scratch"`
}

// SavedBuffer is the serializable form of what Suspend remembered
// about one torn-down logical buffer.
type SavedBuffer struct {
	Producer int       `json:"producer"`
	Role     sram.Role `json:"role"`
	Tag      string    `json:"tag"`
	Banks    int       `json:"banks"`
	Pinned   bool      `json:"pinned,omitempty"`
}

// ResidentSnapshot is the serializable form of one feature map's
// placement record. At a suspension boundary no resident owns a
// buffer, so the on-chip portion is fully described by OnChip (the
// bytes Resume must re-load).
type ResidentSnapshot struct {
	Producer      int   `json:"producer"`
	Total         int64 `json:"total"`
	OnChip        int64 `json:"on_chip"`
	Spilled       int64 `json:"spilled"`
	ConsumersLeft int   `json:"consumers_left"`
	LastUse       int   `json:"last_use"`
}

// Snapshot captures the state of a suspended run. It errors on runs
// that are not suspended, already finished or failed, or that carry
// un-serializable attachments (trace recorder, metrics registry,
// fault injection, functional verification). An explicit trace.Nop
// recorder emits nothing and does not count as an attachment.
func (r *Run) Snapshot() (*RunSnapshot, error) {
	name := r.e.net.Name
	switch {
	case r.err != nil:
		return nil, r.err
	case r.done:
		return nil, fmt.Errorf("core: %s: cannot snapshot a finished run", name)
	case !r.suspended:
		return nil, fmt.Errorf("core: %s: snapshot requires a suspended run (call Suspend first)", name)
	case r.e.fn != nil:
		return nil, fmt.Errorf("core: %s: functional-verification runs cannot be snapshotted", name)
	case r.e.inj != nil:
		return nil, fmt.Errorf("core: %s: fault-injected runs cannot be snapshotted (injector RNG state is not serializable)", name)
	case r.e.obs != nil:
		return nil, fmt.Errorf("core: %s: observed runs cannot be snapshotted (registry state lives outside the run)", name)
	}
	if r.e.rec != nil {
		return nil, fmt.Errorf("core: %s: traced runs cannot be snapshotted (emitted events cannot be rebuilt)", name)
	}
	snap := &RunSnapshot{
		Version:        SnapshotVersion,
		Network:        name,
		Label:          r.label,
		Features:       r.e.feat,
		Next:           r.next,
		Clock:          r.e.clock,
		MemCursor:      r.e.memCursor,
		Sched:          r.sched,
		Traffic:        r.e.ch.Traffic(),
		RawTraffic:     r.e.ch.RawTraffic(),
		LogicalTraffic: r.e.ch.LogicalTraffic(),
		PoolStats:      r.e.pool.Stats(),
		EncodeCycles:   r.e.encCycles,
		DecodeCycles:   r.e.decCycles,
		Scratch:        r.e.run,
	}
	for _, s := range r.saved {
		snap.Saved = append(snap.Saved, SavedBuffer{
			Producer: s.producer, Role: s.role, Tag: s.tag, Banks: s.banks, Pinned: s.pinned,
		})
	}
	for p, res := range r.e.residents {
		if res == nil {
			continue
		}
		snap.Residents = append(snap.Residents, ResidentSnapshot{
			Producer: p, Total: res.total, OnChip: res.onChip, Spilled: res.spilled,
			ConsumersLeft: res.consumersLeft, LastUse: res.lastUse,
		})
	}
	return snap, nil
}

// Validate checks a decoded snapshot's internal consistency against
// the network it claims to continue. It classifies malformed input as
// an error instead of letting RestoreRun build a run that corrupts
// state later.
func (s *RunSnapshot) Validate(net *nn.Network) error {
	if s == nil {
		return fmt.Errorf("core: nil snapshot")
	}
	if s.Version != SnapshotVersion {
		return fmt.Errorf("core: snapshot version %d, this build reads %d", s.Version, SnapshotVersion)
	}
	if net == nil {
		return fmt.Errorf("core: snapshot restore needs a network")
	}
	if s.Network != net.Name {
		return fmt.Errorf("core: snapshot of %q cannot restore onto network %q", s.Network, net.Name)
	}
	n := len(net.Layers)
	if s.Next < 0 || s.Next >= n {
		return fmt.Errorf("core: snapshot next layer %d outside [0, %d)", s.Next, n)
	}
	if got := len(s.Scratch.Layers); got != s.Next {
		return fmt.Errorf("core: snapshot has %d layer records for %d executed layers", got, s.Next)
	}
	if s.Clock < 0 || s.MemCursor < 0 {
		return fmt.Errorf("core: snapshot has negative cycle cursor (clock %d, mem %d)", s.Clock, s.MemCursor)
	}
	if s.EncodeCycles < 0 || s.DecodeCycles < 0 {
		return fmt.Errorf("core: snapshot has negative codec cycles (enc %d, dec %d)", s.EncodeCycles, s.DecodeCycles)
	}
	// left[p] counts the layers still to run that read producer p: the
	// consumers its resident record must have left.
	cp := buildConsumptionPlan(net)
	left := make([]int, n)
	for _, distinct := range cp.distinct[s.Next:] {
		for _, p := range distinct {
			left[p]++
		}
	}
	seen := make([]bool, n)
	for _, rs := range s.Residents {
		if rs.Producer < 0 || rs.Producer >= s.Next {
			return fmt.Errorf("core: snapshot resident producer %d outside the executed layers [0, %d)", rs.Producer, s.Next)
		}
		if seen[rs.Producer] {
			return fmt.Errorf("core: snapshot has duplicate resident for producer %d", rs.Producer)
		}
		seen[rs.Producer] = true
		if rs.Total < 0 || rs.OnChip < 0 || rs.Spilled < 0 || rs.OnChip > rs.Total {
			return fmt.Errorf("core: snapshot resident %d has inconsistent byte counts (total %d, on-chip %d, spilled %d)",
				rs.Producer, rs.Total, rs.OnChip, rs.Spilled)
		}
		if rs.ConsumersLeft != left[rs.Producer] || rs.LastUse != cp.lastUse[rs.Producer] {
			return fmt.Errorf("core: snapshot resident %d has %d consumers left and last use %d, the network has %d and %d",
				rs.Producer, rs.ConsumersLeft, rs.LastUse, left[rs.Producer], cp.lastUse[rs.Producer])
		}
	}
	for p := range s.Next {
		if left[p] > 0 && !seen[p] {
			return fmt.Errorf("core: snapshot has no resident record for producer %d, which %d layers still read", p, left[p])
		}
	}
	for _, sb := range s.Saved {
		if sb.Producer < 0 || sb.Producer >= n {
			return fmt.Errorf("core: snapshot saved buffer producer %d outside [0, %d)", sb.Producer, n)
		}
		if !seen[sb.Producer] {
			return fmt.Errorf("core: snapshot saved buffer for producer %d has no resident record", sb.Producer)
		}
		if sb.Banks <= 0 {
			return fmt.Errorf("core: snapshot saved buffer for producer %d has %d banks", sb.Producer, sb.Banks)
		}
		if sb.Role != sram.RoleInput && sb.Role != sram.RoleOutput && sb.Role != sram.RoleRetained {
			return fmt.Errorf("core: snapshot saved buffer for producer %d has unknown role %d", sb.Producer, int(sb.Role))
		}
	}
	return nil
}

// RestoreRun rebuilds a suspended Run from a snapshot taken by
// Snapshot. The returned run behaves exactly like the original at the
// moment of suspension: the next Step auto-resumes (re-allocating the
// saved buffers and charging the re-load to the SchedStats ledger) and
// the finished RunStats is bit-identical to a run that was never
// suspended. cfg must describe the same platform the snapshot was
// taken under and must not carry a fault spec.
func RestoreRun(net *nn.Network, cfg Config, snap *RunSnapshot) (*Run, error) {
	if err := snap.Validate(net); err != nil {
		return nil, err
	}
	r, err := NewRunFeatures(net, cfg, snap.Features, nil, nil)
	if err != nil {
		return nil, err
	}
	if r.e.inj != nil {
		return nil, fmt.Errorf("core: %s: cannot restore a snapshot under a fault-injecting config", net.Name)
	}
	for _, rs := range snap.Residents {
		r.e.residents[rs.Producer] = &resident{
			producer: rs.Producer, total: rs.Total, onChip: rs.OnChip, spilled: rs.Spilled,
			consumersLeft: rs.ConsumersLeft, lastUse: rs.LastUse,
		}
	}
	for _, sb := range snap.Saved {
		r.saved = append(r.saved, savedBuffer{
			producer: sb.Producer, role: sb.Role, tag: sb.Tag, banks: sb.Banks, pinned: sb.Pinned,
		})
	}
	r.e.clock = snap.Clock
	r.e.memCursor = snap.MemCursor
	r.e.run = snap.Scratch
	r.e.ch.RestoreTraffic(snap.Traffic, snap.RawTraffic, snap.LogicalTraffic)
	r.e.pool.RestoreStats(snap.PoolStats)
	r.e.encCycles = snap.EncodeCycles
	r.e.decCycles = snap.DecodeCycles
	r.label = snap.Label
	r.sched = snap.Sched
	r.next = snap.Next
	r.suspended = true
	return r, nil
}
