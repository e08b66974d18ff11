package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"shortcutmining/internal/dram"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sram"
	"shortcutmining/internal/stats"
)

// SnapshotVersion is the RunSnapshot wire-format version. Version 2
// snapshots are deltas: each carries the layer records executed since
// the previous one (From) and a hash of its platform. A version 1
// snapshot is a whole run state and is accepted only as the head of a
// chain (see FoldSnapshots); any other version is refused instead of
// guessed at.
const SnapshotVersion = 2

// ErrPlatformMismatch classifies a restore under a platform other than
// the one the snapshot was taken on: the run would continue with a
// different pool, channel or PE array and no longer match a run that
// was never torn down.
var ErrPlatformMismatch = errors.New("core: snapshot was taken under a different platform")

// RunSnapshot is the serializable state of a suspended Run: everything
// RestoreRun needs to rebuild a Run that finishes with RunStats
// bit-identical to a run that was never torn down. It exists so the
// serving tier can journal a long simulation at layer boundaries and,
// after a crash, resume mid-network instead of recomputing.
//
// A snapshot is one link of a chain. Snapshot(from) records only the
// layers [From, Next); FoldSnapshots joins a chain whose first link
// starts at layer 0 back into one whole snapshot, which is what
// Validate and RestoreRun take.
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
	// Label names the feature set (featureLabel); Validate requires it
	// to match Features.
	Label    string   `json:"label,omitempty"`
	Features Features `json:"features"`
	// Platform is the hex SHA-256 of the canonical encoding of the
	// Config the run was built with (EncodeConfigJSON). RestoreRun
	// refuses any other platform. Empty in version 1 snapshots, which
	// predate it; those restore unchecked.
	Platform string `json:"platform,omitempty"`

	// From is the first layer whose record Scratch.Layers carries; the
	// records of layers [0, From) are in the earlier links of the chain.
	// Next is the index of the next layer to execute; Clock and
	// MemCursor are the executor's cycle cursors at the boundary.
	From      int   `json:"from"`
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

	// Scratch is the partially assembled RunStats: the header plus the
	// per-layer records of layers [From, Next).
	Scratch stats.RunStats `json:"scratch"`
}

// SavedBuffer records what Suspend tore down of one logical buffer,
// so that Resume can rebuild an equivalent pool state: the same bank
// count, role, tag and pin status yield identical downstream
// scheduling decisions. A Run and its snapshots share this record.
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
// bytes Resume must re-load). Only feature maps that a later layer
// still reads are recorded: a consumed one has no buffer and nothing
// reads it again.
type ResidentSnapshot struct {
	Producer      int   `json:"producer"`
	Total         int64 `json:"total"`
	OnChip        int64 `json:"on_chip"`
	Spilled       int64 `json:"spilled"`
	ConsumersLeft int   `json:"consumers_left"`
	LastUse       int   `json:"last_use"`
}

// Snapshot captures the state of a suspended run, with the layer
// records of layers [from, NextLayer()): from 0 for a whole snapshot,
// the previous link's Next for the next link of a chain. It errors on
// runs that are not suspended, already finished or failed, or that
// carry un-serializable attachments (trace recorder, metrics registry,
// fault injection, functional verification). An explicit trace.Nop
// recorder emits nothing and does not count as an attachment.
func (r *Run) Snapshot(from int) (*RunSnapshot, error) {
	name := r.e.net.Name
	switch {
	case from < 0 || from > r.next:
		return nil, fmt.Errorf("core: %s: snapshot from layer %d outside [0, %d]", name, from, r.next)
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
	if r.e.platform == "" {
		p, err := platformHash(r.e.cfg)
		if err != nil {
			return nil, err
		}
		r.e.platform = p
	}
	scratch := r.e.run
	scratch.Layers = scratch.Layers[from:r.next]
	snap := &RunSnapshot{
		Version:        SnapshotVersion,
		Network:        name,
		Label:          featureLabel(r.e.feat),
		Features:       r.e.feat,
		Platform:       r.e.platform,
		From:           from,
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
		Scratch:        scratch,
		// A copy: Resume truncates and Suspend refills r.saved in place.
		Saved: append([]SavedBuffer(nil), r.saved...),
	}
	for p := range r.e.residents {
		res := &r.e.residents[p]
		if !res.live || res.consumersLeft == 0 {
			continue
		}
		snap.Residents = append(snap.Residents, ResidentSnapshot{
			Producer: p, Total: res.total, OnChip: res.onChip, Spilled: res.spilled,
			ConsumersLeft: int(res.consumersLeft), LastUse: int(res.lastUse),
		})
	}
	return snap, nil
}

// platformHash names a platform by the SHA-256 of its canonical
// encoding.
func platformHash(cfg Config) (string, error) {
	h := sha256.New()
	if err := EncodeConfigJSON(h, cfg); err != nil {
		return "", fmt.Errorf("core: hashing the platform: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// FoldSnapshots joins a chain of snapshots, in the order they were
// taken, back into one whole snapshot: the layer records of every link
// in turn and the run state of the last. The first link must start at
// layer 0 and each later one where its predecessor ended; all must name
// the same network and feature set. A version 1 snapshot is a whole
// run state and may head a chain; every other link must be of the
// current version. The result is still to be checked against its
// network by Validate (RestoreRun does so).
func FoldSnapshots(parts []*RunSnapshot) (*RunSnapshot, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: no snapshots to fold")
	}
	head := parts[0]
	n := 0
	for i, p := range parts {
		switch {
		case p == nil:
			return nil, fmt.Errorf("core: snapshot %d of the chain is nil", i)
		case p.Version != SnapshotVersion && (i > 0 || p.Version != 1):
			return nil, fmt.Errorf("core: snapshot %d of the chain has version %d, this build reads %d (or 1 at the head)",
				i, p.Version, SnapshotVersion)
		case p.Network != head.Network || p.Label != head.Label:
			return nil, fmt.Errorf("core: snapshot %d of the chain is of %q/%q, the chain of %q/%q",
				i, p.Network, p.Label, head.Network, head.Label)
		case i == 0 && p.From != 0:
			return nil, fmt.Errorf("core: chain starts at layer %d, not 0", p.From)
		case i > 0 && p.From != parts[i-1].Next:
			return nil, fmt.Errorf("core: snapshot %d of the chain starts at layer %d, its predecessor ends at %d",
				i, p.From, parts[i-1].Next)
		case len(p.Scratch.Layers) != p.Next-p.From:
			return nil, fmt.Errorf("core: snapshot %d of the chain has %d layer records for layers [%d, %d)",
				i, len(p.Scratch.Layers), p.From, p.Next)
		}
		n += len(p.Scratch.Layers)
	}
	last := parts[len(parts)-1]
	whole := *last
	whole.Version, whole.From = SnapshotVersion, 0
	if len(parts) > 1 {
		whole.Scratch.Layers = make([]stats.LayerStats, 0, n)
		for _, p := range parts {
			whole.Scratch.Layers = append(whole.Scratch.Layers, p.Scratch.Layers...)
		}
	}
	return &whole, nil
}

// Validate checks a whole snapshot's internal consistency against the
// network it claims to continue. It classifies malformed input as an
// error instead of letting RestoreRun build a run that corrupts state
// later. A link that does not start at layer 0 is refused: fold its
// chain first.
func (s *RunSnapshot) Validate(net *nn.Network) error {
	if s == nil {
		return fmt.Errorf("core: nil snapshot")
	}
	if s.Version != SnapshotVersion {
		return fmt.Errorf("core: snapshot version %d, this build reads %d", s.Version, SnapshotVersion)
	}
	if s.From != 0 {
		return fmt.Errorf("core: snapshot starts at layer %d; fold its chain (FoldSnapshots) before restoring", s.From)
	}
	if net == nil {
		return fmt.Errorf("core: snapshot restore needs a network")
	}
	cp, err := net.Plan()
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if s.Network != net.Name {
		return fmt.Errorf("core: snapshot of %q cannot restore onto network %q", s.Network, net.Name)
	}
	if label := featureLabel(s.Features); s.Label != label || s.Scratch.Strategy != label {
		return fmt.Errorf("core: snapshot labels %q (stats %q) do not name its features %q", s.Label, s.Scratch.Strategy, label)
	}
	if s.Scratch.Network != s.Network {
		return fmt.Errorf("core: snapshot stats name network %q, the snapshot %q", s.Scratch.Network, s.Network)
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
	left := make([]int, n)
	for j := s.Next; j < n; j++ {
		for _, p := range cp.Distinct(j) {
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
		if rs.ConsumersLeft != left[rs.Producer] || rs.LastUse != cp.LastUse(rs.Producer) {
			return fmt.Errorf("core: snapshot resident %d has %d consumers left and last use %d, the network has %d and %d",
				rs.Producer, rs.ConsumersLeft, rs.LastUse, left[rs.Producer], cp.LastUse(rs.Producer))
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
// taken under (a mismatch is ErrPlatformMismatch) and must not carry a
// fault spec. A chain of snapshots is folded by FoldSnapshots first.
func RestoreRun(net *nn.Network, cfg Config, snap *RunSnapshot) (*Run, error) {
	if err := snap.Validate(net); err != nil {
		return nil, err
	}
	r, err := newRun(net, cfg, snap.Features, nil, nil)
	if err != nil {
		return nil, err
	}
	if r.e.inj != nil {
		return nil, fmt.Errorf("core: %s: cannot restore a snapshot under a fault-injecting config", net.Name)
	}
	if snap.Platform != "" {
		if r.e.platform, err = platformHash(r.e.cfg); err != nil {
			return nil, err
		}
		if r.e.platform != snap.Platform {
			return nil, fmt.Errorf("%w: %s: snapshot platform %.12s, restoring under %.12s",
				ErrPlatformMismatch, net.Name, snap.Platform, r.e.platform)
		}
	}
	for _, rs := range snap.Residents {
		r.e.residents[rs.Producer] = resident{
			total: rs.Total, onChip: rs.OnChip, spilled: rs.Spilled, live: true,
			consumersLeft: int32(rs.ConsumersLeft), lastUse: int32(rs.LastUse),
		}
	}
	r.saved = append(r.saved, snap.Saved...) // a copy: the run reuses its slice
	r.e.clock = snap.Clock
	r.e.memCursor = snap.MemCursor
	r.e.run = snap.Scratch
	r.e.ch.RestoreTraffic(snap.Traffic, snap.RawTraffic, snap.LogicalTraffic)
	r.e.pool.RestoreStats(snap.PoolStats)
	r.e.encCycles = snap.EncodeCycles
	r.e.decCycles = snap.DecodeCycles
	r.sched = snap.Sched
	r.next = snap.Next
	r.suspended = true
	return r, nil
}
