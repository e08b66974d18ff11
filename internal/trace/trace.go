// Package trace records the buffer-management decisions of a scheduler
// run as structured events. Traces make the Shortcut Mining procedures
// observable — every allocation, role switch, pin, spill, and bank
// recycle appears in order — and back scm-sim -events, which emits
// them as JSON lines for external tooling.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Kind enumerates event types.
type Kind string

// Event kinds, in rough lifecycle order of a layer execution.
const (
	KindLayerStart Kind = "layer-start"
	KindAlloc      Kind = "alloc"       // logical buffer formed (P1)
	KindRoleSwitch Kind = "role-switch" // output renamed to input (P2)
	KindPin        Kind = "pin"         // shortcut retained (P3)
	KindUnpin      Kind = "unpin"
	KindRecycle    Kind = "recycle" // consumed shortcut banks reused (P4)
	KindSpill      Kind = "spill"   // partial retention overflow (P5)
	KindRefill     Kind = "refill"  // spilled bytes read back
	KindFree       Kind = "free"
	KindDRAM       Kind = "dram" // any off-chip transfer
	KindLayerEnd   Kind = "layer-end"

	// Fault-injection kinds (internal/fault): an injected fault, a
	// reissued DMA transfer attempt, and a bank relocated to a spare.
	KindFault    Kind = "fault"
	KindRetry    Kind = "retry"
	KindRelocate Kind = "relocate"

	// KindRequest is a serving-layer span enclosing one HTTP request's
	// simulation: Tag carries the request ID, Cycle/DurCycles the
	// simulated interval. It is what correlates an scm-serve request to
	// its cycle-level Perfetto timeline.
	KindRequest Kind = "request"

	// KindLink is one granted occupancy window on a chip-to-chip
	// interconnect link (internal/noc): Tag names the directed link
	// (e.g. "c0>c1"), Bytes the flit-rounded payload, Cycle/DurCycles
	// the window. Rendered on the Perfetto "noc" track.
	KindLink Kind = "link"
)

// Event is one scheduler decision. Fields are contextual; unused ones
// stay zero and are omitted from JSON.
type Event struct {
	Seq   int64  `json:"seq"`
	Kind  Kind   `json:"kind"`
	Layer string `json:"layer,omitempty"`
	Tag   string `json:"tag,omitempty"`   // feature-map identity
	Role  string `json:"role,omitempty"`  // buffer role involved
	Class string `json:"class,omitempty"` // DRAM traffic class
	Banks int    `json:"banks,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
	Note  string `json:"note,omitempty"`

	// Cycle is the simulated-clock timestamp the event occurred at;
	// DurCycles is the span length for events that model an interval
	// (a layer execution on layer-end, a DMA transfer on dram/refill/
	// spill events). Together they back the Perfetto export.
	Cycle     int64 `json:"cycle,omitempty"`
	DurCycles int64 `json:"dur,omitempty"`
	// Pinned is the pinned-bank count at layer-end (alongside Banks,
	// the used count), feeding the occupancy counter track.
	Pinned int `json:"pinned,omitempty"`
}

// Recorder receives events. Implementations must tolerate a zero
// Event.Seq: the scheduler stamps sequence numbers through Stamper.
type Recorder interface {
	Record(Event)
}

// Nop discards events; the analytical experiments use it.
type Nop struct{}

// Record implements Recorder.
func (Nop) Record(Event) {}

// Buffer retains events in memory for tests and programmatic
// inspection.
type Buffer struct {
	Events []Event
}

// Record implements Recorder.
func (b *Buffer) Record(e Event) { b.Events = append(b.Events, e) }

// OfKind returns the recorded events of one kind, in order.
func (b *Buffer) OfKind(k Kind) []Event {
	var out []Event
	for _, e := range b.Events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// JSONL streams events to a writer as JSON lines. Write errors are
// sticky and surfaced by Err, keeping the Recorder interface clean for
// the scheduler hot path.
type JSONL struct {
	w   io.Writer
	enc *json.Encoder
	err error
}

// NewJSONL builds a JSONL recorder.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w, enc: json.NewEncoder(w)}
}

// Record implements Recorder.
func (j *JSONL) Record(e Event) {
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(e)
}

// Err returns the first write error, if any.
func (j *JSONL) Err() error { return j.err }

// Stamper decorates a Recorder with monotonically increasing sequence
// numbers.
type Stamper struct {
	R   Recorder
	seq int64
}

// Record implements Recorder.
func (s *Stamper) Record(e Event) {
	s.seq++
	e.Seq = s.seq
	s.R.Record(e)
}

// Count returns how many events have been stamped.
func (s *Stamper) Count() int64 { return s.seq }

// TimelinePoint is one step of a pool-occupancy timeline.
type TimelinePoint struct {
	Layer     string
	UsedBanks int
}

// Timeline extracts the per-layer pool occupancy from a recorded event
// stream: one point per layer-end event, in execution order. scm-sim
// -events occupancy renders it as a bar chart; tests use it to assert
// occupancy shapes (e.g. retention plateaus across shortcut spans).
func Timeline(events []Event) []TimelinePoint {
	var out []TimelinePoint
	for _, e := range events {
		if e.Kind == KindLayerEnd {
			out = append(out, TimelinePoint{Layer: e.Layer, UsedBanks: e.Banks})
		}
	}
	return out
}

// SeqGaps returns the sequence numbers missing from an event stream
// stamped by a Stamper: for every adjacent pair whose Seq differs by
// more than one, the skipped values. A truncated or filtered JSONL
// file shows up as gaps; a complete stream returns nil. Events before
// the first stamped one (Seq <= 0) are ignored.
func SeqGaps(events []Event) []int64 {
	var gaps []int64
	prev := int64(0)
	for _, e := range events {
		if e.Seq <= 0 {
			continue
		}
		if prev > 0 {
			for s := prev + 1; s < e.Seq; s++ {
				gaps = append(gaps, s)
			}
		}
		prev = e.Seq
	}
	return gaps
}

// Summary is the event-kind × layer census of a recorded stream:
// layers in first-appearance order, kinds in lifecycle order (only
// those present), counts by layer then kind. Events with no layer
// label are grouped under the empty string.
type Summary struct {
	Layers []string
	Kinds  []Kind
	Counts map[string]map[Kind]int
}

// allKinds lists every kind in lifecycle order (the order Summarize
// presents columns in).
var allKinds = []Kind{KindLayerStart, KindAlloc, KindRoleSwitch, KindPin, KindUnpin,
	KindRecycle, KindSpill, KindRefill, KindFree, KindDRAM,
	KindFault, KindRetry, KindRelocate, KindLayerEnd, KindRequest, KindLink}

// Kinds lists every kind the simulator and the serving tier emit, in
// lifecycle order.
func Kinds() []Kind { return slices.Clone(allKinds) }

// Summarize builds the kind × layer census backing scm-sim -events
// summary.
func Summarize(events []Event) Summary {
	s := Summary{Counts: make(map[string]map[Kind]int)}
	present := make(map[Kind]bool)
	for _, e := range events {
		row, ok := s.Counts[e.Layer]
		if !ok {
			row = make(map[Kind]int)
			s.Counts[e.Layer] = row
			s.Layers = append(s.Layers, e.Layer)
		}
		row[e.Kind]++
		present[e.Kind] = true
	}
	for _, k := range allKinds {
		if present[k] {
			s.Kinds = append(s.Kinds, k)
			delete(present, k)
		}
	}
	// Custom kinds outside the lifecycle list keep stream order.
	if len(present) > 0 {
		for _, e := range events {
			if present[e.Kind] {
				s.Kinds = append(s.Kinds, e.Kind)
				delete(present, e.Kind)
			}
		}
	}
	return s
}

// Describe renders an event as a one-line human-readable string (used
// by scm-sim -events text).
func Describe(e Event) string {
	s := fmt.Sprintf("#%d %s", e.Seq, e.Kind)
	if e.Cycle != 0 || e.DurCycles != 0 {
		s += fmt.Sprintf(" @%d", e.Cycle)
	}
	if e.DurCycles != 0 {
		s += fmt.Sprintf("+%d", e.DurCycles)
	}
	if e.Layer != "" {
		s += " layer=" + e.Layer
	}
	if e.Tag != "" {
		s += " tag=" + e.Tag
	}
	if e.Role != "" {
		s += " role=" + e.Role
	}
	if e.Class != "" {
		s += " class=" + e.Class
	}
	if e.Banks != 0 {
		s += fmt.Sprintf(" banks=%d", e.Banks)
	}
	if e.Bytes != 0 {
		s += fmt.Sprintf(" bytes=%d", e.Bytes)
	}
	if e.Note != "" {
		s += " (" + e.Note + ")"
	}
	return s
}
