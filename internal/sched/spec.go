// Package sched is the multi-tenant scheduling simulator: N request
// streams — each a model-zoo network with a seeded arrival process —
// time-share one accelerator's bank pool, interleaved at layer
// granularity through the resumable core.Run API. The same event loop
// shards a scenario across several chips joined by a noc fabric
// (Spec.Chips > 1, reported by internal/cluster). The scheduler is
// fully deterministic: the same Spec (seed included) always produces
// byte-identical per-stream statistics.
//
// The physical model is the paper's own mechanism turned around:
// because logical buffers are composed at run time from a shared
// physical SRAM bank pool, nothing in the hardware ties the pool to a
// single network. A preempted tenant's live logical buffers are torn
// down P5-style — resident bytes without an up-to-date DRAM copy are
// spilled — and rebuilt on resume, with the re-load traffic charged to
// the preempted stream. Suspend/resume costs are accounted separately
// from each run's own traffic, so per-stream results always reconcile
// exactly against the single-tenant baseline.
package sched

import (
	"fmt"
	"strconv"
	"strings"

	"shortcutmining/internal/compress"
	"shortcutmining/internal/core"
	"shortcutmining/internal/noc"
)

// Policy selects how co-resident runs share the accelerator.
type Policy int

const (
	// FCFS runs each request to completion in arrival order — no
	// preemption, the single-tenant baseline with queueing.
	FCFS Policy = iota
	// RoundRobin gives each resident run a quantum of layers, then
	// suspends it (spilling its working set) and rotates.
	RoundRobin
	// Priority preempts at every layer boundary in favor of the
	// highest-priority runnable request (strictly higher priority than
	// the current tenant; ties never preempt).
	Priority
)

// String implements fmt.Stringer in the grammar's vocabulary.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "fcfs"
	case RoundRobin:
		return "rr"
	case Priority:
		return "prio"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy reads the grammar's policy names.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fcfs":
		return FCFS, nil
	case "rr", "round-robin":
		return RoundRobin, nil
	case "prio", "priority":
		return Priority, nil
	}
	return FCFS, fmt.Errorf("sched: unknown policy %q (want fcfs, rr, prio)", s)
}

// StreamSpec describes one request stream: which network, how many
// requests, and the arrival process.
type StreamSpec struct {
	// Name labels the stream in stats and metrics; defaults to the
	// network name (deduplicated with a #i suffix).
	Name string `json:"name,omitempty"`
	// Network is a model-zoo network name.
	Network string `json:"network"`
	// Strategy is the buffer-management design point of this stream's
	// runs (default SCM).
	Strategy core.Strategy `json:"strategy"`
	// Requests is how many inferences the stream submits (default 1).
	Requests int `json:"requests"`
	// GapCycles separates consecutive arrivals; 0 submits everything
	// at StartCycles (a burst).
	GapCycles int64 `json:"gap_cycles,omitempty"`
	// StartCycles offsets the stream's first arrival.
	StartCycles int64 `json:"start_cycles,omitempty"`
	// Poisson replaces the fixed gap with seeded exponential gaps of
	// mean GapCycles.
	Poisson bool `json:"poisson,omitempty"`
	// Priority orders streams under the prio policy (higher wins).
	Priority int `json:"priority,omitempty"`
	// MinBanks overrides the run's computed minimum bank demand for
	// admission (models a carve-out reservation). Zero = computed.
	MinBanks int `json:"min_banks,omitempty"`
}

// Spec is a complete multi-tenant scheduling scenario.
type Spec struct {
	// Seed drives every random choice (Poisson arrival draws). The
	// same spec always produces the same schedule.
	Seed int64 `json:"seed"`
	// Policy selects the time-sharing discipline (default FCFS).
	Policy Policy `json:"policy"`
	// QuantumLayers is the round-robin quantum (default 8).
	QuantumLayers int `json:"quantum_layers,omitempty"`
	// MaxResident bounds runs launched but unfinished (each resident
	// run owns a spill region in DRAM); 0 = unlimited.
	MaxResident int `json:"max_resident,omitempty"`
	// Streams are the co-resident request streams.
	Streams []StreamSpec `json:"streams"`

	// Compress applies an interlayer feature-map codec at every chip's
	// DRAM boundary (and, under Chips > 1, to interconnect handoffs).
	// Nil means uncompressed. Every stream shares the one codec: the
	// codec engine sits at the memory controller, not per tenant.
	Compress *compress.Config `json:"compress,omitempty"`

	// Chips shards the scenario across N simulated accelerators, each
	// with its own bank pool, connected by a contended interconnect
	// (reported by internal/cluster). 0 or 1 = single chip. A
	// multi-chip spec takes none of the single-chip policy clauses
	// (policy, quantum, maxresident, stream prio and banks).
	Chips int `json:"chips,omitempty"`
	// Topology wires the chips when Chips > 1: ring | mesh | all
	// (default ring).
	Topology string `json:"topology,omitempty"`
	// Placement maps layers to chips when Chips > 1: hash | leastload |
	// affinity (default affinity).
	Placement string `json:"placement,omitempty"`
	// LinkGBps / HopLatency tune the interconnect links; zero takes
	// the noc package defaults.
	LinkGBps   float64 `json:"link_gbps,omitempty"`
	HopLatency int64   `json:"hop_latency,omitempty"`
}

// maxSpecRequests bounds the total request count so a malformed spec
// cannot make the scheduler loop effectively forever.
const maxSpecRequests = 1 << 20

// DefaultQuantum is the round-robin quantum when the spec omits one.
const DefaultQuantum = 8

// Validate checks the scenario before the scheduler accepts it.
func (s *Spec) Validate() error {
	if s == nil || len(s.Streams) == 0 {
		return fmt.Errorf("sched: spec has no streams")
	}
	switch s.Policy {
	case FCFS, RoundRobin, Priority:
	default:
		return fmt.Errorf("sched: unknown policy %d", int(s.Policy))
	}
	if s.QuantumLayers < 0 {
		return fmt.Errorf("sched: negative quantum %d", s.QuantumLayers)
	}
	if s.MaxResident < 0 {
		return fmt.Errorf("sched: negative max-resident %d", s.MaxResident)
	}
	if err := s.validateCluster(); err != nil {
		return err
	}
	if err := s.Compress.Validate(); err != nil {
		return err
	}
	total := 0
	for i, st := range s.Streams {
		if st.Network == "" {
			return fmt.Errorf("sched: stream %d has no network", i)
		}
		if st.Requests <= 0 {
			return fmt.Errorf("sched: stream %d (%s) has %d requests", i, st.Network, st.Requests)
		}
		if st.GapCycles < 0 || st.StartCycles < 0 {
			return fmt.Errorf("sched: stream %d (%s) has a negative arrival parameter", i, st.Network)
		}
		if st.MinBanks < 0 {
			return fmt.Errorf("sched: stream %d (%s) has negative min-banks", i, st.Network)
		}
		switch st.Strategy {
		case core.Baseline, core.FMReuse, core.SCM:
		default:
			return fmt.Errorf("sched: stream %d (%s) has unknown strategy %d", i, st.Network, int(st.Strategy))
		}
		total += st.Requests
	}
	if total > maxSpecRequests {
		return fmt.Errorf("sched: %d total requests (max %d)", total, maxSpecRequests)
	}
	return nil
}

// validateCluster checks the multi-chip clauses, and that a multi-chip
// spec carries none of the single-chip policy clauses: chips>1 runs
// every segment to its end, earliest start first, and has no admission
// control to apply banks= to.
func (s *Spec) validateCluster() error {
	if s.Chips < 0 {
		return fmt.Errorf("sched: negative chips %d", s.Chips)
	}
	if s.Chips > noc.MaxChips {
		return fmt.Errorf("sched: %d chips (max %d)", s.Chips, noc.MaxChips)
	}
	if s.Topology != "" {
		if _, err := noc.ParseTopology(s.Topology); err != nil {
			return err
		}
	}
	if _, err := ParsePlacement(s.Placement); err != nil {
		return err
	}
	if s.LinkGBps < 0 {
		return fmt.Errorf("sched: negative link bandwidth %g", s.LinkGBps)
	}
	if s.HopLatency < 0 {
		return fmt.Errorf("sched: negative hop latency %d", s.HopLatency)
	}
	if s.Chips <= 1 && (s.Topology != "" || s.Placement != "" || s.LinkGBps != 0 || s.HopLatency != 0) {
		return fmt.Errorf("sched: topo/place/linkgbps/hoplat require chips>1")
	}
	if s.Chips > 1 {
		if s.Policy != FCFS || s.QuantumLayers != 0 || s.MaxResident != 0 {
			return fmt.Errorf("sched: policy/quantum/maxresident require chips<=1")
		}
		for i, st := range s.Streams {
			if st.Priority != 0 || st.MinBanks != 0 {
				return fmt.Errorf("sched: stream %d (%s): prio/banks require chips<=1", i, st.Network)
			}
		}
	}
	return nil
}

// quantum is the round-robin quantum in effect.
func (s *Spec) quantum() int {
	if s.QuantumLayers > 0 {
		return s.QuantumLayers
	}
	return DefaultQuantum
}

// String renders the spec in the grammar ParseSpec reads, so a spec
// round-trips through the CLI flag.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	parts := []string{fmt.Sprintf("seed=%d", s.Seed), fmt.Sprintf("policy=%s", s.Policy)}
	if s.QuantumLayers > 0 {
		parts = append(parts, fmt.Sprintf("quantum=%d", s.QuantumLayers))
	}
	if s.MaxResident > 0 {
		parts = append(parts, fmt.Sprintf("maxresident=%d", s.MaxResident))
	}
	if s.Compress != nil {
		parts = append(parts, fmt.Sprintf("compress=%s", s.Compress.String()))
	}
	if s.Chips > 1 {
		parts = append(parts, fmt.Sprintf("chips=%d", s.Chips))
		if s.Topology != "" {
			parts = append(parts, fmt.Sprintf("topo=%s", s.Topology))
		}
		if s.Placement != "" {
			parts = append(parts, fmt.Sprintf("place=%s", s.Placement))
		}
		if s.LinkGBps > 0 {
			parts = append(parts, fmt.Sprintf("linkgbps=%s", strconv.FormatFloat(s.LinkGBps, 'g', -1, 64)))
		}
		if s.HopLatency > 0 {
			parts = append(parts, fmt.Sprintf("hoplat=%d", s.HopLatency))
		}
	}
	for _, st := range s.Streams {
		var kv []string
		kv = append(kv, fmt.Sprintf("n=%d", st.Requests))
		if st.GapCycles > 0 {
			kv = append(kv, fmt.Sprintf("gap=%d", st.GapCycles))
		}
		if st.StartCycles > 0 {
			kv = append(kv, fmt.Sprintf("start=%d", st.StartCycles))
		}
		if st.Poisson {
			kv = append(kv, "poisson")
		}
		if st.Priority != 0 {
			kv = append(kv, fmt.Sprintf("prio=%d", st.Priority))
		}
		if st.Strategy != core.SCM {
			kv = append(kv, fmt.Sprintf("strategy=%s", st.Strategy))
		}
		if st.MinBanks > 0 {
			kv = append(kv, fmt.Sprintf("banks=%d", st.MinBanks))
		}
		if st.Name != "" {
			kv = append(kv, fmt.Sprintf("name=%s", st.Name))
		}
		parts = append(parts, fmt.Sprintf("stream=%s:%s", st.Network, strings.Join(kv, ",")))
	}
	return strings.Join(parts, ";")
}

// ParseSpec reads the compact scheduling grammar used by the -spec CLI
// flag and the /v1/schedule endpoint: semicolon-separated clauses.
//
//	seed=42                      RNG seed (default 1)
//	policy=rr                    fcfs | rr | prio (default fcfs)
//	quantum=4                    round-robin quantum in layers (default 8)
//	maxresident=2                bound on launched-but-unfinished runs
//	compress=zvc:sparsity=0.5    interlayer feature-map codec (compress.ParseSpec)
//	chips=3                      shard across 3 chips (fcfs only; reported by internal/cluster)
//	topo=mesh                    interconnect wiring: ring | mesh | all
//	place=affinity               layer placement: hash | leastload | affinity
//	linkgbps=16                  per-link bandwidth (GB/s)
//	hoplat=64                    per-hop link latency (cycles)
//	stream=resnet34:n=8,gap=2000000          8 requests, fixed inter-arrival gap
//	stream=squeezenet:n=4,gap=500000,poisson seeded exponential gaps, mean 500000
//	stream=resnet50:n=2,prio=3,strategy=baseline,banks=10,start=100,name=vip
//
// Example: "seed=7;policy=prio;stream=resnet34:n=4,gap=1000000;stream=squeezenet:n=6,gap=300000,prio=2".
// The returned spec is validated; malformed input yields an error,
// never a panic.
func ParseSpec(s string) (*Spec, error) {
	spec := &Spec{Seed: 1}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, hasEq := strings.Cut(clause, "=")
		if !hasEq {
			return nil, fmt.Errorf("sched: clause %q is not key=value", clause)
		}
		switch key {
		case "seed":
			seed, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sched: bad seed %q: %v", val, err)
			}
			spec.Seed = seed
		case "policy":
			p, err := ParsePolicy(val)
			if err != nil {
				return nil, err
			}
			spec.Policy = p
		case "quantum":
			q, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("sched: bad quantum %q: %v", val, err)
			}
			spec.QuantumLayers = q
		case "maxresident":
			m, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("sched: bad maxresident %q: %v", val, err)
			}
			spec.MaxResident = m
		case "compress":
			cc, err := compress.ParseSpec(val)
			if err != nil {
				return nil, err
			}
			spec.Compress = cc
		case "chips":
			c, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("sched: bad chips %q: %v", val, err)
			}
			spec.Chips = c
		case "topo":
			spec.Topology = val
		case "place":
			spec.Placement = val
		case "linkgbps":
			g, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("sched: bad linkgbps %q: %v", val, err)
			}
			spec.LinkGBps = g
		case "hoplat":
			h, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sched: bad hoplat %q: %v", val, err)
			}
			spec.HopLatency = h
		case "stream":
			st, err := parseStream(val)
			if err != nil {
				return nil, fmt.Errorf("sched: %q: %v", clause, err)
			}
			spec.Streams = append(spec.Streams, st)
		default:
			return nil, fmt.Errorf("sched: unknown clause %q (want seed=, policy=, quantum=, maxresident=, compress=, chips=, topo=, place=, linkgbps=, hoplat=, stream=)", clause)
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// parseStream reads "network:k=v,k=v,flag" stream descriptions.
func parseStream(s string) (StreamSpec, error) {
	network, params, _ := strings.Cut(s, ":")
	if network == "" {
		return StreamSpec{}, fmt.Errorf("stream has no network")
	}
	st := StreamSpec{Network: network, Strategy: core.SCM, Requests: 1}
	if params == "" {
		return st, nil
	}
	for _, part := range strings.Split(params, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, hasEq := strings.Cut(part, "=")
		if !hasEq {
			if k == "poisson" {
				st.Poisson = true
				continue
			}
			return StreamSpec{}, fmt.Errorf("unknown flag %q", k)
		}
		var err error
		switch k {
		case "n":
			st.Requests, err = strconv.Atoi(v)
		case "gap":
			st.GapCycles, err = strconv.ParseInt(v, 10, 64)
		case "start":
			st.StartCycles, err = strconv.ParseInt(v, 10, 64)
		case "prio":
			st.Priority, err = strconv.Atoi(v)
		case "banks":
			st.MinBanks, err = strconv.Atoi(v)
		case "strategy":
			st.Strategy, err = core.ParseStrategy(v)
		case "name":
			st.Name = v
		default:
			return StreamSpec{}, fmt.Errorf("unknown parameter %q", k)
		}
		if err != nil {
			return StreamSpec{}, fmt.Errorf("bad %s %q: %v", k, v, err)
		}
	}
	return st, nil
}

// streamNames returns the display name of every stream, deduplicated
// deterministically: unnamed streams take their network name, and
// collisions gain a #i suffix in spec order.
func (s *Spec) streamNames() []string {
	names := make([]string, len(s.Streams))
	seen := map[string]int{}
	for i, st := range s.Streams {
		name := st.Name
		if name == "" {
			name = st.Network
		}
		seen[name]++
		if n := seen[name]; n > 1 {
			name = fmt.Sprintf("%s#%d", name, n)
		}
		names[i] = name
	}
	return names
}
