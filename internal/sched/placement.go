package sched

import (
	"fmt"
	"hash/fnv"

	"shortcutmining/internal/nn"
	"shortcutmining/internal/tensor"
)

// Placement selects how a network's layers map onto chips.
type Placement int

const (
	// Hash statically hashes each layer name onto a chip. The
	// resulting assignment ignores both load and dataflow, so adjacent
	// layers ping-pong across the fabric — the worst case the other
	// policies are measured against.
	Hash Placement = iota
	// LeastLoad cuts the network into contiguous per-chip segments
	// balanced by profiled per-layer cycles, ignoring shortcut spans:
	// a cut may fall inside a residual block, forcing its pinned
	// shortcut banks across a link at every handoff.
	LeastLoad
	// Affinity balances contiguous segments like LeastLoad but
	// restricts cuts to boundaries no shortcut edge crosses, keeping
	// each residual producer/consumer pair — and therefore the P2–P5
	// pinned banks between them — local to one chip. When a network
	// has fewer clean boundaries than chips, the remaining cuts fall
	// back to the boundaries with the fewest crossing bytes.
	Affinity
)

// DefaultPlacement is used when a spec names none.
const DefaultPlacement = Affinity

// String returns the spec-grammar name of the policy.
func (p Placement) String() string {
	switch p {
	case Hash:
		return "hash"
	case LeastLoad:
		return "leastload"
	case Affinity:
		return "affinity"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// ParsePlacement parses a spec-grammar placement name; empty selects
// the default.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "":
		return DefaultPlacement, nil
	case "hash":
		return Hash, nil
	case "leastload", "least-loaded":
		return LeastLoad, nil
	case "affinity", "shortcut-affinity":
		return Affinity, nil
	default:
		return 0, fmt.Errorf("sched: unknown placement %q (want hash, leastload, affinity)", s)
	}
}

// segment is a maximal run of consecutive layers on one chip.
type segment struct {
	chip   int
	lo, hi int // layer index range [lo, hi)
}

// assign maps every layer of net to a chip. perLayer holds profiled
// single-tenant cycles per layer (used by the balancing policies).
func assign(p Placement, net *nn.Network, dtype tensor.DataType, perLayer []int64, chips int) []int {
	n := len(net.Layers)
	out := make([]int, n)
	if chips <= 1 || n == 0 {
		return out
	}
	switch p {
	case Hash:
		for i, l := range net.Layers {
			h := fnv.New32a()
			h.Write([]byte(l.Name)) // scmvet:ok ignorederr hash.Hash32 Write never fails
			out[i] = int(h.Sum32() % uint32(chips))
		}
	case LeastLoad:
		cutsToAssign(out, balancedCuts(perLayer, chips, nil))
	case Affinity:
		cutsToAssign(out, balancedCuts(perLayer, chips, affinityBoundaries(net, dtype)))
	}
	return out
}

// affinityBoundaries classifies every cut boundary b (between layers
// b-1 and b): allowed[b] is true when no shortcut edge crosses it, and
// crossBytes[b] totals the feature-map bytes of all edges that do.
func affinityBoundaries(net *nn.Network, dtype tensor.DataType) *boundaryInfo {
	n := len(net.Layers)
	info := &boundaryInfo{
		allowed:    make([]bool, n),
		crossBytes: make([]int64, n),
	}
	for b := 1; b < n; b++ {
		info.allowed[b] = true
	}
	for _, e := range nn.Edges(net, dtype) {
		for b := e.Producer + 1; b <= e.Consumer && b < n; b++ {
			info.crossBytes[b] += e.Bytes
			if e.Shortcut {
				info.allowed[b] = false
			}
		}
	}
	return info
}

type boundaryInfo struct {
	allowed    []bool
	crossBytes []int64
}

// balancedCuts picks up to chips-1 strictly increasing cut boundaries
// over the profiled per-layer cycles, each as close as possible to the
// ideal equal-work prefix. With a boundaryInfo, cuts prefer allowed
// (shortcut-clean) boundaries and fall back to the smallest crossing
// byte count when no clean boundary remains for a cut.
func balancedCuts(perLayer []int64, chips int, info *boundaryInfo) []int {
	n := len(perLayer)
	prefix := make([]int64, n+1)
	for i, c := range perLayer {
		prefix[i+1] = prefix[i] + c
	}
	total := prefix[n]
	var cuts []int
	prev := 0
	for k := 1; k < chips; k++ {
		target := total * int64(k) / int64(chips)
		best, bestScore := -1, int64(-1)
		fallback, fallbackScore, fallbackBytes := -1, int64(-1), int64(-1)
		for b := prev + 1; b < n; b++ {
			dist := prefix[b] - target
			if dist < 0 {
				dist = -dist
			}
			if info == nil || info.allowed[b] {
				if best < 0 || dist < bestScore {
					best, bestScore = b, dist
				}
			} else if fallback < 0 ||
				info.crossBytes[b] < fallbackBytes ||
				(info.crossBytes[b] == fallbackBytes && dist < fallbackScore) {
				fallback, fallbackScore, fallbackBytes = b, dist, info.crossBytes[b]
			}
		}
		if best < 0 {
			best = fallback
		}
		if best < 0 {
			break // fewer boundaries than chips; the rest stay empty
		}
		cuts = append(cuts, best)
		prev = best
	}
	return cuts
}

// cutsToAssign converts increasing cut boundaries into a layer→chip
// assignment: layers before the first cut are chip 0, and so on.
func cutsToAssign(out []int, cuts []int) {
	chip := 0
	next := 0
	for i := range out {
		for next < len(cuts) && i >= cuts[next] {
			chip++
			next++
		}
		out[i] = chip
	}
}

// segments merges consecutive same-chip layers of an assignment into
// execution segments, in layer order.
func segments(assignment []int) []segment {
	var segs []segment
	for i, chip := range assignment {
		if len(segs) > 0 && segs[len(segs)-1].chip == chip {
			segs[len(segs)-1].hi = i + 1
			continue
		}
		segs = append(segs, segment{chip: chip, lo: i, hi: i + 1})
	}
	return segs
}
