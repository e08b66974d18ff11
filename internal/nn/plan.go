package nn

import (
	"errors"
	"fmt"
)

// ErrUnbuilt is returned for a network that Builder.Finish did not
// return — nil, zero, or assembled by hand — and so carries no plan.
var ErrUnbuilt = errors.New("nn: network was not built by nn.Builder")

// maxPlanSources bounds the concat-expanded source lists of one
// network. Nested concats that read one map twice double the list at
// every level; no zoo network reads more than 661 maps in all.
const maxPlanSources = 1 << 20

// Plan is a network's consumption plan: per layer, the feature maps it
// physically reads. Concat layers are transparent — reading a concat
// reads its (recursively expanded) sources — so concatenation is pure
// bank layout and DenseNet-style multi-consumer fan-out works without
// aliasing buffers. Builder.Finish computes it once, into two int32
// arenas; every run of the network reads it. Slices it returns are
// shared and must not be modified.
type Plan struct {
	// Layer i's lists are src[srcOff[i]:srcOff[i+1]] and
	// dist[distOff[i]:distOff[i+1]].
	srcOff, distOff []int32
	src, dist       []int32
	consumers       []int32
	lastUse         []int32
}

// Sources returns the physical producer indices layer i reads,
// duplicates kept (reading the same map twice costs twice). Input and
// concat layers read nothing.
func (p *Plan) Sources(i int) []int32 { return p.src[p.srcOff[i]:p.srcOff[i+1]] }

// Distinct returns Sources(i) without duplicates, in first-appearance
// order.
func (p *Plan) Distinct(i int) []int32 { return p.dist[p.distOff[i]:p.distOff[i+1]] }

// Consumers returns the number of distinct physical layers that read
// layer i's feature map.
func (p *Plan) Consumers(i int) int { return int(p.consumers[i]) }

// LastUse returns the index of the last physical reader of layer i's
// feature map, or i itself when nothing reads it.
func (p *Plan) LastUse(i int) int { return int(p.lastUse[i]) }

// Plan returns the consumption plan Builder.Finish computed, or
// ErrUnbuilt when the network did not come from Finish.
func (n *Network) Plan() (*Plan, error) {
	if n == nil || len(n.Layers) == 0 || len(n.plan.consumers) != len(n.Layers) {
		return nil, ErrUnbuilt
	}
	return &n.plan, nil
}

// buildPlan computes the plan of a validated network: one arena for
// the offsets and per-layer counts, one for the source lists.
func buildPlan(n *Network) (Plan, error) {
	num := len(n.Layers)
	head := make([]int32, 4*num+2)
	p := Plan{
		srcOff:    head[:num+1],
		distOff:   head[num+1 : 2*num+2],
		consumers: head[2*num+2 : 3*num+2],
		lastUse:   head[3*num+2:],
	}
	// expLen (borrowing lastUse) is how many physical maps reading
	// layer i's output reads: 1, or a concat's expanded total.
	expLen := p.lastUse
	var total int64
	for i, l := range n.Layers {
		var reads int64
		for _, in := range l.Inputs {
			reads += int64(expLen[n.byName[in].Index])
		}
		if reads > maxPlanSources {
			return Plan{}, planTooLarge(n, reads)
		}
		expLen[i] = 1
		switch l.Kind {
		case OpConcat:
			expLen[i] = int32(reads)
		case OpInput:
		default:
			total += reads
		}
		if total > maxPlanSources {
			return Plan{}, planTooLarge(n, total)
		}
		p.srcOff[i+1] = int32(total)
	}

	// The distinct lists are at most as long as the source lists.
	data := make([]int32, 2*total)
	p.src = data[:total:total]
	for i, l := range n.Layers {
		if l.Kind == OpInput || l.Kind == OpConcat {
			continue
		}
		at := p.srcOff[i]
		for _, in := range l.Inputs {
			at = n.expand(p.src, at, n.byName[in])
		}
	}

	// lastUse[q] == i marks q as already counted for layer i: a
	// producer always precedes its readers, so the initial lastUse[q]
	// == q never collides.
	for i := range p.lastUse {
		p.lastUse[i] = int32(i)
	}
	dist := data[total:total]
	for i := range n.Layers {
		for _, q := range p.Sources(i) {
			if p.lastUse[q] == int32(i) {
				continue
			}
			p.lastUse[q] = int32(i)
			p.consumers[q]++
			dist = append(dist, q)
		}
		p.distOff[i+1] = int32(len(dist))
	}
	p.dist = dist[:len(dist):len(dist)]
	return p, nil
}

// expand writes the physical maps that reading l's output reads into
// dst from at, and returns the next free position.
func (n *Network) expand(dst []int32, at int32, l *Layer) int32 {
	if l.Kind != OpConcat {
		dst[at] = int32(l.Index)
		return at + 1
	}
	for _, in := range l.Inputs {
		at = n.expand(dst, at, n.byName[in])
	}
	return at
}

func planTooLarge(n *Network, reads int64) error {
	return fmt.Errorf("nn: %s: concats expand to %d feature-map reads, over the limit of %d", n.Name, reads, maxPlanSources)
}
