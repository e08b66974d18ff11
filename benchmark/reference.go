package main

import (
	"crypto/sha256"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"
)

// On a shared 2-vCPU Intel Xeon VM the host's speed changes by a
// quarter and more over minutes, up to twofold over an hour, as other
// tenants come and go. That would swamp the regressions the bounds
// exist to catch: ten 20 s trials in a row spread the timings by 8 to
// 30% (interquartile range over median). So a run also times a fixed
// reference kernel — number formatting, hashing, map walks and sorting
// from the standard library, no code of this repository — and scales its
// timings to the speed the kernel runs at nominally. Slices of the
// kernel timed only before and after the trial's window tracked the
// drift too loosely (8 to 17% spreads), so the window is cut into
// segments of refEvery, and the kernel runs for refSlice between them.
//
// Nothing of the system runs beside the kernel: at a segment's end the
// clients finish their ops and start no more, the system drains its
// background work (see system.quiesce), and a collection in progress
// finishes; only then does the window's clock stop for the slice. The
// drain, an idle client waiting for the other's last op, and the
// collection all stay inside the timed window, so work a change adds
// there shows. alloc_kb_per_op and heap_live_mb are not scaled. Set-up
// time is scaled by one slice before each set-up. The report keeps the
// kernel's rates, so unscaled timings can be recovered.

// refNominal is the reference kernel's typical rate, in iterations per
// second summed over its goroutines, on that VM.
const refNominal = 40000.0

// A trial runs the kernel for refSlice after every refEvery of its
// window (5% of its time), and once before each set-up.
const (
	refEvery = 2 * time.Second
	refSlice = 100 * time.Millisecond
)

// The kernel's input: numbers to format and hash, and a map to walk,
// sort and look up.
var (
	refValues = func() []float64 {
		v := make([]float64, 200)
		for i := range v {
			v[i] = float64(i) * 1.5
		}
		return v
	}()
	refTags = func() map[string]int {
		m := map[string]int{}
		for i := range 200 {
			m["tag"+strconv.Itoa(i)] = i
		}
		return m
	}()
)

// refScratch is one goroutine's kernel state. Iterations reuse it and
// allocate nothing: garbage from the kernel would start a collection
// the system's first ops after the slice pay for.
type refScratch struct {
	text []byte
	keys []string
	sum  uint64 // keeps the work observable
}

// iterate runs one kernel iteration.
func (s *refScratch) iterate() {
	s.text = s.text[:0]
	for _, v := range refValues {
		s.text = strconv.AppendFloat(s.text, v, 'g', -1, 64)
		s.text = append(s.text, ',')
	}
	s.keys = s.keys[:0]
	for k := range refTags {
		s.keys = append(s.keys, k)
	}
	sort.Strings(s.keys)
	for _, k := range s.keys {
		s.sum += uint64(refTags[k])
	}
	h := sha256.Sum256(s.text)
	s.sum += uint64(h[0])
}

// refKernel runs the reference kernel for about d on clientCount
// goroutines, as many CPUs as the workloads keep busy, and returns
// their iterations and the time they took; one goroutine alone tracked
// the workloads' slowdowns less closely. The collector is off
// meanwhile; turning it off waits for a collection in progress, which
// the caller does first when that wait is the system's.
func refKernel(d time.Duration) (int64, time.Duration) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	iters := make([]int64, clientCount)
	start := time.Now()
	var wg sync.WaitGroup
	for g := range clientCount {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s refScratch
			for time.Since(start) < d {
				s.iterate()
				iters[g]++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var n int64
	for _, k := range iters {
		n += k
	}
	return n, elapsed
}

// refMeter accumulates reference slices.
type refMeter struct {
	iters int64
	time  time.Duration
}

// slice runs the kernel for one refSlice.
func (m *refMeter) slice() {
	n, dt := refKernel(refSlice)
	m.iters, m.time = m.iters+n, m.time+dt
}

// rate is the kernel's iterations per second over the slices.
func (m *refMeter) rate() float64 { return float64(m.iters) / m.time.Seconds() }

// slow is how many times slower than nominal the host ran: timings are
// divided by it, rates multiplied.
func (m *refMeter) slow() float64 { return refNominal / m.rate() }
