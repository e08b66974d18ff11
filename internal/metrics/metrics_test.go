package metrics

import (
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(41)
	c.Add(-7) // counters only go up
	if got := c.Value(); got != 42 {
		t.Errorf("value = %d, want 42", got)
	}
	if r.Counter("c_total", "help") != c {
		t.Error("re-registration returned a different series")
	}
}

func TestCounterLabels(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "h", L("class", "a"))
	b := r.Counter("x_total", "h", L("class", "b"))
	if a == b {
		t.Fatal("distinct label sets share a series")
	}
	a.Add(3)
	b.Add(4)
	if got := r.SumCounter("x_total"); got != 7 {
		t.Errorf("SumCounter = %d, want 7", got)
	}
	// Label order must not matter.
	two := r.Counter("y_total", "h", L("a", "1"), L("b", "2"))
	two.Inc()
	if got := r.Counter("y_total", "h", L("b", "2"), L("a", "1")); got != two {
		t.Error("label order created a second series")
	}
}

func TestGaugePeak(t *testing.T) {
	r := New()
	g := r.Gauge("g", "h")
	g.Set(5)
	g.Set(2)
	if g.Value() != 2 || g.Peak() != 5 {
		t.Errorf("value/peak = %g/%g, want 2/5", g.Value(), g.Peak())
	}
	g.SetMax(1) // ratchet: no effect
	if g.Value() != 2 {
		t.Errorf("SetMax lowered the gauge to %g", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 || g.Peak() != 9 {
		t.Errorf("after SetMax(9): value/peak = %g/%g", g.Value(), g.Peak())
	}
}

func TestHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("h", "help", []float64{10, 100})
	for _, v := range []float64{1, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 1022 {
		t.Errorf("count/sum = %d/%g", h.Count(), h.Sum())
	}
	// Bounds are inclusive upper edges: 10 lands in the first bucket.
	want := []int64{2, 1, 1}
	for i, c := range h.BucketCounts() {
		if c != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, c, want[i])
		}
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Error("nil registry claims enabled")
	}
	c := r.Counter("c", "h")
	c.Inc() // must not panic
	g := r.Gauge("g", "h")
	g.Set(1)
	h := r.Histogram("h", "h", []float64{1})
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil instruments recorded something")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry produced a snapshot")
	}
	if err := r.WriteProm(nil); err != nil {
		t.Errorf("nil WriteProm: %v", err)
	}
	if r.SumCounter("c") != 0 {
		t.Error("nil SumCounter nonzero")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on kind mismatch")
		}
	}()
	r := New()
	r.Counter("m", "h")
	r.Gauge("m", "h")
}

func TestWriteProm(t *testing.T) {
	r := New()
	r.Counter("scm_x_total", "an x counter", L("class", `we"ird\`)).Add(7)
	r.Gauge("scm_g", "a gauge").Set(2.5)
	h := r.Histogram("scm_h", "a histogram", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(5)
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP scm_x_total an x counter",
		"# TYPE scm_x_total counter",
		`scm_x_total{class="we\"ird\\"} 7`,
		"# TYPE scm_g gauge",
		"scm_g 2.5",
		"# TYPE scm_h histogram",
		`scm_h_bucket{le="1"} 1`,
		`scm_h_bucket{le="2"} 1`,
		`scm_h_bucket{le="+Inf"} 2`,
		"scm_h_sum 5.5",
		"scm_h_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := New()
	r.Counter("c_total", "h", L("k", "v")).Add(3)
	r.Gauge("g", "h").SetMax(4)
	r.Histogram("h", "h", []float64{10}).Observe(42)
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 3 || s.Counters[0].Labels[0].Value != "v" {
		t.Errorf("counters = %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Peak != 4 {
		t.Errorf("gauges = %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %+v", s.Histograms)
	}
	hs := s.Histograms[0]
	if hs.Count != 1 || hs.Sum != 42 {
		t.Errorf("histogram snap = %+v", hs)
	}
	// Buckets are cumulative and end at +Inf.
	if len(hs.Buckets) != 2 || hs.Buckets[0].Count != 0 || hs.Buckets[1].LE != "+Inf" || hs.Buckets[1].Count != 1 {
		t.Errorf("buckets = %+v", hs.Buckets)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(64, 4, 3)
	if exp[0] != 64 || exp[1] != 256 || exp[2] != 1024 {
		t.Errorf("ExpBuckets = %v", exp)
	}
}
