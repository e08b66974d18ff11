package stats_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"shortcutmining/internal/compress"
	"shortcutmining/internal/core"
	"shortcutmining/internal/dram"
	"shortcutmining/internal/jsonindent"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
)

// plainRunStats has RunStats' fields without its methods, so
// json.Marshal encodes it by reflection whatever methods RunStats
// gains: the reference AppendJSON must match.
type plainRunStats stats.RunStats

// escapes are strings whose encodings exercise escaping (the same set
// jsonindent's tests indent): backslash runs around quotes, HTML
// escapes, control characters, line separators, invalid UTF-8 and
// non-ASCII text.
var escapes = []string{
	`\`, `\\`, `\\\`, `"`, `\"`, `\\"`, `\\\"`, `"\`, `a\\\\"b"\\`,
	"<a href=\"x\">&amp;</a>", "tab\tnl\nnul\x00", "  ", "é ü 中 🙂",
	"{[,:]}", `{"k":[1,2]}`, "", "ls\u2028ps\u2029", "bad\xffutf8", "del\x7f",
}

// checkEncodings compares s's compact and indented encodings, with and
// without a prefix, against encoding/json and jsonindent on the
// method-less copy.
func checkEncodings(t *testing.T, s stats.RunStats) {
	t.Helper()
	want, err := json.Marshal(plainRunStats(s))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.AppendJSON(nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("compact AppendJSON differs\n got: %s\nwant: %s", got, want)
	}
	for _, prefix := range []string{"", "  ", "> "} {
		want := jsonindent.AppendIndent(nil, want, prefix, "  ")
		got, err := s.AppendJSON([]byte("head"), prefix, "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[4:], want) || string(got[:4]) != "head" {
			t.Fatalf("prefix %q: indented AppendJSON differs\n got: %s\nwant: %s", prefix, got, want)
		}
	}
}

// randFloat draws from the shapes encoding/json formats differently:
// zeros of both signs, 'f' values and 'e' values on both sides of the
// 1e-6 and 1e21 cut-offs, with both signs.
func randFloat(r *rand.Rand) float64 {
	var f float64
	switch r.Intn(6) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		f = []float64{1e-6, 1e21, math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), 1e-7, 1e22, 5e-324, math.MaxFloat64}[r.Intn(8)]
	case 3:
		f = float64(r.Int63n(1 << 40))
	default:
		f = math.Pow(10, -7+29*r.Float64()) // 1e-7 to 1e22
	}
	if r.Intn(2) == 0 {
		f = -f
	}
	return f
}

func randString(r *rand.Rand) string {
	if r.Intn(2) == 0 {
		return escapes[r.Intn(len(escapes))]
	}
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = byte(0x20 + r.Intn(0x5f))
	}
	return string(b)
}

func randTraffic(r *rand.Rand) dram.Traffic {
	var t dram.Traffic
	for i := range t {
		if r.Intn(3) > 0 {
			t[i] = r.Int63() - r.Int63()
		}
	}
	return t
}

func randLabels(r *rand.Rand) []metrics.Label {
	if r.Intn(2) == 0 {
		return nil
	}
	return []metrics.Label{{Key: randString(r), Value: randString(r)}}
}

func randSnapshot(r *rand.Rand) *metrics.Snapshot {
	snap := &metrics.Snapshot{}
	for i := r.Intn(3); i > 0; i-- {
		snap.Counters = append(snap.Counters, metrics.CounterSnap{Name: randString(r), Labels: randLabels(r), Value: r.Int63()})
	}
	for i := r.Intn(3); i > 0; i-- {
		snap.Gauges = append(snap.Gauges, metrics.GaugeSnap{Name: randString(r), Labels: randLabels(r), Value: randFloat(r), Peak: randFloat(r)})
	}
	for i := r.Intn(3); i > 0; i-- {
		h := metrics.HistogramSnap{Name: randString(r), Labels: randLabels(r), Count: r.Int63(),
			Sum: randFloat(r), P50: randFloat(r), P95: randFloat(r), P99: randFloat(r)}
		if r.Intn(3) > 0 {
			h.Buckets = []metrics.BucketSnap{{LE: "1", Count: 2}, {LE: "+Inf", Count: r.Int63()}}
		}
		snap.Histograms = append(snap.Histograms, h)
	}
	return snap
}

// randRunStats fills every field: nil and empty Layers, nil and set
// Compression and Metrics, zero and non-zero CodecCycles.
func randRunStats(r *rand.Rand) stats.RunStats {
	n := func() int64 { return r.Int63() - r.Int63() }
	s := stats.RunStats{
		Network: randString(r), Strategy: randString(r), Batch: r.Int() - r.Int(), ClockMHz: randFloat(r),
		Traffic: randTraffic(r), ComputeCycles: n(), MemCycles: n(), TotalCycles: n(), SRAMBytes: n(), MACs: n(),
		PeakUsedBanks: r.Int(), PeakPinnedBanks: -r.Int(), RoleSwitches: n(), BanksRecycled: n(), BanksEvicted: n(),
		Faults: stats.FaultStats{BankFailures: n(), TransientErrors: n(), Relocations: n(), FaultSpillBytes: n(),
			MigrationCycles: n(), DMARetries: n(), DMARetryCycles: n(), RetryBytes: n(), DegradedCycles: n()},
	}
	s.Energy.DRAMPJ, s.Energy.SRAMPJ, s.Energy.MACPJ = randFloat(r), randFloat(r), randFloat(r)
	switch r.Intn(3) {
	case 0: // nil Layers
	case 1:
		s.Layers = []stats.LayerStats{}
	default:
		for i := 1 + r.Intn(4); i > 0; i-- {
			l := stats.LayerStats{Name: randString(r), Kind: randString(r), Stage: randString(r),
				ComputeCycles: n(), MemCycles: n(), Cycles: n(), Traffic: randTraffic(r), SRAMBytes: n(),
				ReusedInputBytes: n(), RetainedBytes: n(), SpilledBytes: n(), RecycledBanks: n()}
			if r.Intn(2) == 0 {
				l.CodecCycles = n()
			}
			s.Layers = append(s.Layers, l)
		}
	}
	if r.Intn(2) == 0 {
		s.Compression = &stats.CompressionStats{Codec: randString(r), Logical: randTraffic(r), Wire: randTraffic(r),
			SavedBytes: n(), EncodeCycles: n(), DecodeCycles: n()}
	}
	if r.Intn(2) == 0 {
		s.Metrics = randSnapshot(r)
	}
	return s
}

func TestAppendJSONMatchesReflection(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randRunStats(r))
		},
	}
	check := func(s stats.RunStats) bool {
		checkEncodings(t, s)
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAppendJSONRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*stats.RunStats, float64){
		"ClockMHz": func(s *stats.RunStats, f float64) { s.ClockMHz = f },
		"DRAMPJ":   func(s *stats.RunStats, f float64) { s.Energy.DRAMPJ = f },
		"SRAMPJ":   func(s *stats.RunStats, f float64) { s.Energy.SRAMPJ = f },
		"MACPJ":    func(s *stats.RunStats, f float64) { s.Energy.MACPJ = f },
		"Metrics": func(s *stats.RunStats, f float64) {
			s.Metrics = &metrics.Snapshot{Gauges: []metrics.GaugeSnap{{Name: "g", Value: f}}}
		},
	}
	for name, set := range fields {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := stats.RunStats{Network: "n", Layers: []stats.LayerStats{{Name: "l"}}}
			set(&s, f)
			for _, indent := range []string{"", "  "} {
				if b, err := s.AppendJSON([]byte("x"), "", indent); err == nil || string(b) != "x" {
					t.Errorf("%s=%v indent %q: AppendJSON = %q, %v; want an error and dst unextended", name, f, indent, b, err)
				}
			}
			if _, err := json.Marshal(s); err == nil {
				t.Errorf("%s=%v: json.Marshal accepted it", name, f)
			}
		}
	}
}

// zooResults are the RunStats of every zoo network under SCM, plus an
// observed run and a compressed one.
func zooResults(tb testing.TB) []stats.RunStats {
	tb.Helper()
	var out []stats.RunStats
	for _, name := range nn.ZooNames() {
		s, err := core.Simulate(nn.MustBuild(name), core.Default(), core.SCM, nil)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, s)
	}
	net := nn.MustBuild("resnet18")
	s, err := core.SimulateObservedContext(context.Background(), net, core.Default(), core.SCM, nil, metrics.New())
	if err != nil {
		tb.Fatal(err)
	}
	out = append(out, s)
	cfg := core.Default()
	if cfg.Compression, err = compress.ParseSpec("zvc:sparsity=0.5,enc=2,dec=2"); err != nil {
		tb.Fatal(err)
	}
	if s, err = core.Simulate(net, cfg, core.SCM, nil); err != nil {
		tb.Fatal(err)
	}
	return append(out, s)
}

// FuzzRunStatsJSON decodes arbitrary JSON into a RunStats and checks
// its encodings against the reflection encoder. A plain go test runs
// it on the seeds: every zoo result round-trips through JSON intact.
func FuzzRunStatsJSON(f *testing.F) {
	for _, s := range zooResults(f) {
		b, err := json.Marshal(plainRunStats(s))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p plainRunStats
		if json.Unmarshal(data, &p) != nil {
			return
		}
		checkEncodings(t, stats.RunStats(p))
	})
}

// BenchmarkAppendJSON encodes a resnet152 result into a reused buffer,
// compact (the cached form) and indented at a reply's depth.
func BenchmarkAppendJSON(b *testing.B) {
	s, err := core.Simulate(nn.MustBuild("resnet152"), core.Default(), core.SCM, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct{ name, prefix, indent string }{{"compact", "", ""}, {"indented", "  ", "  "}} {
		b.Run(c.name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if buf, err = s.AppendJSON(buf[:0], c.prefix, c.indent); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
