package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"shortcutmining/internal/core"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
)

// plainRunStats has RunStats' fields without its methods, so
// json.Marshal encodes it by reflection.
type plainRunStats stats.RunStats

// TestSimulateReplyMatchesWriteJSON: the direct simulate reply is byte
// for byte the writeJSON encoding of simulateReply, cached or not, with
// and without a request ID (escaped ones included).
func TestSimulateReplyMatchesWriteJSON(t *testing.T) {
	for _, name := range []string{"densechain", "resnet34", "vgg16"} {
		res, err := core.Simulate(nn.MustBuild(name), core.Default(), core.SCM, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"", "abcd-000001", `r<1>&"\` + "\n "} {
			for _, cached := range []bool{false, true} {
				want := httptest.NewRecorder()
				writeJSON(want, http.StatusOK, simulateReply{Cached: cached, RequestID: id, Stats: &res})
				got := httptest.NewRecorder()
				writeSimulateReply(got, cached, id, &res)
				if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) ||
					got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
					t.Fatalf("%s id %q cached %v: reply differs\n got: %d %.300s\nwant: %d %.300s",
						name, id, cached, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
				}
			}
		}
	}
}

// checkErrorReply asserts a 500 whose body is a JSON error document.
func checkErrorReply(t *testing.T, what string, rec *httptest.ResponseRecorder) {
	t.Helper()
	var reply errorReply
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("%s: status %d, want 500 (body %q)", what, rec.Code, rec.Body.Bytes())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Error == "" {
		t.Errorf("%s: body %q is not a JSON error reply (%v)", what, rec.Body.Bytes(), err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", what, ct)
	}
}

// TestUnencodableReplyIs500: a value that cannot be encoded (a NaN
// float) becomes a 500 with a JSON error body, not a committed 200 with
// an empty body, on both reply writers; such a result is not cached.
func TestUnencodableReplyIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	checkErrorReply(t, "writeJSON", rec)

	e := NewEngine(Options{Workers: 1})
	defer e.Drain(context.Background())
	var runs atomic.Int64
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		runs.Add(1)
		return stats.RunStats{Network: "nan", ClockMHz: math.NaN(), Layers: []stats.LayerStats{}}, nil
	}
	h := NewHandler(e)
	for i := 1; i <= 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(`{"network":"densechain"}`)))
		checkErrorReply(t, "simulate", rec)
		if got := runs.Load(); got != int64(i) {
			t.Errorf("request %d: %d simulations, want %d (an unencodable result must not be served from the cache)", i, got, i)
		}
	}
	if s := e.CacheStats(); s.Entries != 0 || s.Bytes != 0 {
		t.Errorf("unencodable result cached: %+v", s)
	}
}

// TestCacheChargesCompactJSON: entries are charged exactly the
// json.Marshal length of their RunStats, and come back unchanged.
func TestCacheChargesCompactJSON(t *testing.T) {
	c := NewCache(1 << 30)
	var want int64
	var encoded [][]byte
	for i, name := range nn.ZooNames() {
		res, err := core.Simulate(nn.MustBuild(name), core.Default(), core.SCM, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(plainRunStats(res))
		if err != nil {
			t.Fatal(err)
		}
		want += int64(len(b))
		encoded = append(encoded, b)
		c.Put(fakeKey(i), res)
	}
	if s := c.Stats(); s.Bytes != want || s.Entries != len(encoded) {
		t.Errorf("cache charges %d bytes for %d entries, want %d for %d", s.Bytes, s.Entries, want, len(encoded))
	}
	for i, b := range encoded {
		res, ok := c.Get(fakeKey(i))
		if !ok {
			t.Fatalf("entry %d missing", i)
		}
		if got, err := json.Marshal(plainRunStats(res)); err != nil || !bytes.Equal(got, b) {
			t.Errorf("entry %d (%s) changed in the cache", i, res.Network)
		}
	}
}

// discardWriter is a ResponseWriter that keeps only the status and the
// byte count, so a benchmark charges the handler and not a recorder's
// growing buffer.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestWarmHitReplyBytes bounds the bytes a warm resnet34 cache hit
// allocates through NewHandler: a host-speed-independent guard on the
// reflection-free reply encode. Through this writer a hit allocated
// 53 KB when the reply went through json.Marshal and a separate indent
// pass, and about 10 KB since; a race build allocates about 40 KB,
// because the race detector makes sync.Pool drop buffers at random.
func TestWarmHitReplyBytes(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Drain(context.Background())
	h := NewHandler(e)
	const body = `{"network":"resnet34"}`
	serve := func() *discardWriter {
		w := &discardWriter{header: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
		return w
	}
	if w := serve(); w.code != http.StatusOK {
		t.Fatalf("cold request: status %d", w.code)
	}
	var failed atomic.Bool
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if w := serve(); w.code != http.StatusOK || w.n == 0 {
				failed.Store(true)
			}
		}
	})
	if failed.Load() {
		t.Fatal("a warm hit failed")
	}
	if s := e.CacheStats(); s.Misses != 1 {
		t.Fatalf("%d cache misses, want only the cold one", s.Misses)
	}
	const limit = 48 << 10
	if got := r.AllocedBytesPerOp(); got > limit {
		t.Errorf("warm hit allocates %d B per request, want at most %d", got, limit)
	}
	t.Logf("warm hit: %d B, %d allocs per request", r.AllocedBytesPerOp(), r.AllocsPerOp())
}
