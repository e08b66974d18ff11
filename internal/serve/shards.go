package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"sync/atomic"

	"shortcutmining/internal/metrics"
)

// Shard-front metric names. The per-engine serving metrics live on
// each shard's own registry; these describe the routing layer that
// spreads work across shards and forwards cacheable requests to their
// content-hash owner.
const (
	MetricShardRequests    = "scm_shard_requests_total"
	MetricShardForwards    = "scm_shard_forwards_total"
	MetricShardForwardHits = "scm_shard_forward_hits_total"
	MetricShardQueueDepth  = "scm_shard_queue_depth"
	MetricShardBusyWorkers = "scm_shard_busy_workers"
	MetricShardCacheBytes  = "scm_shard_cache_bytes"
)

// Shards runs N serve engines side by side as one logical service.
// The result cache is sharded by content hash: every simulate request
// has exactly one owner shard (RequestKey mod N), and whichever shard
// a request enters through, it is forwarded to its owner, so the
// cluster-wide cache holds one copy of each result instead of N.
// Non-cacheable work (sweeps, schedules, cluster runs) is spread
// round-robin. Each shard's job IDs carry its prefix ("s0-j000001"),
// which is how a job lookup finds its way home.
type Shards struct {
	engines []*Engine
	reg     *metrics.Registry
	rr      atomic.Uint64

	mForwards    *metrics.Counter
	mForwardHits *metrics.Counter
}

// NewShards builds and starts n engines. opts applies to every shard
// except JobPrefix (overridden per shard) and Registry: each engine
// gets its own registry so per-shard serving metrics stay separate,
// while the front keeps opts.Registry (or a fresh one) for the
// routing-layer series exposed at GET /metrics.
func NewShards(n int, opts Options) (*Shards, error) {
	if n < 2 {
		return nil, fmt.Errorf("serve: sharded deployment needs at least 2 shards, have %d", n)
	}
	if opts.Journal != nil {
		// One journal cannot be shared: appends from N engines would
		// interleave and Recover would re-admit every shard's jobs into
		// one engine. Durable sharded serving needs one journal per
		// shard, which the flat Options cannot express yet.
		return nil, fmt.Errorf("serve: sharded deployment does not support a shared journal")
	}
	sh := &Shards{reg: opts.Registry}
	if sh.reg == nil {
		sh.reg = metrics.New()
	}
	for i := 0; i < n; i++ {
		eo := opts
		eo.JobPrefix = fmt.Sprintf("s%d-j", i)
		eo.Registry = nil // each engine mints its own
		sh.engines = append(sh.engines, NewEngine(eo))
	}
	sh.mForwards = sh.reg.Counter(MetricShardForwards,
		"simulate requests forwarded from their entry shard to their content-hash owner")
	sh.mForwardHits = sh.reg.Counter(MetricShardForwardHits,
		"forwarded simulate requests served from the owner shard's result cache")
	return sh, nil
}

// NumShards returns the shard count.
func (s *Shards) NumShards() int { return len(s.engines) }

// Shard returns shard i's engine (for tests and direct embedding).
func (s *Shards) Shard(i int) *Engine { return s.engines[i] }

// Drain shuts every shard down, returning the first error.
func (s *Shards) Drain(ctx context.Context) error {
	var first error
	for _, e := range s.engines {
		if err := e.Drain(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// owner maps a request key onto its owning shard: the first 8 bytes of
// the SHA-256 content hash, mod N. Every shard computes the same owner
// for the same logical request, whatever JSON spelling it arrived in.
func (s *Shards) owner(key Key) int {
	return int(binary.BigEndian.Uint64(key[:8]) % uint64(len(s.engines)))
}

// entry picks the next entry shard round-robin.
func (s *Shards) entry() int {
	return int((s.rr.Add(1) - 1) % uint64(len(s.engines)))
}

// entryEngine picks the next round-robin engine and counts the arrival.
func (s *Shards) entryEngine(route string) *Engine {
	i := s.entry()
	s.reg.Counter(MetricShardRequests, "requests by entry shard and route",
		metrics.L("shard", fmt.Sprintf("s%d", i)), metrics.L("route", route)).Inc()
	return s.engines[i]
}

// routeSimulate decides where a simulate request executes: its
// content-hash owner. The entry shard is still drawn round-robin so
// the forwarding rate is observable (entry != owner is a forward).
func (s *Shards) routeSimulate(w http.ResponseWriter, r *http.Request) {
	body, req, ok := parseSimulate(w, r)
	if !ok {
		return
	}
	entry := s.entry()
	s.reg.Counter(MetricShardRequests, "requests by entry shard and route",
		metrics.L("shard", fmt.Sprintf("s%d", entry)), metrics.L("route", "simulate")).Inc()
	key, err := RequestKey(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	own := s.owner(key)
	forwarded := own != entry
	if forwarded {
		s.mForwards.Inc()
	}
	cached := serveSimulate(s.engines[own], w, r, body, req)
	if forwarded && cached {
		s.mForwardHits.Inc()
	}
}

// routeJob finds the shard owning a job ID by asking each engine; the
// per-shard ID prefixes guarantee at most one can answer.
func (s *Shards) routeJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	for _, e := range s.engines {
		if j, ok := e.Job(id); ok {
			writeJSON(w, http.StatusOK, j.View())
			return
		}
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
}

// routeHealth aggregates shard health: the worst status wins
// (draining > degraded > ok) and capacity fields are summed.
func (s *Shards) routeHealth(w http.ResponseWriter) {
	reply := healthReply{Status: "ok"}
	rank := map[string]int{"ok": 0, "degraded": 1, "draining": 2}
	for i, e := range s.engines {
		status, reasons := e.Health()
		if rank[status] > rank[reply.Status] {
			reply.Status = status
		}
		for _, why := range reasons {
			reply.Reasons = append(reply.Reasons, fmt.Sprintf("s%d: %s", i, why))
		}
		reply.Workers += e.pool.Workers()
		reply.Busy += e.pool.Busy()
		reply.Queued += e.pool.QueueLen()
		cs := e.CacheStats()
		reply.Cache.Bytes += cs.Bytes
		reply.Cache.Entries += cs.Entries
		reply.Cache.Hits += cs.Hits
		reply.Cache.Misses += cs.Misses
		reply.Cache.Evictions += cs.Evictions
	}
	reply.Draining = reply.Status == "draining"
	code := http.StatusOK
	if reply.Draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, reply)
}

// syncShardGauges copies per-shard occupancy into the front registry
// under shard labels (the engines' own registries are not scraped).
func (s *Shards) syncShardGauges() {
	for i, e := range s.engines {
		l := metrics.L("shard", fmt.Sprintf("s%d", i))
		s.reg.Gauge(MetricShardQueueDepth, "jobs queued but not yet running, per shard", l).Set(float64(e.pool.QueueLen()))
		s.reg.Gauge(MetricShardBusyWorkers, "workers currently executing a job, per shard", l).Set(float64(e.pool.Busy()))
		s.reg.Gauge(MetricShardCacheBytes, "encoded bytes held by the shard's result cache", l).Set(float64(e.CacheStats().Bytes))
	}
}

func (s *Shards) routeMetrics(w http.ResponseWriter) {
	s.syncShardGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// scmvet:ok ignorederr best-effort scrape; a failed write only affects the scraper
	s.reg.WriteProm(w)
}

// NewShardedHandler wires the sharded service's HTTP API. The surface
// is identical to NewHandler's; behind it, simulate requests route to
// their content-hash owner shard, job submissions spread round-robin,
// and job lookups follow their ID prefix home. The correlation
// middleware runs on shard 0's logger/clock (one access log for the
// whole front).
func NewShardedHandler(s *Shards) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) { s.routeSimulate(w, r) })
	for _, k := range []*jobKind{sweepKind, scheduleKind, clusterKind} {
		mux.HandleFunc("POST /v1/"+k.name, func(w http.ResponseWriter, r *http.Request) {
			handleAsync(s.entryEngine(k.name), k, w, r)
		})
	}
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) { s.routeJob(w, r) })
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { s.routeHealth(w) })
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) { s.routeMetrics(w) })
	return withRequestID(s.engines[0], mux)
}
