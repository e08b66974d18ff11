// Package serve turns the simulator into a shared, concurrent,
// cache-backed service: a job-oriented execution engine on a bounded
// worker pool, a content-addressed result cache with single-flight
// de-duplication, and an HTTP JSON API (cmd/scm-serve) in front of it.
//
// The layering is deliberate: the engine knows nothing about HTTP, the
// cache knows nothing about jobs, and the pool (internal/serve/pool)
// knows nothing about simulations — each piece is testable alone and
// reusable by the CLIs (scm-dse and scm-exp parallelize on the same
// pool primitives).
package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"

	"shortcutmining/internal/core"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
)

// Key is the content address of a simulation request: a SHA-256 over
// the canonical JSON of the network graph, the full platform Config
// (which embeds the fault spec), the strategy, and the observation
// flag. Two requests with the same Key are guaranteed to produce the
// same RunStats, because the simulator is deterministic.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Request is one simulation job for the serve engine.
type Request struct {
	// Net is the validated network to run (nil only in a decoded
	// request that names a warm zoo network; see zoo).
	Net *nn.Network
	// Cfg is the platform; its Faults field (if any) participates in
	// the cache key like every other field.
	Cfg core.Config
	// Strategy selects the buffer-management design point.
	Strategy core.Strategy
	// Observe attaches a per-job metrics.Registry so the result embeds
	// a metrics snapshot. Observed and unobserved results are distinct
	// cache entries (their RunStats differ).
	Observe bool
	// RequestID is the serving-layer correlation ID. It deliberately
	// stays out of the cache key: two clients asking for the same work
	// under different IDs must share one cached result.
	RequestID string

	// zoo is the model-zoo name Net was built from, set only by
	// decodeSimulate. A request whose name already has a memoized hash
	// state carries no Net until a run needs it (built).
	zoo string
	// key is RequestKey's result, set by the simulate row's check so
	// an async job hashes its request once.
	key Key
}

// zooHashes maps a zoo name to the SHA-256 state after its network's
// canonical JSON and the 0 separator (the digest's MarshalBinary
// bytes). It holds no network: a warm name costs its ~110 B of state,
// and only names nn.Build accepted ever reach it, so it is bounded by
// nn.ZooNames.
var zooHashes sync.Map // string → []byte

// warmZoo reports whether name has a memoized hash state.
func warmZoo(name string) bool {
	_, ok := zooHashes.Load(name)
	return ok
}

// errNoNetwork reports a request with neither a network nor a zoo name.
var errNoNetwork = errors.New("serve: request has no network")

// built returns req with Net built from its zoo name if it carries
// only the name.
func (req Request) built() (Request, error) {
	switch {
	case req.Net != nil:
		return req, nil
	case req.zoo == "":
		return req, errNoNetwork
	}
	net, err := nn.Build(req.zoo)
	req.Net = net
	return req, err
}

// RequestKey computes the content address of req.
func RequestKey(req Request) (Key, error) {
	h, err := networkHash(req)
	if err != nil {
		return Key{}, err
	}
	if err := core.EncodeConfigJSON(h, req.Cfg); err != nil {
		return Key{}, fmt.Errorf("serve: hashing config: %w", err)
	}
	h.Write([]byte{0})
	io.WriteString(h, req.Strategy.String())
	if req.Observe {
		h.Write([]byte{1})
	}
	var k Key
	copy(k[:], h.Sum(nil))
	return k, nil
}

// networkHash returns a SHA-256 that has absorbed req's network and the
// 0 separator: resumed from the zoo name's memoized state when there is
// one, otherwise by encoding Net (and memoizing the state under the
// name, if the request has one).
func networkHash(req Request) (hash.Hash, error) {
	h := sha256.New()
	if st, ok := zooHashes.Load(req.zoo); ok {
		if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(st.([]byte)); err != nil {
			return nil, fmt.Errorf("serve: resuming network hash: %w", err)
		}
		return h, nil
	}
	if req.Net == nil {
		return nil, errNoNetwork
	}
	p := bufs.Get().(*[]byte)
	defer putBuf(p)
	b, err := nn.AppendJSON((*p)[:0], req.Net)
	if err != nil {
		return nil, fmt.Errorf("serve: hashing network: %w", err)
	}
	*p = append(b, 0)
	h.Write(*p)
	if req.zoo != "" {
		if st, err := h.(encoding.BinaryMarshaler).MarshalBinary(); err == nil {
			zooHashes.Store(req.zoo, st)
		}
	}
	return h, nil
}

// CacheStats is a point-in-time view of the cache counters.
type CacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
}

// Cache is a content-addressed LRU result cache with a byte budget.
// Entry cost is the compact JSON size of the RunStats (what
// json.Marshal writes), which bounds real memory within a small
// constant factor. A client receives the indented reply instead, about
// 1.9× larger. Entries stay structs rather than encoded bytes: a
// result's structs take about 0.78× its compact size, so a full budget
// of bytes would hold more memory, and job views share the structs.
// Cached RunStats are shared structures and must be treated as
// read-only by callers.
type Cache struct {
	mu     sync.Mutex
	budget int64                 // immutable after construction
	bytes  int64                 // guarded by mu
	ll     *list.List            // guarded by mu: front = most recently used
	byKey  map[Key]*list.Element // guarded by mu

	hits, misses, evictions int64 // guarded by mu
}

type cacheEntry struct {
	key  Key
	res  stats.RunStats
	size int64
}

// NewCache builds a cache bounded to budgetBytes of compact-encoded results.
// A non-positive budget disables caching (every Get misses).
func NewCache(budgetBytes int64) *Cache {
	return &Cache{budget: budgetBytes, ll: list.New(), byKey: make(map[Key]*list.Element)}
}

// Get returns the cached result for k, refreshing its recency.
func (c *Cache) Get(k Key) (stats.RunStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.misses++
		return stats.RunStats{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Put stores the result under k, evicting least-recently-used entries
// until the byte budget holds. A result larger than the whole budget
// is not cached at all.
func (c *Cache) Put(k Key, res stats.RunStats) {
	size, err := encodedSize(&res)
	if err != nil {
		return // unencodable results are simply not cached
	}
	if size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok { // idempotent re-insert refreshes recency
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[k] = c.ll.PushFront(&cacheEntry{key: k, res: res, size: size})
	c.bytes += size
	for c.bytes > c.budget {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.byKey, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// encodedSize is the length of res's compact JSON, encoded into a
// pooled scratch buffer.
func encodedSize(res *stats.RunStats) (int64, error) {
	p := bufs.Get().(*[]byte)
	defer putBuf(p)
	b, err := res.AppendJSON((*p)[:0], "", "")
	*p = b
	return int64(len(b)), err
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.ll.Len(), Bytes: c.bytes, BudgetBytes: c.budget,
	}
}
