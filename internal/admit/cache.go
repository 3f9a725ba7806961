package admit

import (
	"container/list"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Cache is the epoch-keyed result cache: (epoch, canonical Request) →
// Result. Correctness is free because an epoch *is* the identity of an
// index state — two requests with the same canonical key against the same
// epoch must produce the same answer, and a snapshot publish invalidates
// by construction (new epoch, new keys; Sweep promptly drops the stale
// generation). Entries are bounded by an LRU list; deterministic
// no-community failures are cached too (negative caching), since under
// repeat-heavy traffic they are as hot as hits.
//
// Cached *core.Result values are shared between callers: the serve layer
// returns a shallow copy with restamped per-query stats, and Community is
// immutable by contract (Vertices/Subgraph are documented read-only).
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recent; values are *cacheEntry
	entries map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key   string
	epoch int64
	res   *core.Result
	err   error // non-nil for a cached deterministic failure
}

// NewCache builds a cache bounded to max entries; max <= 0 disables the
// cache (every Get misses, Put is a no-op).
func NewCache(max int) *Cache {
	c := &Cache{max: max}
	if max > 0 {
		c.ll = list.New()
		c.entries = make(map[string]*list.Element, max)
	}
	return c
}

// Key canonicalizes a request under an epoch: the query vertex set is
// sorted and deduplicated, parameters are folded to their effective values
// (so {Eta: 0} and {Eta: 1000} share an entry), and the whole tuple is
// encoded into one string key.
func Key(epoch int64, req core.Request) string {
	q := append([]int(nil), req.Q...)
	sort.Ints(q)
	buf := make([]byte, 0, 64)
	buf = strconv.AppendInt(buf, epoch, 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(req.Algo), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(req.K), 10)
	buf = append(buf, '|')
	eta := req.Eta
	if eta <= 0 {
		eta = 1000
	}
	if req.Algo != core.AlgoLCTC {
		eta = 0 // only LCTC reads it; don't fragment the other algorithms
	}
	buf = strconv.AppendInt(buf, int64(eta), 10)
	buf = append(buf, '|')
	gamma := req.Gamma
	if req.DistanceMode == core.DistHop {
		gamma = 0
	} else if gamma == 0 {
		gamma = 3
	}
	if req.Algo != core.AlgoLCTC {
		gamma = 0
	}
	// The effective γ is the only way DistanceMode reaches an answer: it is
	// 0 under DistHop, so it keeps LCTC's two metrics apart, and the other
	// algorithms, which never read the mode, share one entry across it.
	buf = strconv.AppendUint(buf, math.Float64bits(gamma), 16)
	last := -1
	for _, v := range q {
		if v == last {
			continue // dedup: {1,1,2} and {1,2} are the same query set
		}
		last = v
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return string(buf)
}

// cacheable reports whether a request may use the cache at all. Verify
// requests bypass it: they exist to re-run the checker, not to be served
// from memory.
func cacheable(req core.Request) bool { return !req.Verify }

// Get looks up the canonical request under epoch. ok reports a hit; on a
// hit exactly one of res and err is non-nil (a cached deterministic
// failure returns its error).
func (c *Cache) Get(epoch int64, req core.Request) (res *core.Result, err error, ok bool) {
	if c.max <= 0 || !cacheable(req) {
		return nil, nil, false
	}
	key := Key(epoch, req)
	c.mu.Lock()
	el, hit := c.entries[key]
	if hit {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		res, err = e.res, e.err
	}
	c.mu.Unlock()
	if hit {
		c.hits.Add(1)
		return res, err, true
	}
	c.misses.Add(1)
	return nil, nil, false
}

// Put stores a completed answer (or a deterministic failure) under the
// epoch it was computed at, evicting the least-recently-used entry past
// the bound.
func (c *Cache) Put(epoch int64, req core.Request, res *core.Result, err error) {
	if c.max <= 0 || !cacheable(req) {
		return
	}
	key := Key(epoch, req)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.res, e.err = res, err
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, epoch: epoch, res: res, err: err})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Sweep drops every entry older than the given epoch. The publisher calls
// it on each epoch handoff: stale keys can never hit again (the epoch is
// part of the key), so this only frees their memory promptly instead of
// waiting for LRU churn.
func (c *Cache) Sweep(epoch int64) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		if e := el.Value.(*cacheEntry); e.epoch < epoch {
			c.ll.Remove(el)
			delete(c.entries, e.key)
		}
	}
}

// CacheStats is the cache's /stats slice.
type CacheStats struct {
	Hits    int64 `json:"cache_hits"`
	Misses  int64 `json:"cache_misses"`
	Entries int   `json:"cache_entries"`
}

// Stats snapshots the hit/miss counters and current size.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	if c.max > 0 {
		c.mu.Lock()
		st.Entries = c.ll.Len()
		c.mu.Unlock()
	}
	return st
}
