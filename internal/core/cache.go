package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// expandKey identifies one cached expansion: the raw keywords plus the
// exact options used. ExpanderOptions is all scalar fields, so the struct
// is comparable and usable as a map key directly.
type expandKey struct {
	keywords string
	opts     ExpanderOptions
}

// expandCacheShards is the shard count (a power of two, so the shard pick
// is a mask). Sharding keeps the cache off the batch layer's critical path:
// concurrent workers lock distinct shards instead of one global mutex.
const expandCacheShards = 16

// expandCache is a sharded LRU over Expand results with single-flight
// deduplication of concurrent cold misses. Entries are shared pointers —
// callers must treat cached Expansions as read-only.
type expandCache struct {
	shards   [expandCacheShards]cacheShard
	hits     atomic.Uint64
	misses   atomic.Uint64
	deduped  atomic.Uint64
	capacity int
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	items map[expandKey]*lruEntry
	// flight tracks keys whose pipeline run is in progress, so concurrent
	// cold misses on the same key wait for the leader instead of running
	// the pipeline again (single-flight).
	flight map[expandKey]*flightCall
	// Intrusive doubly-linked list in recency order; head is the most
	// recently used entry, tail the eviction victim.
	head, tail *lruEntry
}

// flightCall is one in-progress pipeline run; followers block on done and
// then read exp/err, which the leader sets before closing the channel.
type flightCall struct {
	done chan struct{}
	exp  *Expansion
	err  error
}

// errExpandAborted is what followers observe when the leader's pipeline
// call panicked instead of returning: the flight entry is torn down in a
// defer, so waiters unblock with a real error rather than a nil result.
var errExpandAborted = errors.New("core: expansion aborted: in-flight pipeline panicked")

type lruEntry struct {
	key        expandKey
	exp        *Expansion
	prev, next *lruEntry
}

// newExpandCache sizes a cache for roughly capacity entries spread over the
// shards; the per-shard capacity rounds up, and the effective total
// (per-shard cap × shard count, what CacheStats reports as Capacity) is
// what the cache actually enforces. capacity <= 0 disables caching
// (returns nil, and the nil methods below make that a cheap no-op).
func newExpandCache(capacity int) *expandCache {
	if capacity <= 0 {
		return nil
	}
	per := (capacity + expandCacheShards - 1) / expandCacheShards
	c := &expandCache{capacity: per * expandCacheShards}
	for i := range c.shards {
		c.shards[i] = cacheShard{cap: per, items: make(map[expandKey]*lruEntry, per)}
	}
	return c
}

// shardFor picks the shard by an FNV-1a hash of the keywords (the options
// rarely vary within one workload, so the keywords carry the entropy).
func (c *expandCache) shardFor(k expandKey) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(k.keywords); i++ {
		h ^= uint32(k.keywords[i])
		h *= 16777619
	}
	return &c.shards[h&(expandCacheShards-1)]
}

func (c *expandCache) get(k expandKey) (*Expansion, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	var exp *Expansion
	if ok {
		s.moveToFront(e)
		// Copy under the lock: a concurrent put may update e.exp in place.
		exp = e.exp
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return exp, true
}

func (c *expandCache) put(k expandKey, exp *Expansion) {
	if c == nil {
		return
	}
	s := c.shardFor(k)
	s.mu.Lock()
	s.insert(k, exp)
	s.mu.Unlock()
}

// CacheOutcome classifies how one Expand lookup was served by the cache —
// the per-request form of the aggregate CacheStats counters, surfaced so
// instrumentation can label individual requests.
type CacheOutcome uint8

const (
	// CacheBypass: caching is disabled; the pipeline ran directly.
	CacheBypass CacheOutcome = iota
	// CacheHit: the lookup was served from a cached entry.
	CacheHit
	// CacheMiss: the lookup led a fresh pipeline run (whose result was
	// cached on success).
	CacheMiss
	// CacheDeduped: the lookup joined another caller's in-flight run of
	// the same key (single-flight) instead of running the pipeline again.
	CacheDeduped
)

// String returns the outcome's instrumentation label.
func (o CacheOutcome) String() string {
	switch o {
	case CacheHit:
		return "hit"
	case CacheMiss:
		return "miss"
	case CacheDeduped:
		return "deduped"
	default:
		return "bypass"
	}
}

// getOrDo is the single-flight lookup behind Expand: a cached entry is
// returned immediately (hit); otherwise the first caller per key becomes
// the leader, runs fn and caches its result, while concurrent callers of
// the same key block until the leader finishes and share its result and
// error (deduped). A nil cache degrades to calling fn directly — with
// caching disabled there is nowhere to publish in-flight state.
//
// fn runs outside the shard lock, so slow pipelines only serialize callers
// of the same key, never the shard. Errors are returned to every waiter
// but never cached: the next lookup after a failure leads a fresh run.
//
// ctx bounds only the wait: a follower whose context dies abandons the
// flight and returns ctx.Err(), while the leader always runs fn to
// completion and publishes the result, so a slow pipeline started for an
// impatient caller still warms the cache for everyone after it.
func (c *expandCache) getOrDo(ctx context.Context, k expandKey, fn func() (*Expansion, error)) (*Expansion, CacheOutcome, error) {
	if c == nil {
		exp, err := fn()
		return exp, CacheBypass, err
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		s.moveToFront(e)
		exp := e.exp
		s.mu.Unlock()
		c.hits.Add(1)
		return exp, CacheHit, nil
	}
	if fl, ok := s.flight[k]; ok {
		s.mu.Unlock()
		c.deduped.Add(1)
		select {
		case <-fl.done:
			return fl.exp, CacheDeduped, fl.err
		case <-ctx.Done():
			return nil, CacheDeduped, ctx.Err()
		}
	}
	fl := &flightCall{done: make(chan struct{})}
	if s.flight == nil {
		s.flight = make(map[expandKey]*flightCall)
	}
	s.flight[k] = fl
	s.mu.Unlock()
	c.misses.Add(1)

	completed := false
	defer func() {
		if !completed { // fn panicked: fail the waiters, then re-panic
			fl.exp, fl.err = nil, errExpandAborted
		}
		s.mu.Lock()
		delete(s.flight, k)
		if fl.err == nil {
			s.insert(k, fl.exp)
		}
		s.mu.Unlock()
		close(fl.done)
	}()
	fl.exp, fl.err = fn()
	completed = true
	return fl.exp, CacheMiss, fl.err
}

// insert adds or refreshes an entry; the caller holds s.mu.
func (s *cacheShard) insert(k expandKey, exp *Expansion) {
	if e, ok := s.items[k]; ok {
		e.exp = exp
		s.moveToFront(e)
		return
	}
	if len(s.items) >= s.cap {
		victim := s.tail
		s.unlink(victim)
		delete(s.items, victim.key)
	}
	e := &lruEntry{key: k, exp: exp}
	s.items[k] = e
	s.pushFront(e)
}

func (s *cacheShard) pushFront(e *lruEntry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *lruEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// CacheStats reports the expansion cache's counters since construction.
type CacheStats struct {
	// Hits counts lookups served from a cached entry; Misses counts
	// lookups that led a pipeline run; Deduped counts lookups that joined
	// another caller's in-flight run of the same key (single-flight)
	// instead of running the pipeline again.
	Hits    uint64
	Misses  uint64
	Deduped uint64

	Entries  int
	Capacity int
}

// HitRate is the fraction of lookups that did not run the pipeline —
// cache hits plus single-flight followers — over all lookups (0 when the
// cache has never been consulted).
func (cs CacheStats) HitRate() float64 {
	total := cs.Hits + cs.Misses + cs.Deduped
	if total == 0 {
		return 0
	}
	return float64(cs.Hits+cs.Deduped) / float64(total)
}

func (c *expandCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	cs := CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Deduped:  c.deduped.Load(),
		Capacity: c.capacity,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		cs.Entries += len(s.items)
		s.mu.Unlock()
	}
	return cs
}
