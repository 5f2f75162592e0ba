package querygraph

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/querygraph/querygraph/internal/live"
	"github.com/querygraph/querygraph/internal/shard"
	"github.com/querygraph/querygraph/internal/store"
	"github.com/querygraph/querygraph/internal/trace"
)

// localRuntime is the in-process serving runtime both *Client and *Pool
// embed: a pinned, refcounted generation (one shard.Set plus the live
// delta segment above it), the observed Backend methods over it, ingest
// admission, compaction and the Close drain. A Client serves a one-shard
// set built in memory, a Pool the sets its manifest names; the two differ
// only in how a compaction publishes the archives shard.Fold returns.
//
// All methods are safe for concurrent use. After Close, query paths
// return ErrClosed and accessors return zero values.
//
//qlint:serving
//qlint:observed
type localRuntime struct {
	// gen is the serving generation; nil once closed. The serving path
	// loads it lock-free; every store happens under mu (enforced by the
	// atomicguard analyzer).
	//
	//qlint:guarded-by mu
	gen atomic.Pointer[generation]

	// mu serializes the write path — Close, Ingest, Compact and a Pool's
	// Reload; the serving path never takes it. seq is the sequence
	// number of the last published generation.
	mu  sync.Mutex
	seq uint64

	cfg clientConfig
	// publish turns the archives of a compaction into the next
	// generation's set; it runs under mu. The constructor chooses it.
	publish func(archives []*store.Archive) (*shard.Set, error)

	// Live-index lifecycle: completed-compaction count, the single-flight
	// guard of the background compactor, and the wait group Close blocks
	// on so no compaction goroutine outlives the runtime.
	compactions atomic.Uint64
	compacting  atomic.Bool
	bg          sync.WaitGroup
}

// start publishes set as generation 1. The owner calls it from its
// constructor, before the runtime is shared.
func (r *localRuntime) start(set *shard.Set, cfg clientConfig, publish func([]*store.Archive) (*shard.Set, error)) {
	r.cfg, r.publish, r.seq = cfg, publish, 1
	r.gen.Store(newGeneration(set, 1, nil)) //qlint:ignore atomicguard constructor: r has not escaped, no concurrent writer exists yet
}

// generation is one loaded shard set plus its lifecycle state. refs
// starts at 1 — the runtime's own reference, dropped when the generation
// is retired — so the count can only reach zero after retirement, at
// which point drained closes exactly once.
type generation struct {
	set *shard.Set
	seq uint64

	// state is the live delta segment above this generation's base
	// snapshot together with the scorer's view of shards+delta. The
	// serving path loads it lock-free; every store happens under the
	// runtime's mu (enforced by the atomicguard analyzer). It lives with
	// the generation so a pinned request sees one consistent base+delta
	// pair.
	//
	//qlint:guarded-by mu
	state atomic.Pointer[genState]

	refs      atomic.Int64
	retired   atomic.Bool
	drained   chan struct{}
	drainOnce sync.Once
}

// genState is one published delta segment (nil = empty) and the view
// that scores the generation's shards plus that segment.
type genState struct {
	delta *live.Delta
	view  sourceView
}

func newGenState(set *shard.Set, delta *live.Delta) *genState {
	return &genState{
		delta: delta,
		view:  newSourceView(set.Systems()[0], set.Sources(), set.GlobalTokens(), delta),
	}
}

// newGeneration wraps a loaded set, carrying delta (nil = empty) above
// it.
func newGeneration(set *shard.Set, seq uint64, delta *live.Delta) *generation {
	g := &generation{set: set, seq: seq, drained: make(chan struct{})}
	g.refs.Store(1)
	g.state.Store(newGenState(set, delta)) //qlint:ignore atomicguard constructor: g has not escaped, no concurrent reader or writer exists yet
	return g
}

// delta returns the generation's current delta segment (nil = empty).
func (g *generation) delta() *live.Delta { return g.state.Load().delta }

func (g *generation) release() {
	if g.refs.Add(-1) == 0 && g.retired.Load() {
		g.drainOnce.Do(func() { close(g.drained) })
	}
}

// retire marks the generation as superseded and drops the runtime's own
// reference; drained closes once the last in-flight request releases.
func (g *generation) retire() {
	g.retired.Store(true)
	g.release()
}

// acquire pins the current generation for one request; it fails with
// ErrClosed once Close has swapped the generation out. The retry loop
// closes the swap race: after incrementing refs we re-check that the
// generation is still current — if it is, the runtime's own reference
// had not been dropped when we incremented (atomic operations are totally
// ordered), so the count can not have touched zero and the generation is
// safely pinned; if it is not (a Reload or Compact swapped in a newer
// generation, or Close swapped in nil), we release and retry on whatever
// is current.
func (r *localRuntime) acquire() (*generation, error) {
	for {
		g := r.gen.Load()
		if g == nil {
			return nil, ErrClosed
		}
		g.refs.Add(1)
		if r.gen.Load() == g {
			return g, nil
		}
		g.release()
	}
}

// Close retires the runtime: the live generation is swapped out and
// retired, any background compaction finishes, in-flight requests drain
// (Close blocks until the last one releases), and every later query-path
// call returns ErrClosed. Close is idempotent — a second call returns nil
// immediately — and safe concurrently with every other method. After
// Close, Link, Title, Stats and CacheStats return zero values; the
// generation, its caches included, is left to the collector.
func (r *localRuntime) Close() error {
	r.mu.Lock()
	old := r.gen.Swap(nil)
	r.mu.Unlock()
	if old == nil {
		return nil
	}
	// An in-flight background compaction finds the nil generation under
	// mu and bails; wait it out so Close leaves no goroutine behind.
	r.bg.Wait()
	old.retire()
	<-old.drained
	return nil
}

// Title returns the display title of a knowledge-base node ("" once
// closed).
func (r *localRuntime) Title(id NodeID) string {
	g, err := r.acquire()
	if err != nil {
		return ""
	}
	defer g.release()
	return g.set.Systems()[0].Snapshot.Name(id)
}

// Entity is one knowledge-base article a query mentions.
type Entity struct {
	ID    NodeID `json:"id"`
	Title string `json:"title"`
}

// Link computes L(q.k): the main articles the keywords mention, by
// largest-substring entity linking with redirect synonyms (nil once
// closed).
func (r *localRuntime) Link(keywords string) []Entity {
	g, err := r.acquire()
	if err != nil {
		return nil
	}
	defer g.release()
	sys := g.set.Systems()[0]
	ids := sys.LinkKeywords(keywords)
	out := make([]Entity, len(ids))
	for i, id := range ids {
		out[i] = Entity{ID: id, Title: sys.Snapshot.Name(id)}
	}
	return out
}

// Search parses the INDRI-style query text (bare keywords, #combine,
// #weight, #1 exact phrases) and returns the top k documents by
// descending Dirichlet-smoothed query likelihood (ties broken by
// ascending doc id; k <= 0 ranks every candidate; no match returns an
// empty non-nil slice). Every shard and the live delta score under the
// merged collection statistics, so the ranking is bit-identical to one
// index holding every document. A done ctx returns ctx.Err() without
// searching.
func (r *localRuntime) Search(ctx context.Context, query string, k int) ([]Result, error) {
	start := time.Now()
	rs, shards, err := r.searchText(ctx, query, k, nil)
	r.cfg.obs.search(start, k, shards, false, err)
	return rs, err
}

// SearchInto is Search reusing dst's storage for the returned ranking
// (dst may be nil). At steady state — the query's parsed plan already in
// the engine's memoized cache, dst recycled by the caller — the whole
// path allocates nothing: parse, postings planning, scoring scratch and
// the top-k heap all come from pools. Neither query nor dst is retained
// beyond the call.
func (r *localRuntime) SearchInto(ctx context.Context, query string, k int, dst []Result) ([]Result, error) {
	start := time.Now()
	rs, shards, err := r.searchText(ctx, query, k, dst)
	r.cfg.obs.search(start, k, shards, false, err)
	return rs, err
}

func (r *localRuntime) searchText(ctx context.Context, query string, k int, dst []Result) ([]Result, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	g, err := r.acquire()
	if err != nil {
		return nil, 0, err
	}
	defer g.release()
	rs, err := g.state.Load().view.searchText(ctx, query, k, dst)
	return rs, g.set.NumShards(), err
}

// SearchAll evaluates a batch of query texts on a bounded worker pool and
// returns the per-query rankings in input order. All queries are parsed
// up front (the first invalid query aborts the batch with
// ErrInvalidQuery); cancelling ctx stops scheduling the remaining queries
// and returns ctx.Err(). The whole batch runs on the generation current
// at call time, even if a Reload or Compact lands mid-batch.
func (r *localRuntime) SearchAll(ctx context.Context, queries []string, k int, opts BatchOptions) ([][]Result, error) {
	start := time.Now()
	rss, shards, err := r.searchAll(ctx, queries, k, opts)
	r.cfg.obs.batch(start, BatchSearch, len(queries), k, shards, err)
	return rss, err
}

func (r *localRuntime) searchAll(ctx context.Context, queries []string, k int, opts BatchOptions) ([][]Result, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	g, err := r.acquire()
	if err != nil {
		return nil, 0, err
	}
	defer g.release()
	rss, err := g.state.Load().view.searchAll(ctx, queries, k, opts)
	return rss, g.set.NumShards(), err
}

// Expand runs the online cycle-based expansion pipeline of the paper's
// conclusions for one keyword query: entity-link the keywords, induce the
// Wikipedia neighborhood, mine cycles, keep the structurally promising
// ones (dense, category ratio around 30% by default) and rank the
// articles they introduce. The pipeline runs once, on the replicated
// graph of shard 0. Options override the paper-tuned defaults; invalid
// values return an error wrapping ErrInvalidOptions.
//
// Results are memoized in a sharded single-flight LRU cache that lives
// with the generation (a reload or compaction starts it cold); the
// returned Expansion may be shared with other callers and must be treated
// as read-only. A done ctx returns ctx.Err() without touching pipeline or
// cache; a ctx that dies while another caller's identical call is in
// flight abandons the wait (that caller still completes and populates the
// cache).
func (r *localRuntime) Expand(ctx context.Context, keywords string, opts ...ExpandOption) (*Expansion, error) {
	start := time.Now()
	exp, outcome, shards, err := r.expand(ctx, keywords, opts)
	r.cfg.obs.expand(start, outcome, exp, shards, err)
	return exp, err
}

func (r *localRuntime) expand(ctx context.Context, keywords string, opts []ExpandOption) (*Expansion, CacheOutcome, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, CacheBypass, 0, err
	}
	eopts, err := normalizeExpandOptions(opts)
	if err != nil {
		return nil, CacheBypass, 0, err
	}
	g, err := r.acquire()
	if err != nil {
		return nil, CacheBypass, 0, err
	}
	defer g.release()
	tr := trace.FromContext(ctx)
	start := time.Now()
	exp, outcome, err := g.set.ExpandOutcome(ctx, keywords, eopts)
	if tr != nil {
		// The cache outcome of the expand lookup rides in the span detail.
		tr.Add("expand", start, -1, 0, false, ErrorClass(err), outcome.String())
	}
	return exp, outcome, g.set.NumShards(), err
}

// ExpandAll runs Expand for every keyword query on a bounded worker pool
// and returns the expansions in input order. Repeated keywords are served
// from the expansion cache and concurrent duplicates are single-flighted.
// Cancelling ctx stops scheduling and returns ctx.Err().
func (r *localRuntime) ExpandAll(ctx context.Context, keywords []string, bopts BatchOptions, opts ...ExpandOption) ([]*Expansion, error) {
	start := time.Now()
	exps, shards, err := r.expandAll(ctx, keywords, bopts, opts)
	r.cfg.obs.batch(start, BatchExpand, len(keywords), 0, shards, err)
	return exps, err
}

func (r *localRuntime) expandAll(ctx context.Context, keywords []string, bopts BatchOptions, opts []ExpandOption) ([]*Expansion, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	eopts, err := normalizeExpandOptions(opts)
	if err != nil {
		return nil, 0, err
	}
	g, err := r.acquire()
	if err != nil {
		return nil, 0, err
	}
	defer g.release()
	exps, err := g.set.ExpandAll(ctx, keywords, eopts, bopts)
	return exps, g.set.NumShards(), err
}

// SearchExpansion evaluates an expansion end to end: it writes the
// expanded title query (exact phrases for the query entities and every
// feature) once on the replicated graph and returns the top k documents.
// ok reports whether the expansion had anything to search for (entities,
// features or keywords); it stays true when the search itself fails, so
// err alone signals failure.
func (r *localRuntime) SearchExpansion(ctx context.Context, exp *Expansion, k int) (results []Result, ok bool, err error) {
	start := time.Now()
	rs, ok, shards, err := r.searchExpansion(ctx, exp, k)
	r.cfg.obs.search(start, k, shards, true, err)
	return rs, ok, err
}

func (r *localRuntime) searchExpansion(ctx context.Context, exp *Expansion, k int) ([]Result, bool, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, 0, err
	}
	g, err := r.acquire()
	if err != nil {
		return nil, false, 0, err
	}
	defer g.release()
	rs, ok, err := g.state.Load().view.searchExpansion(exp, k)
	return rs, ok, g.set.NumShards(), err
}

// SearchExpansions evaluates a batch of expansions on a bounded worker
// pool, returning the per-expansion rankings in input order. Expansions
// with nothing to search for yield a nil ranking. Cancelling ctx stops
// scheduling and returns ctx.Err().
func (r *localRuntime) SearchExpansions(ctx context.Context, exps []*Expansion, k int, opts BatchOptions) ([][]Result, error) {
	start := time.Now()
	rss, shards, err := r.searchExpansions(ctx, exps, k, opts)
	r.cfg.obs.batch(start, BatchSearchExpansions, len(exps), k, shards, err)
	return rss, err
}

func (r *localRuntime) searchExpansions(ctx context.Context, exps []*Expansion, k int, opts BatchOptions) ([][]Result, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	g, err := r.acquire()
	if err != nil {
		return nil, 0, err
	}
	defer g.release()
	rss, err := g.state.Load().view.searchExpansions(ctx, exps, k, opts)
	return rss, g.set.NumShards(), err
}

// Ingest appends documents to the current generation's in-memory delta
// segment; they are searchable by the time the call returns — scored
// with the shards as one extra source under merged collection
// statistics, bit-identical to a rebuilt index — and survive into the
// next compaction. The batch is atomic: a duplicate external id (against
// every shard and the segment itself) or a segment past its capacity
// (WithDeltaCapacity) admits nothing. docs is not retained.
func (r *localRuntime) Ingest(ctx context.Context, docs []Document) (IngestStats, error) {
	start := time.Now()
	st, shards, err := r.ingest(ctx, docs)
	r.cfg.obs.ingest(start, len(docs), st.DeltaDocs, shards, err)
	return st, err
}

func (r *localRuntime) ingest(ctx context.Context, docs []Document) (IngestStats, int, error) {
	if err := ctx.Err(); err != nil {
		return IngestStats{}, 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gen.Load()
	if g == nil {
		return IngestStats{}, 0, ErrClosed
	}
	shards := g.set.NumShards()
	cur := g.delta()
	out := IngestStats{
		DeltaDocs:  cur.NumDocs(),
		DeltaBytes: cur.Bytes(),
		Generation: g.seq,
	}
	if len(docs) == 0 {
		return out, shards, nil
	}
	next, err := admitIngest(cur, r.cfg.deltaCapacity(), g.set.Systems(), g.set.GlobalDocs(), docs)
	if err != nil {
		return out, shards, err
	}
	g.state.Store(newGenState(g.set, next)) //qlint:ignore atomicguard r.mu is held since the Lock above; the generation's guard is the runtime's mutex
	r.maybeAutoCompactLocked(next.NumDocs())
	return IngestStats{
		Ingested:   len(docs),
		DeltaDocs:  next.NumDocs(),
		DeltaBytes: next.Bytes(),
		Generation: g.seq,
	}, shards, nil
}

// Compact folds the delta segment into a fresh generation — each shard
// extended with its hash-share of the delta documents, exactly the
// partition a rebuild of the merged corpus produces — and hot-swaps it
// with zero downtime: requests pinned to the old generation finish on it,
// new requests see the compacted one, and search results are identical
// before and after. An empty delta is a successful no-op with the
// generation unchanged; a real compaction advances it and starts the
// expansion cache cold (the knowledge graph is untouched, so cached
// expansions are merely recomputed, never wrong).
func (r *localRuntime) Compact(ctx context.Context) (CompactStats, error) {
	start := time.Now()
	cs, shards, err := r.compact(ctx)
	r.cfg.obs.compact(start, cs.Compacted, cs.Generation, shards, err)
	return cs, err
}

func (r *localRuntime) compact(ctx context.Context) (CompactStats, int, error) {
	if err := ctx.Err(); err != nil {
		return CompactStats{}, 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.compactLocked()
}

// compactLocked does the fold-publish-swap; callers hold mu. A publish
// failure leaves the old generation (and its delta) serving untouched.
//
//qlint:locked mu
func (r *localRuntime) compactLocked() (CompactStats, int, error) {
	g := r.gen.Load()
	if g == nil {
		return CompactStats{}, 0, ErrClosed
	}
	shards := g.set.NumShards()
	delta := g.delta()
	if delta.NumDocs() == 0 {
		return CompactStats{Documents: g.set.GlobalDocs(), Generation: g.seq}, shards, nil
	}
	archives, err := shard.Fold(g.set, delta)
	if err != nil {
		return CompactStats{Generation: g.seq}, shards, err
	}
	set, err := r.publish(archives)
	if err != nil {
		return CompactStats{Generation: g.seq}, shards, err
	}
	r.seq++
	next := newGeneration(set, r.seq, nil)
	old := r.gen.Swap(next)
	r.compactions.Add(1)
	old.retire()
	return CompactStats{
		Compacted:  delta.NumDocs(),
		Documents:  set.GlobalDocs(),
		Generation: r.seq,
	}, set.NumShards(), nil
}

// maybeAutoCompactLocked launches one background compaction when the
// segment has reached the WithAutoCompact threshold; at most one runs at
// a time and the triggering Ingest returns immediately — searches keep
// being served from base+delta until the new generation swaps in.
// Callers hold mu.
//
//qlint:locked mu
func (r *localRuntime) maybeAutoCompactLocked(deltaDocs int) {
	if r.cfg.autoCompact <= 0 || deltaDocs < r.cfg.autoCompact {
		return
	}
	if !r.compacting.CompareAndSwap(false, true) {
		return
	}
	r.bg.Add(1)
	go func() {
		defer r.bg.Done()
		defer r.compacting.Store(false)
		start := time.Now()
		cs, shards, err := func() (CompactStats, int, error) {
			r.mu.Lock()
			defer r.mu.Unlock()
			return r.compactLocked()
		}()
		r.cfg.obs.compact(start, cs.Compacted, cs.Generation, shards, err)
	}()
}

// Stats summarizes the serving state: knowledge-base shape, corpus size
// (the base generation; delta documents are reported separately),
// benchmark size, the live delta segment and the expansion cache counters.
type Stats struct {
	Articles   int `json:"articles"`
	Redirects  int `json:"redirects"`
	Categories int `json:"categories"`
	Links      int `json:"links"`

	Documents        int `json:"documents"`
	BenchmarkQueries int `json:"benchmark_queries"`

	Delta DeltaStats `json:"delta"`

	Cache CacheStats `json:"cache"`
}

// Stats reports the serving-state summary of the current generation
// (documents are the global count across shards; zero once closed).
func (r *localRuntime) Stats() Stats {
	g, err := r.acquire()
	if err != nil {
		return Stats{}
	}
	defer g.release()
	return g.stats(r.compactions.Load())
}

func (g *generation) stats(compactions uint64) Stats {
	st := g.set.Systems()[0].Snapshot.Stats()
	delta := g.delta()
	return Stats{
		Articles:         st.Articles,
		Redirects:        st.Redirects,
		Categories:       st.Categories,
		Links:            st.Links,
		Documents:        g.set.GlobalDocs(),
		BenchmarkQueries: len(g.set.Queries()),
		Delta: DeltaStats{
			Documents:    delta.NumDocs(),
			PendingBytes: delta.Bytes(),
			Generation:   g.seq,
			Compactions:  compactions,
		},
		Cache: g.set.ExpandCacheStats(),
	}
}

// CacheStats reports the current generation's expansion cache counters
// and occupancy (the cache lives with the generation, so a reload or
// compaction starts it cold; all zero when the cache is disabled or the
// runtime is closed).
func (r *localRuntime) CacheStats() CacheStats {
	g, err := r.acquire()
	if err != nil {
		return CacheStats{}
	}
	defer g.release()
	return g.set.ExpandCacheStats()
}
