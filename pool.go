package querygraph

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/querygraph/querygraph/internal/live"
	"github.com/querygraph/querygraph/internal/shard"
	"github.com/querygraph/querygraph/internal/trace"
)

// Pool is the sharded serving handle: a hash-partitioned snapshot
// generation (qgen -shards N, or Client.SaveShards) served with
// scatter-gather retrieval and single-pass expansion on the replicated
// graph. It satisfies Backend. For the same world, a Pool returns
// bit-identical Search, Expand and SearchExpansion results to a
// single-snapshot Client at any shard count — per-shard scorers run under
// globally aggregated collection statistics and the merged ranking
// preserves the engine's (score desc, doc asc) order over global doc ids.
//
// A Pool also hot-reloads: Reload assembles the next generation off to
// the side, swaps it in atomically, and lets in-flight requests finish on
// the generation they started with (drained generations are released to
// the collector). All methods are safe for concurrent use, including
// concurrently with Reload and Close. After Close, query-path methods
// return ErrClosed and the zero-value accessors return zero values.
//
//qlint:serving
//qlint:observed
type Pool struct {
	// gen is the serving generation; nil once the pool is closed. The
	// serving path loads it lock-free; every store happens under mu
	// (enforced by the atomicguard analyzer).
	//
	//qlint:guarded-by mu
	gen atomic.Pointer[poolGeneration]

	// mu serializes the write path — Reload, Close, Ingest and Compact;
	// the serving path never takes it.
	mu           sync.Mutex
	manifestPath string
	seq          uint64

	reloads atomic.Uint64
	cfg     clientConfig

	// Live-index lifecycle: completed-compaction count, the single-flight
	// guard of the background compactor, and the wait group Close blocks
	// on so no compaction goroutine outlives the pool.
	compactions atomic.Uint64
	compacting  atomic.Bool
	bg          sync.WaitGroup
}

// obs is the observer list attached at OpenPool time (it survives
// reloads, which only re-read cfg.sys).
func (p *Pool) obs() observers { return p.cfg.obs }

// poolGeneration is one loaded shard set plus its lifecycle state. refs
// starts at 1 — the pool's own reference, dropped when the generation is
// retired — so the count can only reach zero after retirement, at which
// point drained closes exactly once.
type poolGeneration struct {
	set *shard.Set
	seq uint64

	// state is the live delta segment above this generation's base
	// snapshot together with the scorer's view of shards+delta. The
	// serving path loads it lock-free together with set; every store
	// happens under the pool's mu (enforced by the atomicguard analyzer).
	// It lives with the generation so a pinned request sees one
	// consistent base+delta pair.
	//
	//qlint:guarded-by mu
	state atomic.Pointer[poolState]

	refs      atomic.Int64
	retired   atomic.Bool
	drained   chan struct{}
	drainOnce sync.Once
}

// poolState is one published delta segment (nil = empty) and the view
// that scores the generation's shards plus that segment.
type poolState struct {
	delta *live.Delta
	view  sourceView
}

func newPoolState(set *shard.Set, delta *live.Delta) *poolState {
	return &poolState{
		delta: delta,
		view:  newSourceView(set.Systems()[0], set.Sources(), set.GlobalTokens(), delta),
	}
}

// newPoolGeneration wraps a loaded set, carrying delta (nil = empty)
// above it.
func newPoolGeneration(set *shard.Set, seq uint64, delta *live.Delta) *poolGeneration {
	g := &poolGeneration{set: set, seq: seq, drained: make(chan struct{})}
	g.refs.Store(1)
	g.state.Store(newPoolState(set, delta)) //qlint:ignore atomicguard constructor: g has not escaped, no concurrent reader or writer exists yet
	return g
}

// delta returns the generation's current delta segment (nil = empty).
func (g *poolGeneration) delta() *live.Delta { return g.state.Load().delta }

func (g *poolGeneration) release() {
	if g.refs.Add(-1) == 0 && g.retired.Load() {
		g.drainOnce.Do(func() { close(g.drained) })
	}
}

// retire marks the generation as superseded and drops the pool's own
// reference; drained closes once the last in-flight request releases.
func (g *poolGeneration) retire() {
	g.retired.Store(true)
	g.release()
}

// OpenPool loads every shard named by the manifest (written by qgen
// -shards N or Client.SaveShards) and assembles the sharded serving
// runtime. Manifest or shard failures — unreadable files, undecodable
// snapshots, shards from mixed generations — return an error wrapping
// ErrBadManifest. Options apply to every generation this pool ever loads,
// including reloaded ones.
func OpenPool(manifestPath string, opts ...Option) (*Pool, error) {
	var cfg clientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	set, err := shard.Load(manifestPath, cfg.sys...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	p := &Pool{manifestPath: manifestPath, cfg: cfg, seq: 1}
	p.gen.Store(newPoolGeneration(set, 1, nil)) //qlint:ignore atomicguard constructor: p has not escaped, no concurrent Reload/Close exists yet
	return p, nil
}

// Close retires the pool: the live generation is retired, in-flight
// requests drain (Close blocks until the last one releases), and every
// later query-path call returns ErrClosed. Close is idempotent — a second
// call returns nil immediately — and safe concurrently with Reload and
// the serving path. After Close, the zero-value accessors (NumShards,
// Generation, Queries, Title, Link, Stats, CacheStats) return zero
// values.
func (p *Pool) Close() error {
	p.mu.Lock()
	old := p.gen.Swap(nil)
	p.mu.Unlock()
	if old == nil {
		return nil
	}
	// An in-flight background compaction finds the nil generation under
	// mu and bails; wait it out so Close leaves no goroutine behind.
	p.bg.Wait()
	old.retire()
	<-old.drained
	return nil
}

// Reload loads the generation named by manifestPath (empty = the current
// manifest path, re-read from disk) and swaps it in with zero downtime:
// requests that started on the old generation finish there, new requests
// see the new one, and the old generation is released once its last
// request drains. A failed load leaves the serving generation untouched
// and returns an error wrapping ErrBadManifest; reloading a closed pool
// returns ErrClosed. Reloads are serialized; the expansion cache starts
// cold on the new generation.
func (p *Pool) Reload(manifestPath string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	start := time.Now()
	gen, shards, err := p.reloadLocked(manifestPath)
	// Observed under mu: serialized reloads report in order, so a
	// generation gauge never goes stale behind a racing reload.
	p.obs().reload(start, gen, shards, err)
	return err
}

// reloadLocked does the load-and-swap; Reload holds mu across it.
//
//qlint:locked mu
func (p *Pool) reloadLocked(manifestPath string) (generation uint64, shards int, err error) {
	cur := p.gen.Load()
	if cur == nil {
		return 0, 0, ErrClosed
	}
	if manifestPath == "" {
		manifestPath = p.manifestPath
	}
	set, err := shard.Load(manifestPath, p.cfg.sys...)
	if err != nil {
		// The old generation keeps serving; report its coordinates.
		return cur.seq, cur.set.NumShards(), fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	// Carry a pending delta segment into the new generation when it still
	// fits: same base document count, same engine configuration — i.e. the
	// reloaded manifest is the same corpus the segment was ingested above
	// (a reload after Compact lands here with an already-empty delta). A
	// manifest with different shape supersedes the segment and drops it.
	d := cur.delta()
	if d.NumDocs() == 0 || d.BaseDocs() != set.GlobalDocs() || d.Config() != liveConfigOf(set.Systems()[0]) {
		d = nil
	}
	p.seq++
	next := newPoolGeneration(set, p.seq, d)
	old := p.gen.Swap(next)
	p.manifestPath = manifestPath
	p.reloads.Add(1)
	old.retire()
	return next.seq, set.NumShards(), nil
}

// acquire pins the current generation for one request; it fails with
// ErrClosed once Close has swapped the generation out. The retry loop
// closes the swap race: after incrementing refs we re-check that the
// generation is still current — if it is, the pool's own reference had
// not been dropped when we incremented (atomic operations are totally
// ordered), so the count can not have touched zero and the generation is
// safely pinned; if it is not (a Reload swapped in a newer generation, or
// Close swapped in nil), we release and retry on whatever is current.
func (p *Pool) acquire() (*poolGeneration, error) {
	for {
		g := p.gen.Load()
		if g == nil {
			return nil, ErrClosed
		}
		g.refs.Add(1)
		if p.gen.Load() == g {
			return g, nil
		}
		g.release()
	}
}

// NumShards returns the current generation's shard count (0 once closed).
func (p *Pool) NumShards() int {
	g, err := p.acquire()
	if err != nil {
		return 0
	}
	defer g.release()
	return g.set.NumShards()
}

// Generation returns the monotonically increasing sequence number of the
// currently served generation (1 for the initially opened one; 0 once
// closed).
func (p *Pool) Generation() uint64 {
	g, err := p.acquire()
	if err != nil {
		return 0
	}
	defer g.release()
	return g.seq
}

// Queries returns the benchmark replicated into the current generation's
// shards (empty when the snapshots carry none, or once closed).
func (p *Pool) Queries() []Query {
	g, err := p.acquire()
	if err != nil {
		return nil
	}
	defer g.release()
	qs := g.set.Queries()
	out := make([]Query, len(qs))
	copy(out, qs)
	return out
}

// Title returns the display title of a knowledge-base node (replicated
// graph, current generation; "" once closed).
func (p *Pool) Title(id NodeID) string {
	g, err := p.acquire()
	if err != nil {
		return ""
	}
	defer g.release()
	return g.set.Systems()[0].Snapshot.Name(id)
}

// Link computes L(q.k) against the current generation's replicated graph
// (nil once closed).
func (p *Pool) Link(keywords string) []Entity {
	g, err := p.acquire()
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

// Search is Client.Search over the sharded generation: every shard (and
// the live delta) scores under the global statistics and the rankings
// merge into the global top k. Same contract (top k by descending score,
// ties by ascending global doc id, empty non-nil slice on no match,
// k <= 0 ranks all candidates).
func (p *Pool) Search(ctx context.Context, query string, k int) ([]Result, error) {
	start := time.Now()
	rs, shards, err := p.searchText(ctx, query, k, nil)
	p.obs().search(start, k, shards, false, err)
	return rs, err
}

// SearchInto is Search reusing dst's storage for the returned ranking
// (dst may be nil). As on a Client, the steady state — the query's parsed
// plan in shard 0's memoized cache, dst recycled by the caller — scores
// every shard on pooled scratch and allocates nothing. Neither query nor
// dst is retained beyond the call.
func (p *Pool) SearchInto(ctx context.Context, query string, k int, dst []Result) ([]Result, error) {
	start := time.Now()
	rs, shards, err := p.searchText(ctx, query, k, dst)
	p.obs().search(start, k, shards, false, err)
	return rs, err
}

func (p *Pool) searchText(ctx context.Context, query string, k int, dst []Result) ([]Result, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	g, err := p.acquire()
	if err != nil {
		return nil, 0, err
	}
	defer g.release()
	rs, err := g.state.Load().view.searchText(ctx, query, k, dst)
	return rs, g.set.NumShards(), err
}

// SearchAll is Client.SearchAll over the sharded generation: the queries
// are parsed up front, then scored on a bounded worker pool, each worker
// running its query over every shard. The whole batch runs on the
// generation current at call time, even if a Reload lands mid-batch.
func (p *Pool) SearchAll(ctx context.Context, queries []string, k int, opts BatchOptions) ([][]Result, error) {
	start := time.Now()
	rss, shards, err := p.searchAll(ctx, queries, k, opts)
	p.obs().batch(start, BatchSearch, len(queries), k, shards, err)
	return rss, err
}

func (p *Pool) searchAll(ctx context.Context, queries []string, k int, opts BatchOptions) ([][]Result, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	g, err := p.acquire()
	if err != nil {
		return nil, 0, err
	}
	defer g.release()
	rss, err := g.state.Load().view.searchAll(ctx, queries, k, opts)
	return rss, g.set.NumShards(), err
}

// Expand is Client.Expand on the replicated graph: the pipeline runs once
// (shard 0), not per shard, through that generation's memoizing
// single-flight cache.
func (p *Pool) Expand(ctx context.Context, keywords string, opts ...ExpandOption) (*Expansion, error) {
	start := time.Now()
	exp, outcome, shards, err := p.expand(ctx, keywords, opts)
	p.obs().expand(start, outcome, exp, shards, err)
	return exp, err
}

func (p *Pool) expand(ctx context.Context, keywords string, opts []ExpandOption) (*Expansion, CacheOutcome, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, CacheBypass, 0, err
	}
	eopts, err := normalizeExpandOptions(opts)
	if err != nil {
		return nil, CacheBypass, 0, err
	}
	g, err := p.acquire()
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

// ExpandAll is Client.ExpandAll on the replicated graph.
func (p *Pool) ExpandAll(ctx context.Context, keywords []string, bopts BatchOptions, opts ...ExpandOption) ([]*Expansion, error) {
	start := time.Now()
	exps, shards, err := p.expandAll(ctx, keywords, bopts, opts)
	p.obs().batch(start, BatchExpand, len(keywords), 0, shards, err)
	return exps, err
}

func (p *Pool) expandAll(ctx context.Context, keywords []string, bopts BatchOptions, opts []ExpandOption) ([]*Expansion, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	eopts, err := normalizeExpandOptions(opts)
	if err != nil {
		return nil, 0, err
	}
	g, err := p.acquire()
	if err != nil {
		return nil, 0, err
	}
	defer g.release()
	exps, err := g.set.ExpandAll(ctx, keywords, eopts, bopts)
	return exps, g.set.NumShards(), err
}

// SearchExpansion evaluates an expansion end to end like
// Client.SearchExpansion: the expanded title query is built once on the
// replicated graph and scattered to every shard.
func (p *Pool) SearchExpansion(ctx context.Context, exp *Expansion, k int) (results []Result, ok bool, err error) {
	start := time.Now()
	rs, ok, shards, err := p.searchExpansion(ctx, exp, k)
	p.obs().search(start, k, shards, true, err)
	return rs, ok, err
}

func (p *Pool) searchExpansion(ctx context.Context, exp *Expansion, k int) ([]Result, bool, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, 0, err
	}
	g, err := p.acquire()
	if err != nil {
		return nil, false, 0, err
	}
	defer g.release()
	rs, ok, err := g.state.Load().view.searchExpansion(exp, k)
	return rs, ok, g.set.NumShards(), err
}

// SearchExpansions is Client.SearchExpansions over the sharded
// generation; expansions with nothing to search for keep a nil ranking.
func (p *Pool) SearchExpansions(ctx context.Context, exps []*Expansion, k int, opts BatchOptions) ([][]Result, error) {
	start := time.Now()
	rss, shards, err := p.searchExpansions(ctx, exps, k, opts)
	p.obs().batch(start, BatchSearchExpansions, len(exps), k, shards, err)
	return rss, err
}

func (p *Pool) searchExpansions(ctx context.Context, exps []*Expansion, k int, opts BatchOptions) ([][]Result, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	g, err := p.acquire()
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
// statistics, bit-identical to a re-partitioned rebuild — and survive
// into the next compaction. The batch is atomic: a duplicate external id
// (against every shard and the segment itself) or a segment past its
// capacity (WithDeltaCapacity) admits nothing. docs is not retained.
func (p *Pool) Ingest(ctx context.Context, docs []Document) (IngestStats, error) {
	start := time.Now()
	st, shards, err := p.ingest(ctx, docs)
	p.obs().ingest(start, len(docs), st.DeltaDocs, shards, err)
	return st, err
}

func (p *Pool) ingest(ctx context.Context, docs []Document) (IngestStats, int, error) {
	if err := ctx.Err(); err != nil {
		return IngestStats{}, 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	g := p.gen.Load()
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
	next, err := admitIngest(cur, p.cfg.deltaCapacity(), g.set.Systems(), g.set.GlobalDocs(), docs)
	if err != nil {
		return out, shards, err
	}
	g.state.Store(newPoolState(g.set, next)) //qlint:ignore atomicguard p.mu is held since the Lock above; the generation's guard is the pool's mutex
	p.maybeAutoCompactLocked(next.NumDocs())
	return IngestStats{
		Ingested:   len(docs),
		DeltaDocs:  next.NumDocs(),
		DeltaBytes: next.Bytes(),
		Generation: g.seq,
	}, shards, nil
}

// Compact folds the delta segment into a fresh on-disk generation — each
// shard's snapshot extended with its hash-share of the delta documents,
// exactly the partition a full re-shard of the merged corpus produces —
// republishes the manifest atomically, and hot-swaps the reloaded
// generation with zero downtime: requests pinned to the old generation
// finish on it (the refcounted drain Reload uses), new requests see the
// compacted one, and search results are identical before and after. An
// empty delta is a successful no-op with the generation unchanged.
func (p *Pool) Compact(ctx context.Context) (CompactStats, error) {
	start := time.Now()
	cs, shards, err := p.compact(ctx)
	p.obs().compact(start, cs.Compacted, cs.Generation, shards, err)
	return cs, err
}

func (p *Pool) compact(ctx context.Context) (CompactStats, int, error) {
	if err := ctx.Err(); err != nil {
		return CompactStats{}, 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.compactLocked()
}

// compactLocked does the fold-write-reload-swap; callers hold mu. The
// new generation is loaded back from the bytes just written — the same
// read path Reload exercises — so a compacted snapshot that would not
// serve is rejected here, with the old generation (and its delta) still
// serving untouched.
//
//qlint:locked mu
func (p *Pool) compactLocked() (CompactStats, int, error) {
	g := p.gen.Load()
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
	if _, err := shard.WriteArchives(p.manifestPath, archives); err != nil {
		return CompactStats{Generation: g.seq}, shards, err
	}
	set, err := shard.Load(p.manifestPath, p.cfg.sys...)
	if err != nil {
		return CompactStats{Generation: g.seq}, shards, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	p.seq++
	next := newPoolGeneration(set, p.seq, nil)
	old := p.gen.Swap(next)
	p.compactions.Add(1)
	old.retire()
	return CompactStats{
		Compacted:  delta.NumDocs(),
		Documents:  set.GlobalDocs(),
		Generation: p.seq,
	}, set.NumShards(), nil
}

// maybeAutoCompactLocked launches one background compaction when the
// segment has reached the WithAutoCompact threshold; at most one runs at
// a time and the triggering Ingest returns immediately — searches keep
// being served from base+delta until the new generation swaps in.
// Callers hold mu.
//
//qlint:locked mu
func (p *Pool) maybeAutoCompactLocked(deltaDocs int) {
	if p.cfg.autoCompact <= 0 || deltaDocs < p.cfg.autoCompact {
		return
	}
	if !p.compacting.CompareAndSwap(false, true) {
		return
	}
	p.bg.Add(1)
	go func() {
		defer p.bg.Done()
		defer p.compacting.Store(false)
		start := time.Now()
		cs, shards, err := func() (CompactStats, int, error) {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.compactLocked()
		}()
		p.obs().compact(start, cs.Compacted, cs.Generation, shards, err)
	}()
}

// ShardStats is the size of one loaded shard.
type ShardStats struct {
	ID        int   `json:"id"`
	Documents int   `json:"documents"`
	Terms     int   `json:"terms"`
	Postings  int64 `json:"postings"`
}

// PoolStats extends the serving stats with the sharded runtime's shape:
// per-shard document/term/postings counts, the served generation's
// sequence number and how many reloads have happened.
type PoolStats struct {
	Stats
	Shards     []ShardStats `json:"shards"`
	Generation uint64       `json:"generation"`
	Reloads    uint64       `json:"reloads"`
}

// Stats reports the aggregate serving-state summary of the current
// generation (documents are the global count across shards; cache
// counters are the replicated-graph expansion cache's). Zero once closed.
func (p *Pool) Stats() Stats {
	g, err := p.acquire()
	if err != nil {
		return Stats{}
	}
	defer g.release()
	return poolStatsOf(g, p.compactions.Load()).Stats
}

// PoolStats reports the aggregate summary plus the per-shard breakdown
// and generation counters. Zero (with the lifetime reload count) once
// closed.
func (p *Pool) PoolStats() PoolStats {
	g, err := p.acquire()
	if err != nil {
		return PoolStats{Reloads: p.reloads.Load()}
	}
	defer g.release()
	ps := poolStatsOf(g, p.compactions.Load())
	ps.Reloads = p.reloads.Load()
	return ps
}

func poolStatsOf(g *poolGeneration, compactions uint64) PoolStats {
	systems := g.set.Systems()
	st := systems[0].Snapshot.Stats()
	delta := g.delta()
	ps := PoolStats{
		Stats: Stats{
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
		},
		Generation: g.seq,
		Shards:     make([]ShardStats, len(systems)),
	}
	for i, sys := range systems {
		ix := sys.Engine.Index()
		ps.Shards[i] = ShardStats{
			ID:        i,
			Documents: ix.NumDocs(),
			Terms:     ix.NumTerms(),
			Postings:  ix.NumPostings(),
		}
	}
	return ps
}

// CacheStats reports the current generation's expansion cache counters
// (the cache lives with the generation, so a reload starts it cold; zero
// once closed).
func (p *Pool) CacheStats() CacheStats {
	g, err := p.acquire()
	if err != nil {
		return CacheStats{}
	}
	defer g.release()
	return g.set.ExpandCacheStats()
}
