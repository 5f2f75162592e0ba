package querygraph

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/live"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/shard"
	"github.com/querygraph/querygraph/internal/store"
	"github.com/querygraph/querygraph/internal/trace"
)

// Client is the single-snapshot serving handle of the reproduction: one
// loaded (or built) knowledge base, document collection, search engine and
// entity linker, safe for concurrent use. It satisfies Backend. Every
// query-path method takes a context.Context; a context that is already
// done returns ctx.Err() without running any pipeline, and cancelling
// mid-call stops batch scheduling and abandons cache waits as documented
// per method. After Close, query-path methods return ErrClosed.
//
// A Client is also a live index: Ingest appends documents to an in-memory
// delta segment searched alongside the base snapshot, and Compact folds
// the segment into a fresh base generation. Readers pin one immutable
// state per request and writers swap whole states, so queries never
// observe a half-applied ingest or compaction.
//
//qlint:serving
//qlint:observed
type Client struct {
	// st is the serving state — base system, delta segment, compaction
	// generation. The query path loads it lock-free; every store happens
	// under mu (enforced by the atomicguard analyzer).
	//
	//qlint:guarded-by mu
	st atomic.Pointer[clientState]

	// mu serializes the write path (Ingest, Compact); readers never take it.
	mu sync.Mutex

	queries []Query
	obs     observers
	closed  atomic.Bool

	// Live-index configuration and lifecycle: the delta capacity and
	// auto-compaction threshold resolved from the options, the system
	// options replayed when a compaction rebuilds the serving system, the
	// completed-compaction count, the single-flight guard of the
	// background compactor and the wait group Close blocks on.
	deltaCap    int
	autoCompact int
	sysOpts     []core.SystemOption
	compactions atomic.Uint64
	compacting  atomic.Bool
	bg          sync.WaitGroup
}

// clientState is one immutable serving state: the base system, the live
// delta segment above it (nil = empty), the compaction generation (starts
// at 1, advanced by each non-empty Compact) and the scorer's view of
// base+delta.
type clientState struct {
	sys   *core.System
	delta *live.Delta
	gen   uint64
	view  sourceView
}

func newClientState(sys *core.System, delta *live.Delta, gen uint64) *clientState {
	base := []search.Source{{Engine: sys.Engine}}
	return &clientState{
		sys: sys, delta: delta, gen: gen,
		view: newSourceView(sys, base, sys.Engine.Index().TotalTokens(), delta),
	}
}

// cur returns the current serving state; it is never nil, even after
// Close (the in-memory accessors keep answering from it).
func (c *Client) cur() *clientState { return c.st.Load() }

// newClient assembles a serving client around a loaded system.
func newClient(sys *core.System, queries []Query, cfg clientConfig) *Client {
	c := &Client{
		queries:     queries,
		obs:         cfg.obs,
		deltaCap:    cfg.deltaCapacity(),
		autoCompact: cfg.autoCompact,
		sysOpts:     cfg.sys,
	}
	c.st.Store(newClientState(sys, nil, 1)) //qlint:ignore atomicguard constructor: c has not escaped, no concurrent writer exists yet
	return c
}

// Open loads a .qgs snapshot file written by Save (or qgen -out FILE.qgs)
// and assembles a serving Client around it. Startup is a decode, not a
// rebuild. File-system errors are returned as-is; a file that cannot be
// decoded returns an error wrapping ErrBadSnapshot.
func Open(path string, opts ...Option) (*Client, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return OpenReader(f, opts...)
}

// OpenReader is Open over an arbitrary reader of snapshot bytes. Any
// decode failure — wrong magic, version, checksum, truncation, or a
// failing reader — returns an error wrapping ErrBadSnapshot.
func OpenReader(r io.Reader, opts ...Option) (*Client, error) {
	var cfg clientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	sys, qs, err := core.LoadSystem(r, cfg.sys...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return newClient(sys, qs, cfg), nil
}

// Build assembles a Client directly from a generated world: it indexes the
// collection, builds the engine and the entity linker, and adopts the
// world's query benchmark. See GenerateWorld.
func Build(world *World, opts ...Option) (*Client, error) {
	if world == nil {
		return nil, fmt.Errorf("%w: nil world", ErrInvalidOptions)
	}
	var cfg clientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	sys, err := core.FromWorld(world, cfg.sys...)
	if err != nil {
		return nil, err
	}
	return newClient(sys, core.QueriesFromWorld(world), cfg), nil
}

// Close retires the client: it is idempotent (a second Close returns nil),
// and every query-path method called after it returns ErrClosed. Close
// releases the expansion cache's entries; the decoded serving state itself
// is garbage-collected once the last reference drops, so requests already
// in flight finish safely on it. The cheap in-memory accessors (Queries,
// Stats, CacheStats, Link, Title) keep answering after Close.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	// An in-flight background compaction re-checks closed under mu and
	// bails; wait it out so Close leaves no goroutine behind.
	c.bg.Wait()
	c.cur().sys.PurgeExpandCache()
	return nil
}

// ready gates every query path: a closed client fails with ErrClosed, a
// dead context with ctx.Err(), before any pipeline work.
func (c *Client) ready(ctx context.Context) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return ctx.Err()
}

// shardCount is the Shards coordinate of this client's observations: a
// Client is a one-shard runtime, reported as 0 once closed so both
// runtimes expose the same closed-backend signal to observers.
func (c *Client) shardCount() int {
	if c.closed.Load() {
		return 0
	}
	return 1
}

// Save writes the client's complete serving state plus its query benchmark
// as a versioned, checksummed binary snapshot; Open on the written bytes
// serves bit-identical results. A non-empty delta segment is folded into
// the written snapshot (the snapshot a cold rebuild over base plus delta
// would produce), so ingested documents survive a save/load cycle.
func (c *Client) Save(w io.Writer) error {
	st := c.cur()
	if st.delta.NumDocs() == 0 {
		return st.sys.Save(w, c.queries)
	}
	arch, err := mergedArchive(st, c.queries)
	if err != nil {
		return err
	}
	return store.Write(w, arch)
}

// SaveShards hash-partitions the client's serving state into shards
// per-shard snapshots plus a manifest.json inside dir (created if
// needed): the knowledge graph, engine configuration and query benchmark
// are replicated into every shard, the corpus and index are partitioned
// by document id, and the global collection statistics are recorded in
// each shard so OpenPool on the manifest serves bit-identical results to
// this client. The manifest is written last via an atomic rename, so a
// concurrent Pool.Reload sees either the old generation or the new one.
func (c *Client) SaveShards(dir string, shards int) error {
	if shards < 1 {
		return fmt.Errorf("%w: shard count %d must be >= 1", ErrInvalidOptions, shards)
	}
	st := c.cur()
	arch := st.sys.Archive(c.queries)
	if st.delta.NumDocs() > 0 {
		// Like Save: the written generation includes the delta documents.
		var err error
		arch, err = mergedArchive(st, c.queries)
		if err != nil {
			return err
		}
	}
	_, err := shard.WriteShards(dir, arch, shards)
	return err
}

// Queries returns the loaded query benchmark (empty when the snapshot
// carried none).
func (c *Client) Queries() []Query {
	out := make([]Query, len(c.queries))
	copy(out, c.queries)
	return out
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

// Stats reports the client's serving-state summary.
func (c *Client) Stats() Stats {
	cur := c.cur()
	st := cur.sys.Snapshot.Stats()
	return Stats{
		Articles:         st.Articles,
		Redirects:        st.Redirects,
		Categories:       st.Categories,
		Links:            st.Links,
		Documents:        cur.sys.Collection.Len(),
		BenchmarkQueries: len(c.queries),
		Delta: DeltaStats{
			Documents:    cur.delta.NumDocs(),
			PendingBytes: cur.delta.Bytes(),
			Generation:   cur.gen,
			Compactions:  c.compactions.Load(),
		},
		Cache: cur.sys.ExpandCacheStats(),
	}
}

// CacheStats reports the expansion cache's hit/miss/single-flight counters
// and occupancy (all zero when the cache is disabled).
func (c *Client) CacheStats() CacheStats { return c.cur().sys.ExpandCacheStats() }

// Search parses the INDRI-style query text (bare keywords, #combine,
// #weight, #1 exact phrases) and returns the top k documents by descending
// Dirichlet-smoothed query likelihood (ties broken by ascending doc id;
// k <= 0 ranks every candidate; no match returns an empty non-nil slice).
// A done ctx returns ctx.Err() without searching.
func (c *Client) Search(ctx context.Context, query string, k int) ([]Result, error) {
	start := time.Now()
	rs, err := c.searchText(ctx, query, k, nil)
	c.obs.search(start, k, c.shardCount(), false, err)
	return rs, err
}

// SearchInto is Search reusing dst's storage for the returned ranking
// (dst may be nil). At steady state — the query's parsed plan already in
// the engine's memoized cache, dst recycled by the caller — the whole
// path allocates nothing: parse, postings planning, scoring scratch and
// the top-k heap all come from pools. Neither query nor dst is retained
// beyond the call.
func (c *Client) SearchInto(ctx context.Context, query string, k int, dst []Result) ([]Result, error) {
	start := time.Now()
	rs, err := c.searchText(ctx, query, k, dst)
	c.obs.search(start, k, c.shardCount(), false, err)
	return rs, err
}

func (c *Client) searchText(ctx context.Context, query string, k int, dst []Result) ([]Result, error) {
	if err := c.ready(ctx); err != nil {
		return nil, err
	}
	return c.cur().view.searchText(ctx, query, k, dst)
}

// SearchAll evaluates a batch of query texts on a bounded worker pool and
// returns the per-query rankings in input order. All queries are parsed up
// front (the first invalid query aborts the batch with ErrInvalidQuery);
// cancelling ctx stops scheduling the remaining queries and returns
// ctx.Err().
func (c *Client) SearchAll(ctx context.Context, queries []string, k int, opts BatchOptions) ([][]Result, error) {
	start := time.Now()
	rss, err := c.searchAll(ctx, queries, k, opts)
	c.obs.batch(start, BatchSearch, len(queries), k, c.shardCount(), err)
	return rss, err
}

func (c *Client) searchAll(ctx context.Context, queries []string, k int, opts BatchOptions) ([][]Result, error) {
	if err := c.ready(ctx); err != nil {
		return nil, err
	}
	return c.cur().view.searchAll(ctx, queries, k, opts)
}

// Expand runs the online cycle-based expansion pipeline of the paper's
// conclusions for one keyword query: entity-link the keywords, induce the
// Wikipedia neighborhood, mine cycles, keep the structurally promising
// ones (dense, category ratio around 30% by default) and rank the articles
// they introduce. Options override the paper-tuned defaults; invalid
// values return an error wrapping ErrInvalidOptions.
//
// Results are memoized in a sharded single-flight LRU cache shared by the
// whole Client; the returned Expansion may be shared with other callers
// and must be treated as read-only. A done ctx returns ctx.Err() without
// touching pipeline or cache; a ctx that dies while another caller's
// identical call is in flight abandons the wait (that caller still
// completes and populates the cache).
func (c *Client) Expand(ctx context.Context, keywords string, opts ...ExpandOption) (*Expansion, error) {
	start := time.Now()
	exp, outcome, err := c.expand(ctx, keywords, opts)
	c.obs.expand(start, outcome, exp, c.shardCount(), err)
	return exp, err
}

func (c *Client) expand(ctx context.Context, keywords string, opts []ExpandOption) (*Expansion, CacheOutcome, error) {
	if err := c.ready(ctx); err != nil {
		return nil, CacheBypass, err
	}
	eopts, err := normalizeExpandOptions(opts)
	if err != nil {
		return nil, CacheBypass, err
	}
	tr := trace.FromContext(ctx)
	start := time.Now()
	exp, outcome, err := c.cur().sys.ExpandOutcome(ctx, keywords, eopts)
	if tr != nil {
		// The cache outcome of the expand lookup rides in the span detail.
		tr.Add("expand", start, -1, 0, false, ErrorClass(err), outcome.String())
	}
	return exp, outcome, err
}

// ExpandAll runs Expand for every keyword query on a bounded worker pool
// and returns the expansions in input order. Repeated keywords are served
// from the expansion cache and concurrent duplicates are single-flighted.
// Cancelling ctx stops scheduling and returns ctx.Err().
func (c *Client) ExpandAll(ctx context.Context, keywords []string, bopts BatchOptions, opts ...ExpandOption) ([]*Expansion, error) {
	start := time.Now()
	exps, err := c.expandAll(ctx, keywords, bopts, opts)
	c.obs.batch(start, BatchExpand, len(keywords), 0, c.shardCount(), err)
	return exps, err
}

func (c *Client) expandAll(ctx context.Context, keywords []string, bopts BatchOptions, opts []ExpandOption) ([]*Expansion, error) {
	if err := c.ready(ctx); err != nil {
		return nil, err
	}
	eopts, err := normalizeExpandOptions(opts)
	if err != nil {
		return nil, err
	}
	return c.cur().sys.ExpandAll(ctx, keywords, eopts, bopts)
}

// SearchExpansion evaluates an expansion end to end: it writes the
// expanded title query (exact phrases for the query entities and every
// feature) and returns the top k documents. ok reports whether the
// expansion had anything to search for (entities, features or keywords);
// it stays true when the search itself fails, so err alone signals
// failure.
func (c *Client) SearchExpansion(ctx context.Context, exp *Expansion, k int) (results []Result, ok bool, err error) {
	start := time.Now()
	rs, ok, err := c.searchExpansion(ctx, exp, k)
	c.obs.search(start, k, c.shardCount(), true, err)
	return rs, ok, err
}

func (c *Client) searchExpansion(ctx context.Context, exp *Expansion, k int) ([]Result, bool, error) {
	if err := c.ready(ctx); err != nil {
		return nil, false, err
	}
	return c.cur().view.searchExpansion(exp, k)
}

// SearchExpansions evaluates a batch of expansions on a bounded worker
// pool, returning the per-expansion rankings in input order. Expansions
// with nothing to search for yield a nil ranking. Cancelling ctx stops
// scheduling and returns ctx.Err().
func (c *Client) SearchExpansions(ctx context.Context, exps []*Expansion, k int, opts BatchOptions) ([][]Result, error) {
	start := time.Now()
	rss, err := c.searchExpansions(ctx, exps, k, opts)
	c.obs.batch(start, BatchSearchExpansions, len(exps), k, c.shardCount(), err)
	return rss, err
}

func (c *Client) searchExpansions(ctx context.Context, exps []*Expansion, k int, opts BatchOptions) ([][]Result, error) {
	if err := c.ready(ctx); err != nil {
		return nil, err
	}
	return c.cur().view.searchExpansions(ctx, exps, k, opts)
}

// Entity is one knowledge-base article a query mentions.
type Entity struct {
	ID    NodeID `json:"id"`
	Title string `json:"title"`
}

// Link computes L(q.k): the main articles the keywords mention, by
// largest-substring entity linking with redirect synonyms.
func (c *Client) Link(keywords string) []Entity {
	sys := c.cur().sys
	ids := sys.LinkKeywords(keywords)
	out := make([]Entity, len(ids))
	for i, id := range ids {
		out[i] = Entity{ID: id, Title: sys.Snapshot.Name(id)}
	}
	return out
}

// Title returns the display title of a knowledge-base node.
func (c *Client) Title(id NodeID) string { return c.cur().sys.Snapshot.Name(id) }

// Evaluate writes the paper's title query for the given articles (exact
// phrases; the raw keywords back the query off when no article has a
// usable title) and scores the retrieval against the relevant documents:
// it returns the objective O (precision averaged over the paper's rank
// cutoffs) and the ranked top-15 document ids.
func (c *Client) Evaluate(ctx context.Context, keywords string, articles []NodeID, relevant []int32) (float64, []int32, error) {
	if err := c.ready(ctx); err != nil {
		return 0, nil, err
	}
	return c.cur().sys.EvaluateArticles(keywords, articles, newRelevance(relevant))
}
