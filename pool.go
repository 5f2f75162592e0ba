package querygraph

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/querygraph/querygraph/internal/shard"
	"github.com/querygraph/querygraph/internal/store"
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
// The Backend methods are the local runtime a Client also serves
// through; a Pool adds Reload, NumShards, Generation and PoolStats, and
// its compactions publish through the manifest.
//
//qlint:serving
//qlint:observed
type Pool struct {
	localRuntime
	// manifestPath is the manifest Reload("") re-reads and Compact
	// publishes to; guarded by mu.
	manifestPath string
	reloads      atomic.Uint64
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
	p := &Pool{manifestPath: manifestPath}
	p.start(set, cfg, p.publishManifest)
	return p, nil
}

// publishManifest is a Pool's compaction publish step: it writes the
// folded archives over the manifest's generation and loads them back —
// the same read path Reload exercises — so a compacted snapshot that
// would not serve is rejected with the old generation still serving.
// Callers hold mu.
//
//qlint:locked mu
func (p *Pool) publishManifest(archives []*store.Archive) (*shard.Set, error) {
	if _, err := shard.WriteArchives(p.manifestPath, archives); err != nil {
		return nil, err
	}
	set, err := shard.Load(p.manifestPath, p.cfg.sys...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	return set, nil
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
	seq, shards, err := p.reloadLocked(manifestPath)
	// Observed under mu: serialized reloads report in order, so a
	// generation gauge never goes stale behind a racing reload.
	p.cfg.obs.reload(start, seq, shards, err)
	return err
}

// reloadLocked does the load-and-swap; Reload holds mu across it.
//
//qlint:locked mu
func (p *Pool) reloadLocked(manifestPath string) (seq uint64, shards int, err error) {
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
	next := newGeneration(set, p.seq, d)
	old := p.gen.Swap(next)
	p.manifestPath = manifestPath
	p.reloads.Add(1)
	old.retire()
	return next.seq, set.NumShards(), nil
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

// PoolStats reports the aggregate summary plus the per-shard breakdown
// and generation counters. Zero (with the lifetime reload count) once
// closed.
func (p *Pool) PoolStats() PoolStats {
	g, err := p.acquire()
	if err != nil {
		return PoolStats{Reloads: p.reloads.Load()}
	}
	defer g.release()
	ps := PoolStats{
		Stats:      g.stats(p.compactions.Load()),
		Shards:     make([]ShardStats, g.set.NumShards()),
		Generation: g.seq,
		Reloads:    p.reloads.Load(),
	}
	for i, sys := range g.set.Systems() {
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
