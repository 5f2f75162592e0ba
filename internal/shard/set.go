package shard

import (
	"context"
	"fmt"
	"os"
	"sync"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/store"
)

// Set is one loaded generation of a sharded snapshot: every shard wrapped
// in its own serving System, plus the cross-shard identity needed for
// scatter-gather. A Set is immutable after Load (or Single, for one
// system) and safe for concurrent use; the serving runtimes swap whole
// Sets on reload and compaction.
//
// Division of labor: retrieval scores every shard as one source of
// search.SearchSourcesLeaves, the single in-process multi-index scorer;
// expansion runs once on shard 0's replicated graph (the expansion cache
// therefore lives on shard 0's System).
type Set struct {
	systems []*core.System
	queries []core.Query
	// sources[s] is shard s's engine with its local→global doc-id map.
	sources      []search.Source
	globalDocs   int
	globalTokens int64
}

// Load opens every shard named by the manifest (concurrently — decode
// dominates startup) and cross-validates the generation: complete slot
// assignment, agreeing shard counts, global statistics and engine
// configuration, and a doc-id map that tiles the global space exactly.
// opts apply to every shard's System; the expansion cache is kept on
// shard 0 only, where Expand runs.
func Load(manifestPath string, opts ...core.SystemOption) (*Set, error) {
	m, err := ReadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	n := m.ShardCount
	archives := make([]*store.Archive, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for _, e := range m.Shards {
		wg.Add(1)
		go func(e ManifestShard) {
			defer wg.Done()
			archives[e.ID], errs[e.ID] = readArchiveFile(shardPath(manifestPath, e))
		}(e)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}

	set := &Set{
		systems: make([]*core.System, n),
		sources: make([]search.Source, n),
	}
	ref := archives[0]
	if ref.Shard == nil {
		return nil, fmt.Errorf("shard 0: snapshot carries no partition identity; regenerate with qgen -shards")
	}
	set.globalDocs, set.globalTokens = ref.Shard.GlobalDocs, ref.Shard.GlobalTokens
	if set.globalDocs != m.GlobalDocs {
		return nil, fmt.Errorf("shard 0: snapshot spans %d global documents, manifest says %d",
			set.globalDocs, m.GlobalDocs)
	}
	seen := make([]bool, set.globalDocs)
	covered := 0
	for s, a := range archives {
		sh := a.Shard
		switch {
		case sh == nil:
			return nil, fmt.Errorf("shard %d: snapshot carries no partition identity", s)
		case sh.ShardID != s:
			return nil, fmt.Errorf("shard %d: file identifies as shard %d", s, sh.ShardID)
		case sh.ShardCount != n:
			return nil, fmt.Errorf("shard %d: file belongs to a %d-shard partition, manifest has %d",
				s, sh.ShardCount, n)
		case sh.GlobalDocs != set.globalDocs || sh.GlobalTokens != set.globalTokens:
			return nil, fmt.Errorf("shard %d: global statistics (%d docs, %d tokens) disagree with shard 0 (%d, %d); mixed generations?",
				s, sh.GlobalDocs, sh.GlobalTokens, set.globalDocs, set.globalTokens)
		case a.Mu != ref.Mu || a.IncludeKeywordTerms != ref.IncludeKeywordTerms ||
			a.RemoveStopwords != ref.RemoveStopwords || a.Stem != ref.Stem:
			return nil, fmt.Errorf("shard %d: engine configuration disagrees with shard 0; mixed generations?", s)
		}
		for _, g := range sh.DocGlobal {
			if seen[g] {
				return nil, fmt.Errorf("shard %d: global document %d owned by two shards", s, g)
			}
			seen[g] = true
		}
		covered += len(sh.DocGlobal)

		shardOpts := opts
		if s != 0 {
			// Expansion runs on shard 0 only; don't size caches the other
			// shards will never consult.
			shardOpts = append(append([]core.SystemOption{}, opts...), core.WithExpandCache(0))
		}
		sys, queries, err := core.SystemFromArchive(a, shardOpts...)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		set.systems[s] = sys
		set.sources[s] = search.Source{Engine: sys.Engine}
		if n > 1 {
			// The only shard's map is the identity — the store keeps a map
			// ascending and the coverage check below makes it complete — so
			// without it the scorer takes its single-index path.
			set.sources[s].DocMap = sh.DocGlobal
		}
		if s == 0 {
			set.queries = queries
		}
	}
	if covered != set.globalDocs {
		return nil, fmt.Errorf("shards cover %d of %d global documents", covered, set.globalDocs)
	}
	return set, nil
}

// Single wraps one complete serving system as a one-shard set — the
// form a single snapshot serves in. Its source carries no doc-id map:
// local ids are global ids.
func Single(sys *core.System, queries []core.Query) *Set {
	ix := sys.Engine.Index()
	return &Set{
		systems:      []*core.System{sys},
		queries:      queries,
		sources:      []search.Source{{Engine: sys.Engine}},
		globalDocs:   ix.NumDocs(),
		globalTokens: ix.TotalTokens(),
	}
}

func readArchiveFile(path string) (*store.Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return store.Read(f)
}

// NumShards returns the shard count of the loaded generation.
func (s *Set) NumShards() int { return len(s.systems) }

// Systems returns the per-shard serving systems (index = shard id), for
// stats reporting. Treat as read-only.
func (s *Set) Systems() []*core.System { return s.systems }

// Queries returns the replicated benchmark. Treat as read-only.
func (s *Set) Queries() []core.Query { return s.queries }

// GlobalDocs returns the whole collection's document count.
func (s *Set) GlobalDocs() int { return s.globalDocs }

// GlobalTokens returns the whole collection's token count.
func (s *Set) GlobalTokens() int64 { return s.globalTokens }

// Parse parses query text with the replicated analyzer configuration.
func (s *Set) Parse(query string) (search.Node, error) {
	return s.systems[0].Engine.Parse(query)
}

// Sources returns the shards as scorer sources (index = shard id), each
// translating its local doc ids to global ones; a one-shard set's source
// has a nil DocMap, the identity. Treat as read-only.
func (s *Set) Sources() []search.Source { return s.sources }

// Search evaluates one parsed query across all shards and returns the
// global top k (descending score, ties by ascending global doc id) —
// exactly the single-system ranking, because every shard scores under
// the globally aggregated statistics.
func (s *Set) Search(ctx context.Context, node search.Node, k int) ([]search.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return search.SearchSources(s.sources, s.globalTokens, node, k)
}

// SearchExtra is Search with one extra in-memory source appended to the
// shards — the live delta segment sitting above this generation. Every
// source scores under the summed collection statistics (globalTokens +
// extraTokens, per-leaf collection frequencies aggregated across all
// sources), so the merged ranking is bit-identical to a monolithic index
// containing the base and extra documents together.
func (s *Set) SearchExtra(ctx context.Context, node search.Node, k int, extra search.Source, extraTokens int64) ([]search.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sources := append(s.sources[:len(s.sources):len(s.sources)], extra)
	return search.SearchSources(sources, s.globalTokens+extraTokens, node, k)
}

// Expand runs the online expansion pipeline once on the replicated graph
// (shard 0), through shard 0's memoizing single-flight cache. The graph
// is identical in every shard, so this is bit-identical to the
// single-system expansion.
func (s *Set) Expand(ctx context.Context, keywords string, opts core.ExpanderOptions) (*core.Expansion, error) {
	return s.systems[0].Expand(ctx, keywords, opts)
}

// ExpandOutcome is Expand plus the per-request cache outcome, for the
// instrumented public facade.
func (s *Set) ExpandOutcome(ctx context.Context, keywords string, opts core.ExpanderOptions) (*core.Expansion, core.CacheOutcome, error) {
	return s.systems[0].ExpandOutcome(ctx, keywords, opts)
}

// ExpandAll is the batch form of Expand, on shard 0's batch layer.
func (s *Set) ExpandAll(ctx context.Context, keywords []string, eopts core.ExpanderOptions, opts core.BatchOptions) ([]*core.Expansion, error) {
	return s.systems[0].ExpandAll(ctx, keywords, eopts, opts)
}

// ExpandCacheStats reports shard 0's expansion cache counters.
func (s *Set) ExpandCacheStats() core.CacheStats {
	return s.systems[0].ExpandCacheStats()
}
