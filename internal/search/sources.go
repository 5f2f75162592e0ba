package search

import (
	"fmt"
	"sync"
)

// Source is one index of a logically concatenated collection: its engine
// plus the local→global doc-id translation. The sharded runtime's
// partitions (DocMap) and the live delta segment (Offset) are both
// sources, and SearchSourcesLeaves scores any list of them as one index.
type Source struct {
	// Engine scores this source's slice of the collection.
	Engine *Engine
	// DocMap translates this source's dense local ids to global ids
	// (shard-style partitions). Nil means the identity shifted by Offset.
	DocMap []int32
	// Offset is added to local ids when DocMap is nil — the delta
	// segment's case, where local doc j is global baseDocs+j.
	Offset int32
}

// SearchSources evaluates a query across multiple sources as if their
// documents lived in one index: plan the flattened leaves against every
// source, sum each leaf's collection frequency (exact integer addition),
// score every source under the same merged statistics, translate doc
// ids, and merge by (score desc, global doc asc). Because a document's
// Dirichlet score depends only on its own term frequencies and lengths
// plus the merged collection statistics, the ranking is bit-identical to
// a cold rebuild holding the same documents.
//
// totalTokens is the merged collection length (the sum of the sources'
// TotalTokens). k <= 0 ranks every candidate. A query with no matching
// documents returns an empty, non-nil slice.
func SearchSources(sources []Source, totalTokens int64, q Node, k int) ([]Result, error) {
	leaves, err := Flatten(q)
	if err != nil {
		return nil, err
	}
	return SearchSourcesLeaves(sources, totalTokens, leaves, k, nil)
}

// SearchSourcesLeaves is SearchSources on pre-flattened leaves, reusing
// dst's storage for the returned ranking (dst may be nil). Callers with
// a warm leaves cache (Engine.LeavesForQuery) use this form to skip the
// parse. It is the one in-process scorer for a collection split over
// several indexes — shards, base+delta, or both — and runs the sources
// sequentially on pooled scratch, so with a recycled dst the scatter
// allocates nothing at steady state. A single source that needs no id
// translation and carries the whole collection goes straight to
// Engine.SearchLeaves.
func SearchSourcesLeaves(sources []Source, totalTokens int64, leaves []Leaf, k int, dst []Result) ([]Result, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("search: no sources")
	}
	if s := sources[0]; len(sources) == 1 && s.DocMap == nil && s.Offset == 0 &&
		totalTokens == s.Engine.ix.TotalTokens() {
		return s.Engine.SearchLeaves(leaves, k, dst)
	}
	sc := getSourcesScratch(len(sources), len(leaves))
	defer sc.put()
	leafCF := sc.leafCF
	for i := range sources {
		sc.plans[i] = sources[i].Engine.PlanLeavesInto(sc.plans[i], leaves)
		for j := range leafCF {
			leafCF[j] += sc.plans[i].LocalCF(j)
		}
	}
	stats := &Stats{TotalTokens: totalTokens, LeafCF: leafCF}
	for i := range sources {
		rs, err := sources[i].Engine.SearchPlanInto(sc.plans[i], k, stats, sc.locals[i][:0])
		if err != nil {
			return nil, err
		}
		if dm := sources[i].DocMap; dm != nil {
			for j := range rs {
				rs[j].Doc = dm[rs[j].Doc]
			}
		} else if off := sources[i].Offset; off != 0 {
			for j := range rs {
				rs[j].Doc += off
			}
		}
		sc.locals[i] = rs
	}
	return MergeRankedScratch(dst, sc.locals, k, sc.cursors), nil
}

// sourcesScratch is the pooled per-query state of SearchSourcesLeaves:
// one plan and one local ranking per source, the summed leaf
// frequencies and the merge cursors. One pool serves every source list,
// and getSourcesScratch sizes an entry to the query at hand.
type sourcesScratch struct {
	plans   []*Plan
	leafCF  []int64
	locals  [][]Result
	cursors []int
}

var sourcesPool = sync.Pool{New: func() any { return new(sourcesScratch) }}

func getSourcesScratch(sources, leaves int) *sourcesScratch {
	sc := sourcesPool.Get().(*sourcesScratch)
	if cap(sc.plans) < sources {
		sc.plans = make([]*Plan, sources)
		for i := range sc.plans {
			sc.plans[i] = &Plan{}
		}
		sc.locals = make([][]Result, sources)
		sc.cursors = make([]int, sources)
	}
	sc.plans = sc.plans[:sources]
	sc.locals = sc.locals[:sources]
	sc.cursors = sc.cursors[:sources]
	if cap(sc.leafCF) < leaves {
		sc.leafCF = make([]int64, leaves)
	}
	sc.leafCF = sc.leafCF[:leaves]
	clear(sc.leafCF)
	return sc
}

// put returns the scratch to the pool, first dropping the plans'
// references to the leaves and postings they were built from, so a
// pooled entry never pins a retired index generation.
func (sc *sourcesScratch) put() {
	for _, p := range sc.plans {
		p.release()
	}
	sourcesPool.Put(sc)
}

// MergeRanked merges per-source rankings — each ordered by (score desc,
// global doc asc), the engine's determinism contract — into the global
// top k. (score, doc) is a total order, so the merged prefix is exactly
// the single-index ranking; k <= 0 keeps every candidate.
func MergeRanked(locals [][]Result, k int) []Result {
	return MergeRankedScratch(nil, locals, k, make([]int, len(locals)))
}

// MergeRankedScratch is MergeRanked with caller-owned storage: the
// ranking is appended into dst (nil allocates fresh, and the result is
// always non-nil), and cursors is scratch of at least len(locals). The
// sharded runtime's hot path supplies both so a scatter merge allocates
// nothing.
func MergeRankedScratch(dst []Result, locals [][]Result, k int, cursors []int) []Result {
	total := 0
	for i, rs := range locals {
		total += len(rs)
		cursors[i] = 0
	}
	if k <= 0 || k > total {
		k = total
	}
	merged := dst
	if merged == nil {
		merged = make([]Result, 0, k)
	} else {
		merged = merged[:0]
	}
	for len(merged) < k {
		best := -1
		for s, rs := range locals {
			c := cursors[s]
			if c >= len(rs) {
				continue
			}
			if best < 0 {
				best = s
				continue
			}
			b := locals[best][cursors[best]]
			if rs[c].Score > b.Score || (rs[c].Score == b.Score && rs[c].Doc < b.Doc) {
				best = s
			}
		}
		merged = append(merged, locals[best][cursors[best]])
		cursors[best]++
	}
	return merged
}
