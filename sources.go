package querygraph

import (
	"context"
	"fmt"
	"time"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/live"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/trace"
)

// sourceView is one pinned serving state as the scorer sees it: the
// indexes whose union is the collection — a Client's base engine or a
// Pool's shards, plus the live delta segment when it holds documents —
// and the merged collection length. Both runtimes build it when they
// publish a state (open, ingest, compact, reload), so the query path
// only reads it, and every query goes through search.SearchSourcesLeaves.
type sourceView struct {
	// sys is the base system (a Pool's shard 0): its engine turns query
	// text into memoized scoring leaves and its graph builds expansion
	// queries. Analysis and the graph are replicated, so it stands for
	// every source.
	sys     *core.System
	sources []search.Source
	total   int64
}

// newSourceView describes base (with its token count) plus delta d as
// one collection; an empty delta adds no source.
func newSourceView(sys *core.System, base []search.Source, baseTokens int64, d *live.Delta) sourceView {
	v := sourceView{sys: sys, sources: base, total: baseTokens}
	if d.NumDocs() > 0 {
		v.sources = append(base[:len(base):len(base)], d.Source())
		v.total += d.TotalTokens()
	}
	return v
}

// leaves parses and flattens query text through the engine's plan
// cache; any failure — syntax, or a structure that cannot be flattened
// such as an all-zero #weight — wraps ErrInvalidQuery.
func (v *sourceView) leaves(query string) ([]search.Leaf, error) {
	leaves, err := v.sys.Engine.LeavesForQuery(query)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	return leaves, nil
}

func (v *sourceView) score(leaves []search.Leaf, k int, dst []Result) ([]Result, error) {
	return search.SearchSourcesLeaves(v.sources, v.total, leaves, k, dst)
}

// searchText is the text search of both runtimes, reusing dst's storage
// for the ranking (dst may be nil). A traced ctx records parse and search
// spans.
func (v *sourceView) searchText(ctx context.Context, query string, k int, dst []Result) ([]Result, error) {
	// The untraced branch is the pinned 0 allocs/op fast path: one
	// context lookup, then the cached leaves and the pooled scorer.
	tr := trace.FromContext(ctx)
	if tr == nil {
		leaves, err := v.leaves(query)
		if err != nil {
			return nil, err
		}
		return v.score(leaves, k, dst)
	}
	parseStart := time.Now()
	leaves, err := v.leaves(query)
	if err != nil {
		tr.Span("parse", parseStart, "invalid_query")
		return nil, err
	}
	tr.Span("parse", parseStart, "")
	searchStart := time.Now()
	rs, err := v.score(leaves, k, dst)
	tr.Span("search", searchStart, ErrorClass(err))
	return rs, err
}

// expansionLeaves flattens an expansion's title query (ok = false when
// the expansion has nothing to search for).
func (v *sourceView) expansionLeaves(exp *Expansion) ([]search.Leaf, bool, error) {
	node, ok := exp.Query(v.sys)
	if !ok {
		return nil, false, nil
	}
	leaves, err := search.Flatten(node)
	return leaves, true, err
}

// searchExpansion evaluates one expansion's title query.
func (v *sourceView) searchExpansion(exp *Expansion, k int) ([]Result, bool, error) {
	leaves, ok, err := v.expansionLeaves(exp)
	if !ok || err != nil {
		return nil, ok, err
	}
	rs, err := v.score(leaves, k, nil)
	return rs, true, err
}

// searchAll parses every query up front — the first failure aborts the
// batch with ErrInvalidQuery — then scores the batch.
func (v *sourceView) searchAll(ctx context.Context, queries []string, k int, opts BatchOptions) ([][]Result, error) {
	batch := make([][]search.Leaf, len(queries))
	for i, q := range queries {
		leaves, err := v.leaves(q)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		batch[i] = leaves
	}
	return v.scoreAll(ctx, batch, k, opts)
}

// searchExpansions scores every expansion's title query; an expansion
// with nothing to search for keeps a nil ranking.
func (v *sourceView) searchExpansions(ctx context.Context, exps []*Expansion, k int, opts BatchOptions) ([][]Result, error) {
	batch := make([][]search.Leaf, len(exps))
	for i, exp := range exps {
		leaves, _, err := v.expansionLeaves(exp)
		if err != nil {
			return nil, fmt.Errorf("expansion %d: %w", i, err)
		}
		batch[i] = leaves
	}
	return v.scoreAll(ctx, batch, k, opts)
}

// scoreAll is the batch loop of both runtimes: the rankings in input
// order, a nil entry for nil leaves. The first error stops scheduling
// and is returned; cancelling ctx returns ctx.Err().
func (v *sourceView) scoreAll(ctx context.Context, batch [][]search.Leaf, k int, opts BatchOptions) ([][]Result, error) {
	out := make([][]Result, len(batch))
	err := core.ForEach(ctx, len(batch), opts.Workers, func(i int) error {
		if batch[i] == nil {
			return nil
		}
		rs, err := v.score(batch[i], k, nil)
		if err != nil {
			return fmt.Errorf("search %d: %w", i, err)
		}
		out[i] = rs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
