package main

import (
	"os"
	"sort"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/cycles"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/store"
)

// replay re-runs the expansion pipeline of core.System.Expand stage by
// stage through each layer's public function, so that the traced run can
// time every stage. The pipeline's own code between the calls (ball
// selection, ranking, feature assembly) is copied from internal/core and
// timed as "core.rank"; the checks compare the replay with the Backend's
// own Expansion, so a drift between the copy and the original fails the
// run.
type replay struct {
	sys  *core.System
	opts core.ExpanderOptions
}

// newReplay decodes the fixture's snapshot into a System with the
// expansion cache off.
func newReplay(fx *fixture) (*replay, error) {
	f, err := os.Open(fx.snapshotPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	arch, err := store.Read(f)
	if err != nil {
		return nil, err
	}
	sys, _, err := core.SystemFromArchive(arch, core.WithExpandCache(0))
	if err != nil {
		return nil, err
	}
	return &replay{sys: sys, opts: core.DefaultExpanderOptions()}, nil
}

// expandResult is one replayed expansion with the work counts of its
// stages; the cycle counts are the Expansion's own counters.
type expandResult struct {
	exp     *core.Expansion
	results []search.Result
	visited int // nodes the BFS reached
	ball    int // nodes kept for the induced subgraph
}

// expand replays one ExpandRequest{K: resultK}: the expansion and the
// expanded retrieval. t may be nil (no spans).
func (rp *replay) expand(t *tracer, keywords string) expandResult {
	sys := rp.sys
	root := t.begin("op.expand", -1)
	defer t.end(root)

	s := t.begin("linking.link", root)
	queryArts := sys.LinkKeywords(keywords)
	t.end(s)
	out := expandResult{exp: &core.Expansion{Keywords: keywords, QueryArticles: queryArts}}
	if len(queryArts) > 0 {
		rp.cycleStages(t, root, &out)
	}
	if node, ok := out.exp.Query(sys); ok {
		s = t.begin("search.expansion", root)
		rs, err := sys.Engine.Search(node, resultK)
		t.end(s)
		if err == nil {
			out.results = rs
		}
	}
	return out
}

func (rp *replay) cycleStages(t *tracer, root int32, out *expandResult) {
	sys, opts, exp := rp.sys, rp.opts, out.exp
	g := sys.Snapshot.Graph()

	s := t.begin("graph.bfs", root)
	dist := g.BFSDistances(exp.QueryArticles, graph.ExcludeRedirects)
	t.end(s)
	out.visited = len(dist)

	s = t.begin("core.rank", root)
	type nd struct {
		id graph.NodeID
		d  int
	}
	ball := make([]nd, 0, len(dist))
	for id, d := range dist {
		if d <= opts.Radius {
			ball = append(ball, nd{id, d})
		}
	}
	sort.Slice(ball, func(i, j int) bool {
		if ball[i].d != ball[j].d {
			return ball[i].d < ball[j].d
		}
		return ball[i].id < ball[j].id
	})
	if len(ball) > opts.MaxNeighborhood {
		ball = ball[:opts.MaxNeighborhood]
	}
	out.ball = len(ball)
	nodes := make([]graph.NodeID, len(ball))
	for i, n := range ball {
		nodes[i] = n.id
	}
	t.end(s)

	s = t.begin("graph.induce", root)
	sub := g.Induce(nodes)
	t.end(s)

	var seeds []graph.NodeID
	for _, qa := range exp.QueryArticles {
		if sid, ok := sub.ToSub[qa]; ok {
			seeds = append(seeds, sid)
		}
	}
	s = t.begin("cycles.enumerate", root)
	cs, err := cycles.Enumerate(sub.Graph, seeds, opts.MaxCycleLen, graph.ExcludeRedirects)
	t.end(s)
	if err != nil {
		return
	}
	exp.CyclesConsidered = len(cs)

	type accepted struct {
		m cycles.Metrics
		c cycles.Cycle
	}
	var kept []accepted
	s = t.begin("cycles.measure", root)
	for _, c := range cs {
		m, err := cycles.Measure(sub.Graph, c, graph.ExcludeRedirects)
		if err != nil {
			continue
		}
		switch {
		case m.Length == 2:
			if !opts.KeepTwoCycles {
				continue
			}
		case m.CategoryRatio < opts.MinCategoryRatio || m.CategoryRatio > opts.MaxCategoryRatio:
			continue
		case m.Length >= 4 && m.ExtraEdgeDensity < opts.MinDensity:
			continue
		}
		kept = append(kept, accepted{m: m, c: c})
	}
	t.end(s)
	exp.CyclesAccepted = len(kept)

	// Rank: shorter cycles first, then denser ones; features in cycle
	// order (the default options do not rank by frequency or add
	// redirect aliases).
	s = t.begin("core.rank", root)
	defer t.end(s)
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].m.Length != kept[j].m.Length {
			return kept[i].m.Length < kept[j].m.Length
		}
		if kept[i].m.ExtraEdgeDensity != kept[j].m.ExtraEdgeDensity {
			return kept[i].m.ExtraEdgeDensity > kept[j].m.ExtraEdgeDensity
		}
		return lessNodes(kept[i].c.Nodes, kept[j].c.Nodes)
	})
	inQuery := make(map[graph.NodeID]bool, len(exp.QueryArticles))
	for _, qa := range exp.QueryArticles {
		inQuery[qa] = true
	}
	taken := make(map[graph.NodeID]bool)
	for _, k := range kept {
		for _, n := range cycles.ArticlesOf(sub.Graph, k.c) {
			parent := sub.ToParent[n]
			if inQuery[parent] || taken[parent] {
				continue
			}
			taken[parent] = true
			if len(exp.Features) < opts.MaxFeatures {
				exp.Features = append(exp.Features, core.Feature{
					Node:          parent,
					Title:         sys.Snapshot.Name(parent),
					CycleLen:      k.m.Length,
					Density:       k.m.ExtraEdgeDensity,
					CategoryRatio: k.m.CategoryRatio,
				})
			}
		}
	}
}

func lessNodes(a, b []graph.NodeID) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
