package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/text"
)

// buildTokenEngine indexes the token docs and wraps them in an engine.
func buildTokenEngine(t *testing.T, docs [][]string) *Engine {
	t.Helper()
	ix := index.New()
	for _, d := range docs {
		ix.AddDocument(d)
	}
	e, err := NewEngine(ix, text.NewAnalyzer(false, false))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSearchSourcesMatchesMonolith pins the live-index scoring rule: a
// base+delta split scored under merged collection statistics ranks
// bit-identically (same docs, same float scores) to one index holding
// every document.
func TestSearchSourcesMatchesMonolith(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vocab := []string{"motif", "graph", "query", "expansion", "cycle", "hub"}
	queries := []string{
		"motif graph",
		"#combine(motif #1(graph query))",
		"#weight(2 cycle 1 #1(motif graph) 3 hub)",
		"expansion",
	}
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(30)
		docs := make([][]string, n)
		for i := range docs {
			ln := rng.Intn(10)
			for j := 0; j < ln; j++ {
				docs[i] = append(docs[i], vocab[rng.Intn(len(vocab))])
			}
		}
		cut := rng.Intn(n + 1)
		mono := buildTokenEngine(t, docs)
		base := buildTokenEngine(t, docs[:cut])
		delta := buildTokenEngine(t, docs[cut:])
		sources := []Source{
			{Engine: base},
			{Engine: delta, Offset: int32(cut)},
		}
		total := base.Index().TotalTokens() + delta.Index().TotalTokens()
		for _, q := range queries {
			for _, k := range []int{0, 1, 3, 1000} {
				node, err := mono.Parse(q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := mono.Search(node, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := SearchSources(sources, total, node, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("trial %d cut %d query %q k %d:\nmono  %v\nsplit %v",
						trial, cut, q, k, want, got)
				}
			}
		}
	}
}

// TestSearchSourcesDocMap checks the shard-style translation (explicit
// DocMap) alongside the delta-style Offset on the same scatter.
func TestSearchSourcesDocMap(t *testing.T) {
	docs := [][]string{
		{"motif", "graph"},
		{"graph", "cycle"},
		{"motif", "hub", "motif"},
		{"query"},
	}
	mono := buildTokenEngine(t, docs)
	// Shard-style: even docs in source 0, odd docs in source 1.
	a := buildTokenEngine(t, [][]string{docs[0], docs[2]})
	b := buildTokenEngine(t, [][]string{docs[1], docs[3]})
	sources := []Source{
		{Engine: a, DocMap: []int32{0, 2}},
		{Engine: b, DocMap: []int32{1, 3}},
	}
	node, err := mono.Parse("#combine(motif graph)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := mono.Search(node, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SearchSources(sources, mono.Index().TotalTokens(), node, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("docmap scatter:\nmono  %v\nsplit %v", want, got)
	}
}

// TestSearchSourcesEmpty pins the empty contracts: a no-match query
// returns an empty non-nil slice, and zero sources is an error.
func TestSearchSourcesEmpty(t *testing.T) {
	base := buildTokenEngine(t, [][]string{{"motif"}})
	delta := buildTokenEngine(t, nil)
	node, err := base.Parse("absentterm")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := SearchSources([]Source{{Engine: base}, {Engine: delta, Offset: 1}},
		base.Index().TotalTokens(), node, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rs == nil || len(rs) != 0 {
		t.Fatalf("no-match ranking: want empty non-nil, got %#v", rs)
	}
	if _, err := SearchSources(nil, 0, node, 5); err == nil {
		t.Fatal("zero sources: want error")
	}
}

// TestSearchSourcesConcurrentScratch: concurrent searches over source
// lists of different lengths and index sizes share the one scratch pool,
// and every ranking — with and without a recycled dst — must equal the
// sequential one, which must equal the monolithic index's. Run it under
// -race.
func TestSearchSourcesConcurrentScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vocab := []string{"motif", "graph", "query", "expansion", "cycle", "hub", "wiki"}
	queries := []string{
		"motif graph",
		"#combine(wiki #1(graph query))",
		"#weight(2 cycle 1 #1(motif graph) 3 hub)",
		"expansion hub wiki query",
	}
	type job struct {
		sources []Source
		total   int64
		leaves  []Leaf
		k       int
		want    []Result
	}
	var jobs []job
	for n := 1; n <= 6; n++ {
		docs := make([][]string, rng.Intn(20*n)+n)
		for i := range docs {
			for j := rng.Intn(12); j > 0; j-- {
				docs[i] = append(docs[i], vocab[rng.Intn(len(vocab))])
			}
		}
		mono := buildTokenEngine(t, docs)
		// Deal the documents to n shard-style sources at random.
		parts := make([][][]string, n)
		maps := make([][]int32, n)
		for g, d := range docs {
			s := rng.Intn(n)
			parts[s] = append(parts[s], d)
			maps[s] = append(maps[s], int32(g))
		}
		sources := make([]Source, n)
		for s := range sources {
			sources[s] = Source{Engine: buildTokenEngine(t, parts[s]), DocMap: maps[s]}
		}
		for _, q := range queries {
			node, err := mono.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			leaves, err := Flatten(node)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{0, 3} {
				want, err := SearchSourcesLeaves(sources, mono.Index().TotalTokens(), leaves, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				mw, err := mono.Search(node, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, mw) {
					t.Fatalf("%d sources, %q, k=%d:\nmono    %v\nsources %v", n, q, k, mw, want)
				}
				jobs = append(jobs, job{sources, mono.Index().TotalTokens(), leaves, k, want})
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst []Result
			for round := 0; round < 20; round++ {
				for i := range jobs {
					j := jobs[(i*7+w+round)%len(jobs)]
					if w%2 == 1 {
						dst = nil
					}
					got, err := SearchSourcesLeaves(j.sources, j.total, j.leaves, j.k, dst)
					if err != nil || !reflect.DeepEqual(got, j.want) {
						errs <- fmt.Sprintf("worker %d: %d sources, k=%d: got %v (%v), want %v",
							w, len(j.sources), j.k, got, err, j.want)
						return
					}
					dst = got
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
