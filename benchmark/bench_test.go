package main

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	qg "github.com/querygraph/querygraph"
	"github.com/querygraph/querygraph/internal/hist"
	"github.com/querygraph/querygraph/internal/synth"
)

// TestQuantilesMatchSortedOracle checks the reported quantiles against a
// sorted copy of the samples, and the shared log-linear histogram filled
// alongside against the same oracle within its stated relative error.
func TestQuantilesMatchSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 99, 1000, 12345} {
		var per [3]latencies
		var all []time.Duration
		for i := 0; i < n; i++ {
			// Log-uniform between 2µs and 200ms, like the workloads' spread.
			d := time.Duration(2000 * math.Exp(rng.Float64()*math.Log(1e5)))
			per[i%3].record(d)
			all = append(all, d)
		}
		lat := &per[0]
		lat.merge(&per[1])
		lat.merge(&per[2])
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(q * float64(n))
			if rank >= n {
				rank = n - 1
			}
			want := all[rank]
			if got := lat.quantile(q); got != want {
				t.Fatalf("n=%d q=%g: quantile %v, oracle %v", n, q, got, want)
			}
			h := lat.h.Quantile(q)
			if h < want || float64(h-want) > float64(want)/hist.Sub+float64(1<<hist.Unit) {
				t.Fatalf("n=%d q=%g: histogram %v not within 1/%d above oracle %v", n, q, h, hist.Sub, want)
			}
		}
		if lat.count() != n || lat.h.N != uint64(n) {
			t.Fatalf("n=%d: merged %d samples, histogram %d", n, lat.count(), lat.h.N)
		}
		if n >= 1000 {
			if b := lat.beyond(0.99); b < n/100-1 || b > n/100 {
				t.Fatalf("n=%d: %d samples beyond p99, want about %d", n, b, n/100)
			}
		}
	}
}

func smallWorld(t *testing.T, seed int64) *synth.World {
	t.Helper()
	cfg := synth.Default()
	cfg.Seed = seed
	cfg.Topics = 6
	cfg.DocsPerTopic = 20
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// inputs builds the seeded op inputs the way newFixture does, on small
// worlds of the fixed seeds.
func inputs(t *testing.T, seed int64) (universe []string, stream []int32, docs []qg.Document, seq []int32) {
	t.Helper()
	w := smallWorld(t, worldSeed)
	var titles []string
	for _, id := range w.Snapshot.MainArticles() {
		titles = append(titles, w.Snapshot.Name(id))
	}
	var src []qg.Document
	for _, d := range smallWorld(t, ingestSeed).Collection.Docs() {
		src = append(src, d.Image)
	}
	rng := rand.New(rand.NewSource(seed))
	universe = queryUniverse(rng, titles)
	stream = zipfStream(rng, len(universe), 5000)
	docs = ingestDocs(rng, src)
	return universe, stream, docs, expandSequence(seed, len(w.Queries), 3)
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	u1, s1, d1, q1 := inputs(t, 5)
	u2, s2, d2, q2 := inputs(t, 5)
	if !reflect.DeepEqual(u1, u2) || !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(q1, q2) {
		t.Fatal("the same seed produced different inputs")
	}
	u3, s3, d3, q3 := inputs(t, 6)
	if reflect.DeepEqual(u1, u3) || reflect.DeepEqual(s1, s3) || reflect.DeepEqual(d1, d3) || reflect.DeepEqual(q1, q3) {
		t.Fatal("another seed produced identical inputs")
	}

	fx := &fixture{docs: d1}
	if b1, b2 := fx.batch(3, 7), fx.batch(3, 7); !reflect.DeepEqual(b1, b2) {
		t.Fatal("batch is not deterministic")
	}
	for _, d := range d1 {
		if d.ID != "" {
			t.Fatalf("ingest document keeps external id %q", d.ID)
		}
	}
	// Batches cycle through the source documents in order.
	if got := fx.batch(len(d1), 1)[0]; !reflect.DeepEqual(got, d1[0]) {
		t.Fatal("batches do not wrap around the source documents")
	}
}

func TestZipfStreamSkew(t *testing.T) {
	universe, stream, _, _ := inputs(t, 9)
	seen := map[string]bool{}
	for _, q := range universe {
		if seen[q] {
			t.Fatalf("duplicate query %q", q)
		}
		seen[q] = true
	}
	counts := make([]int, len(universe))
	for _, i := range stream {
		if i < 0 || int(i) >= len(universe) {
			t.Fatalf("stream index %d out of range", i)
		}
		counts[i]++
	}
	// Popularity falls with rank: the top tenth of ranks draws well over
	// twice what the bottom tenth draws.
	tenth := len(counts) / 10
	head, tail := 0, 0
	for r := 0; r < tenth; r++ {
		head += counts[r]
		tail += counts[len(counts)-1-r]
	}
	if head < 2*tail {
		t.Fatalf("top tenth of ranks drew %d ops, bottom tenth %d", head, tail)
	}
}

func TestExpandSequencePasses(t *testing.T) {
	seq := expandSequence(3, 10, 4)
	for p := 0; p < 4; p++ {
		pass := append([]int32(nil), seq[p*10:(p+1)*10]...)
		sort.Slice(pass, func(i, j int) bool { return pass[i] < pass[j] })
		for i, q := range pass {
			if int(q) != i {
				t.Fatalf("pass %d is not a permutation: %v", p, pass)
			}
		}
	}
}

func TestUnaccountedShare(t *testing.T) {
	spans := []span{
		{Name: "op.expand", Start: 0, End: 100, Parent: -1, Op: 1},
		{Name: "graph.bfs", Start: 10, End: 50, Parent: 0, Op: 1},
		{Name: "cycles.enumerate", Start: 50, End: 80, Parent: 0, Op: 1},
		// A reference call outside any op is not op time.
		{Name: "core.expand", Start: 100, End: 400, Parent: -1, Op: 1},
		{Name: "op.expand", Start: 400, End: 500, Parent: -1, Op: 2},
		{Name: "graph.bfs", Start: 400, End: 490, Parent: 4, Op: 2},
	}
	// Op 1: 100 ns, 70 covered; op 2: 100 ns, 90 covered.
	if got, want := unaccountedShare(spans), 40.0/200; math.Abs(got-want) > 1e-12 {
		t.Fatalf("unaccounted share %g, want %g", got, want)
	}
	if got := unaccountedShare(spans[3:4]); got != 0 {
		t.Fatalf("no op spans: share %g, want 0", got)
	}

	tr := &tracer{spans: spans}
	if got := tr.perOp("graph.bfs"); got[1] != 40 || got[2] != 90 {
		t.Fatalf("perOp = %v", got)
	}
	if got := tr.medianOf("graph.bfs", 1); got != 65 {
		t.Fatalf("median of graph.bfs = %g, want 65", got)
	}
}

func TestSortedRanking(t *testing.T) {
	ok := []qg.Result{{Doc: 4, Score: -1}, {Doc: 2, Score: -2}, {Doc: 3, Score: -2}}
	if !sortedRanking(ok, 3) {
		t.Fatal("valid ranking rejected")
	}
	if sortedRanking(ok, 2) {
		t.Fatal("ranking longer than k accepted")
	}
	if sortedRanking([]qg.Result{{Doc: 3, Score: -2}, {Doc: 2, Score: -2}}, 5) {
		t.Fatal("tie out of doc order accepted")
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "search-zipf", "--seed", "4", "--seconds", "3", "--trace", "1"})
	if err != nil || cfg.workload != searchZipf || cfg.seed != 4 || cfg.seconds != 3*time.Second || !cfg.trace {
		t.Fatalf("parseFlags = %+v, %v", cfg, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "expand-cold", "--seconds", "0"},
		{"--workload", "expand-cold", "--trace", "2"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Fatalf("parseFlags(%v) accepted", bad)
		}
	}
}

// TestTypicalWeightsQueriesByOps checks that typical is the median over
// ops of their query's mean time: each query's ops are averaged first,
// and a query counts once per op.
func TestTypicalWeightsQueriesByOps(t *testing.T) {
	win := window{perQuery: map[int]*queryCost{}}
	// Query 1: three ops averaging 10; query 2: one op of 40; query 3: one
	// op of 50. Over five ops the middle one belongs to query 1.
	for _, d := range []time.Duration{5, 10, 15} {
		win.addQuery(1, d)
	}
	win.addQuery(2, 40)
	win.addQuery(3, 50)
	if got := win.typical(); got != 10 {
		t.Fatalf("typical = %v, want 10", got)
	}
	// Two more ops of query 3 make the middle op query 2's, two more
	// again query 3's.
	win.addQuery(3, 50)
	win.addQuery(3, 50)
	if got := win.typical(); got != 40 {
		t.Fatalf("typical = %v, want 40", got)
	}
	win.addQuery(3, 50)
	win.addQuery(3, 50)
	if got := win.typical(); got != 50 {
		t.Fatalf("typical = %v, want 50", got)
	}
}
