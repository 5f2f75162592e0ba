package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	qg "github.com/querygraph/querygraph"
	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/live"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/shard"
	"github.com/querygraph/querygraph/internal/store"
)

// span is one timed call into a layer, or the op that caused it.
type span struct {
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the parent span in its phase, -1 for a root
	Op     int32  `json:"op"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps one phase's spans in memory. The nil tracer records
// nothing, so replays can run untraced.
type tracer struct {
	phase  string
	t0     time.Time
	op     int32
	spans  []span
	counts map[string][]float64
}

func newTracer(phase string, t0 time.Time) *tracer {
	return &tracer{phase: phase, t0: t0, counts: map[string][]float64{}}
}

// nextOp starts a new op: every span begun until the next call shares
// its id.
func (t *tracer) nextOp() { t.op++ }

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Phase: t.phase, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// count records a per-op work count at the same boundary as the spans.
func (t *tracer) count(name string, v float64) { t.counts[name] = append(t.counts[name], v) }

// perOp sums, per op, the durations of the spans called name.
func (t *tracer) perOp(name string) map[int32]time.Duration {
	out := map[int32]time.Duration{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += s.dur()
		}
	}
	return out
}

func values(m map[int32]time.Duration, unit time.Duration) []float64 {
	out := make([]float64, 0, len(m))
	for _, d := range m {
		out = append(out, float64(d)/float64(unit))
	}
	return out
}

// medianOf is the median per-op duration of the spans called name.
func (t *tracer) medianOf(name string, unit time.Duration) float64 {
	return median(values(t.perOp(name), unit))
}

func (t *tracer) sumCount(name string) float64 {
	var s float64
	for _, v := range t.counts[name] {
		s += v
	}
	return s
}

func (t *tracer) meanCount(name string) float64 {
	if n := len(t.counts[name]); n > 0 {
		return t.sumCount(name) / float64(n)
	}
	return 0
}

// unaccountedShare is the share of op time (root spans named "op.*") that
// none of the op's direct child spans covers. Children of one op never
// overlap: the traced replay runs on one worker.
func unaccountedShare(spans []span) float64 {
	var total, covered int64
	isOp := make([]bool, len(spans))
	for i, s := range spans {
		if s.Parent < 0 && strings.HasPrefix(s.Name, "op.") {
			isOp[i] = true
			total += s.End - s.Start
		}
	}
	for _, s := range spans {
		if s.Parent >= 0 && isOp[s.Parent] {
			covered += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(total-covered) / float64(total)
}

func mallocs() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs)
}

// postingsTouched is the work count of one search: the postings of every
// leaf term, which the scorer (and the phrase intersection) walks.
func postingsTouched(ix *index.Index, leaves []search.Leaf) float64 {
	n := 0
	for _, l := range leaves {
		for _, term := range l.Terms {
			n += len(ix.Postings(term))
		}
	}
	return float64(n)
}

const (
	// setupReps is how many times the traced run times each set-up layer.
	setupReps = 3
	// Probe sizes: the traced run times every layer on every workload, so
	// layers the workload's own ops never reach are timed on a short
	// probe built from the workload's inputs.
	expandProbeOps = 20
	searchProbeOps = 2000
	// searchTraceCap bounds the spans a search-zipf trace keeps.
	searchTraceCap = 100_000
	// searchesPerBatch is the one-worker interleave of the write-path
	// replay: after each ingest batch, this many searches.
	searchesPerBatch = 10
	// layerSumMargin is the accepted distance of the layer sum from the
	// untraced p50 of the same ops, as a share of that p50.
	layerSumMargin = 0.25
)

// layerMoves is the layer -> end-to-end map printed beside the per-layer
// table: which end-to-end metric, on which workload, a change to the
// layer should move.
var layerMoves = map[string]string{
	"store.read_ms":                "setup_s on every workload",
	"core.system_ms":               "setup_s on expand-cold, search-zipf",
	"shard.load_ms":                "setup_s on ingest-search",
	"linking.link_us":              "ops_per_ref_s, op_p50_ref_ms on expand-cold",
	"graph.bfs_us":                 "ops_per_ref_s, op_p50_ref_ms on expand-cold",
	"graph.bfs_visited":            "ops_per_ref_s, op_p50_ref_ms on expand-cold",
	"graph.ball_share":             "ops_per_ref_s, op_p50_ref_ms on expand-cold",
	"graph.induce_us":              "ops_per_ref_s, op_p50_ref_ms on expand-cold",
	"cycles.enumerate_us":          "ops_per_ref_s, op_p50_ref_ms on expand-cold",
	"cycles.found":                 "ops_per_ref_s, op_p50_ref_ms on expand-cold",
	"cycles.measure_us":            "ops_per_ref_s, op_p50_ref_ms on expand-cold",
	"cycles.accept_ratio":          "ops_per_ref_s, op_p50_ref_ms on expand-cold",
	"core.expand_us":               "ops_per_ref_s, op_p50_ref_ms on expand-cold",
	"core.rank_us":                 "ops_per_ref_s, op_p50_ref_ms on expand-cold",
	"core.expand_allocs":           "op_p99_ref_ms (GC) on expand-cold",
	"search.expansion_us":          "op_p50_ref_ms on expand-cold (small share)",
	"search.leaves_us":             "ops_per_ref_s, op quantiles on search-zipf",
	"search.parse_us":              "ops_per_ref_s, op quantiles on search-zipf; search op cost on ingest-search",
	"search.score_us":              "ops_per_ref_s, op quantiles on search-zipf",
	"search.postings_per_op":       "ops_per_ref_s, op quantiles on search-zipf",
	"search.allocs_per_op":         "op_p99_ref_ms on search-zipf",
	"live.append_ms":               "ingest_docs_per_ref_s on ingest-search",
	"live.delta_docs":              "op_p50_ref_ms on ingest-search",
	"shard.search_us":              "ops_per_ref_s, op quantiles on ingest-search",
	"shard.fold_ms":                "ingest_docs_per_ref_s on ingest-search",
	"store.write_ms":               "ingest_docs_per_ref_s on ingest-search",
	"pool.compact_ms":              "ingest_docs_per_ref_s on ingest-search",
	"search.p99_during_compact_ms": "none end to end: ingest-search never searches during a compaction",
	"unaccounted_share":            "none: replay glue no layer span covers",
	"layer_sum_ms":                 "compare with op_p50_ref_ms of the same workload",
	"traced_throughput_ops_s":      "traced one-worker read ops per second",
	"untraced_throughput_ops_s":    "untraced one-worker read ops per second, same ops",
}

// tracedRun holds the state the phases share.
type tracedRun struct {
	cfg    config
	fx     *fixture
	ctx    context.Context
	out    *outcome
	t0     time.Time
	phases []*tracer
}

func runTraced(cfg config, fx *fixture) (*outcome, error) {
	tr := &tracedRun{cfg: cfg, fx: fx, ctx: context.Background(), out: newOutcome(), t0: time.Now()}
	replicaManifest := filepath.Join(fx.dir, "replica", shard.ManifestFileName)
	if err := copyShards(filepath.Dir(fx.manifestPath), filepath.Dir(replicaManifest)); err != nil {
		return nil, err
	}
	sys, set, err := tr.setupPhase(replicaManifest)
	if err != nil {
		return nil, err
	}
	client, err := qg.Open(fx.snapshotPath, qg.WithExpandCache(0))
	if err != nil {
		return nil, err
	}
	rp := &replay{sys: sys, opts: core.DefaultExpanderOptions()}
	tr.expandPhase(rp, client)
	tr.searchPhase(sys, client)
	client.Close()
	client, sys, rp = nil, nil, nil
	runtime.GC()
	if err := tr.writePhase(set, replicaManifest); err != nil {
		return nil, err
	}
	path, err := tr.writeSpans()
	if err != nil {
		return nil, err
	}
	tr.out.note("spans written to %s", path)
	return tr.out, nil
}

func copyShards(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// setupPhase times the set-up layers: decoding the snapshot, assembling
// the System, and loading the 4-shard manifest.
func (tr *tracedRun) setupPhase(manifest string) (*core.System, *shard.Set, error) {
	t := newTracer("setup", tr.t0)
	tr.phases = append(tr.phases, t)
	var (
		sys *core.System
		set *shard.Set
	)
	for i := 0; i < setupReps; i++ {
		sys, set = nil, nil
		runtime.GC()
		t.nextOp()
		f, err := os.Open(tr.fx.snapshotPath)
		if err != nil {
			return nil, nil, err
		}
		s := t.begin("store.read", -1)
		arch, err := store.Read(f)
		t.end(s)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
		s = t.begin("core.system", -1)
		sys, _, err = core.SystemFromArchive(arch, core.WithExpandCache(0))
		t.end(s)
		if err != nil {
			return nil, nil, err
		}
		s = t.begin("shard.load", -1)
		set, err = shard.Load(manifest, core.WithExpandCache(0))
		t.end(s)
		if err != nil {
			return nil, nil, err
		}
	}
	tr.out.set("store.read_ms", "ms", t.medianOf("store.read", time.Millisecond))
	tr.out.set("core.system_ms", "ms", t.medianOf("core.system", time.Millisecond))
	tr.out.set("shard.load_ms", "ms", t.medianOf("shard.load", time.Millisecond))
	return sys, set, nil
}

// expandPhase replays expand ops stage by stage, each followed by the
// same op through the Backend (split at its Expand/SearchExpansion
// boundary) as the untraced reference and the output check.
func (tr *tracedRun) expandPhase(rp *replay, client qg.Backend) {
	t := newTracer("expand", tr.t0)
	tr.phases = append(tr.phases, t)
	var kws []string
	if tr.cfg.workload == expandCold {
		for _, qi := range expandSequence(tr.cfg.seed, len(tr.fx.queries), 1) {
			kws = append(kws, tr.fx.queries[qi].Keywords)
		}
	} else {
		for _, qi := range tr.fx.stream[:expandProbeOps] {
			kws = append(kws, tr.fx.universe[qi])
		}
	}
	bad := 0
	for _, kw := range kws {
		t.nextOp()
		r := rp.expand(t, kw)
		t.count("graph.bfs_visited", float64(r.visited))
		t.count("graph.ball", float64(r.ball))
		t.count("cycles.found", float64(r.exp.CyclesConsidered))
		t.count("cycles.accepted", float64(r.exp.CyclesAccepted))

		m0 := mallocs()
		s := t.begin("core.expand", -1)
		exp, err := client.Expand(tr.ctx, kw)
		t.end(s)
		t.count("core.expand_allocs", mallocs()-m0)
		var rs []qg.Result
		if err == nil {
			s = t.begin("ref.search_expansion", -1)
			rs, _, err = client.SearchExpansion(tr.ctx, exp, resultK)
			t.end(s)
		}
		tr.out.attempted++
		if err != nil || !sameExpansion(r.exp, exp) || fingerprint(r.results) != fingerprint(rs) {
			bad++
			tr.out.failed++
		}
	}
	tr.out.check("replay equals backend", bad == 0, "%d of %d traced expansions differ from the Backend's", bad, len(kws))

	stages := []string{"linking.link", "graph.bfs", "graph.induce", "cycles.enumerate", "cycles.measure", "core.rank"}
	for _, name := range stages {
		tr.out.set(name+"_us", "us", t.medianOf(name, time.Microsecond))
	}
	tr.out.set("graph.bfs_visited", "count", median(t.counts["graph.bfs_visited"]))
	tr.out.set("graph.ball_share", "ratio", t.sumCount("graph.ball")/t.sumCount("graph.bfs_visited"))
	tr.out.set("cycles.found", "count", median(t.counts["cycles.found"]))
	tr.out.set("cycles.accept_ratio", "ratio", t.sumCount("cycles.accepted")/t.sumCount("cycles.found"))
	tr.out.set("core.expand_us", "us", t.medianOf("core.expand", time.Microsecond))
	tr.out.set("core.expand_allocs", "count", t.meanCount("core.expand_allocs"))
	tr.out.set("search.expansion_us", "us", t.medianOf("search.expansion", time.Microsecond))

	if tr.cfg.workload == expandCold {
		ref := t.perOp("core.expand")
		for op, d := range t.perOp("ref.search_expansion") {
			ref[op] += d
		}
		sum := 0.0
		for _, name := range append(stages, "search.expansion") {
			sum += t.medianOf(name, time.Millisecond)
		}
		tr.primary(t, "op.expand", ref, sum)
	}
}

// searchPhase replays keyword searches through the engine's own calls:
// the plan-cache lookup and the scorer, each followed by the uncached
// parse (the cost of a plan-cache miss) and the same search through the
// Backend as reference and check.
func (tr *tracedRun) searchPhase(sys *core.System, client qg.Backend) {
	t := newTracer("search", tr.t0)
	tr.phases = append(tr.phases, t)
	eng := sys.Engine
	var dst []search.Result
	primary := tr.cfg.workload == searchZipf
	var queries []string
	next := 0
	switch tr.cfg.workload {
	case expandCold:
		for _, q := range tr.fx.queries {
			queries = append(queries, q.Keywords)
		}
	case searchZipf:
		// The untraced run warms the plan caches before its window; so
		// does the replay, on both engines, untraced.
		deadline := time.Now().Add(warmup(tr.cfg.seconds))
		for ; time.Now().Before(deadline); next++ {
			q := tr.fx.universe[tr.fx.stream[next%len(tr.fx.stream)]]
			eng.SearchText(q, resultK, dst[:0])
			client.Search(tr.ctx, q, resultK)
		}
		for i := next; i < next+searchTraceCap; i++ {
			queries = append(queries, tr.fx.universe[tr.fx.stream[i%len(tr.fx.stream)]])
		}
	default:
		for _, qi := range tr.fx.stream[:searchProbeOps] {
			queries = append(queries, tr.fx.universe[qi])
		}
	}
	deadline := time.Now().Add(tr.cfg.seconds)
	bad, ops := 0, 0
	for _, q := range queries {
		if primary && time.Now().After(deadline) {
			break
		}
		ops++
		t.nextOp()
		m0 := mallocs()
		root := t.begin("op.search", -1)
		s := t.begin("search.leaves", root)
		leaves, err := eng.LeavesForQuery(q)
		t.end(s)
		if err == nil {
			s = t.begin("search.score", root)
			dst, err = eng.SearchLeaves(leaves, resultK, dst[:0])
			t.end(s)
		}
		t.end(root)
		t.count("search.allocs_per_op", mallocs()-m0)
		t.count("search.postings_per_op", postingsTouched(eng.Index(), leaves))

		s = t.begin("search.parse", -1)
		if node, perr := search.ParseQuery(q, eng.Analyzer()); perr == nil {
			search.Flatten(node)
		}
		t.end(s)

		s = t.begin("ref.search", -1)
		resp, rerr := qg.SearchRequest{Query: q, K: resultK}.Do(tr.ctx, client)
		t.end(s)
		tr.out.attempted++
		if err != nil || rerr != nil || fingerprint(dst) != fingerprint(resp.Results) {
			bad++
			tr.out.failed++
		}
	}
	tr.out.check("engine replay equals backend", bad == 0, "%d of %d traced searches differ from the Backend's", bad, ops)
	for _, name := range []string{"search.leaves", "search.parse", "search.score"} {
		tr.out.set(name+"_us", "us", t.medianOf(name, time.Microsecond))
	}
	tr.out.set("search.postings_per_op", "count", t.meanCount("search.postings_per_op"))
	tr.out.set("search.allocs_per_op", "count", t.meanCount("search.allocs_per_op"))
	if primary {
		sum := t.medianOf("search.leaves", time.Millisecond) + t.medianOf("search.score", time.Millisecond)
		tr.primary(t, "op.search", t.perOp("ref.search"), sum)
	}
}

// writePhase replays ingest-search on one worker at the layer level — a
// shard.Set plus a live.Delta, folded, written and reloaded whenever the
// delta reaches the auto-compaction threshold — in lockstep with a real
// Pool fed the same batches, whose compactions run under a concurrent
// searcher.
func (tr *tracedRun) writePhase(set *shard.Set, replicaManifest string) error {
	t := newTracer("write", tr.t0)
	tr.phases = append(tr.phases, t)
	fx := tr.fx
	pool, err := qg.OpenPool(fx.manifestPath)
	if err != nil {
		return err
	}
	defer pool.Close()
	baseDocs := pool.Stats().Documents
	an := set.Systems()[0].Engine.Analyzer()
	lcfg := live.Config{Mu: set.Systems()[0].Engine.Mu(), RemoveStopwords: an.RemovesStopwords(), Stem: an.Stems()}
	var delta *live.Delta
	primary := tr.cfg.workload == ingestSearch
	deadline := time.Now().Add(tr.cfg.seconds)
	var (
		acked, compactions, bad, ops int
		during                       latencies
	)
	qi := 0
	for j := 0; ; j++ {
		// Every run folds at least once, so the compaction layers are
		// always measured; the workload's own replay also runs its window.
		if compactions > 0 && (!primary || time.Now().After(deadline)) {
			break
		}
		batch := fx.batch(j, ingestBatch)
		t.nextOp()
		root := t.begin("op.ingest", -1)
		s := t.begin("live.append", root)
		delta, err = live.Append(delta, lcfg, set.GlobalDocs(), batch)
		t.end(s)
		t.end(root)
		if err != nil {
			return fmt.Errorf("replay append: %w", err)
		}
		s = t.begin("ref.ingest", -1)
		st, err := pool.Ingest(tr.ctx, batch)
		t.end(s)
		tr.out.attempted++
		if err != nil {
			tr.out.failed++
		} else {
			acked += st.Ingested
		}

		for k := 0; k < searchesPerBatch; k++ {
			q := fx.universe[fx.stream[qi%len(fx.stream)]]
			qi++
			ops++
			t.nextOp()
			root := t.begin("op.search", -1)
			s := t.begin("shard.parse", root)
			node, err := set.Parse(q)
			t.end(s)
			var rs []search.Result
			if err == nil {
				s = t.begin("shard.search", root)
				if delta.NumDocs() > 0 {
					rs, err = set.SearchExtra(tr.ctx, node, resultK, delta.Source(), delta.TotalTokens())
				} else {
					rs, err = set.Search(tr.ctx, node, resultK)
				}
				t.end(s)
			}
			t.end(root)
			t.count("live.delta_docs", float64(delta.NumDocs()))
			s = t.begin("ref.search", -1)
			resp, rerr := qg.SearchRequest{Query: q, K: resultK}.Do(tr.ctx, pool)
			t.end(s)
			tr.out.attempted++
			if err != nil || rerr != nil || fingerprint(rs) != fingerprint(resp.Results) {
				bad++
				tr.out.failed++
			}
		}

		if delta.NumDocs() < autoCompactDocs {
			continue
		}
		t.nextOp()
		root = t.begin("op.compact", -1)
		s = t.begin("shard.fold", root)
		archives, err := shard.Fold(set, delta)
		t.end(s)
		if err != nil {
			return fmt.Errorf("replay fold: %w", err)
		}
		s = t.begin("store.write", root)
		_, err = shard.WriteArchives(replicaManifest, archives)
		t.end(s)
		if err != nil {
			return fmt.Errorf("replay write: %w", err)
		}
		archives, set = nil, nil
		s = t.begin("compact.load", root)
		set, err = shard.Load(replicaManifest, core.WithExpandCache(0))
		t.end(s)
		t.end(root)
		if err != nil {
			return fmt.Errorf("replay reload: %w", err)
		}
		delta = nil
		if err := tr.compactUnderLoad(t, pool, &during); err != nil {
			return err
		}
		compactions++
	}
	tr.out.check("layer replay equals pool", bad == 0, "%d of %d traced searches differ from the Pool's", bad, ops)
	st := pool.Stats()
	tr.out.check("document ledger", st.Documents+st.Delta.Documents == baseDocs+acked,
		"base %d + acknowledged %d, pool holds %d + %d in delta", baseDocs, acked, st.Documents, st.Delta.Documents)

	tr.out.set("live.append_ms", "ms", t.medianOf("live.append", time.Millisecond))
	tr.out.set("live.delta_docs", "count", median(t.counts["live.delta_docs"]))
	tr.out.set("shard.search_us", "us", t.medianOf("shard.search", time.Microsecond))
	tr.out.set("shard.fold_ms", "ms", t.medianOf("shard.fold", time.Millisecond))
	tr.out.set("store.write_ms", "ms", t.medianOf("store.write", time.Millisecond))
	tr.out.set("pool.compact_ms", "ms", t.medianOf("pool.compact", time.Millisecond))
	tr.out.set("search.p99_during_compact_ms", "ms", ms(during.quantile(0.99)))
	tr.out.note("write replay: %d compactions, %d searches overlapped them (%d beyond p99)",
		compactions, during.count(), during.beyond(0.99))
	if primary {
		sum := t.medianOf("shard.parse", time.Millisecond) + t.medianOf("shard.search", time.Millisecond)
		tr.primary(t, "op.search", t.perOp("ref.search"), sum)
	}
	return nil
}

// compactUnderLoad runs the real Pool.Compact while a second goroutine
// searches the Pool, recording the latencies of the searches that
// overlap the compaction.
func (tr *tracedRun) compactUnderLoad(t *tracer, pool qg.Backend, during *latencies) error {
	var stop atomic.Bool
	var wg sync.WaitGroup
	var lat latencies
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := len(tr.fx.stream) / 2; !stop.Load(); i++ {
			q := tr.fx.universe[tr.fx.stream[i%len(tr.fx.stream)]]
			start := time.Now()
			pool.Search(tr.ctx, q, resultK)
			lat.record(time.Since(start))
		}
	}()
	t.nextOp()
	s := t.begin("pool.compact", -1)
	_, err := pool.Compact(tr.ctx)
	t.end(s)
	stop.Store(true)
	wg.Wait()
	during.merge(&lat)
	return err
}

// primary reports the accounting metrics of the workload's own ops: the
// unaccounted share, the layer sum against the untraced reference of the
// same ops, and the traced and untraced one-worker throughput.
func (tr *tracedRun) primary(t *tracer, root string, ref map[int32]time.Duration, layerSumMS float64) {
	rootOps := t.perOp(root)
	var traced, untraced time.Duration
	for _, d := range rootOps {
		traced += d
	}
	for _, d := range ref {
		untraced += d
	}
	refP50 := median(values(ref, time.Millisecond))
	share := layerSumMS / refP50
	tr.out.set("unaccounted_share", "ratio", unaccountedShare(t.spans))
	tr.out.set("layer_sum_ms", "ms", layerSumMS)
	tr.out.set("traced_throughput_ops_s", "ops/s", float64(len(rootOps))/traced.Seconds())
	tr.out.set("untraced_throughput_ops_s", "ops/s", float64(len(ref))/untraced.Seconds())
	ok := share >= 1-layerSumMargin && share <= 1+layerSumMargin
	verdict := "within"
	if !ok {
		verdict = "OUTSIDE"
	}
	tr.out.note("layer sum %.4f ms vs untraced one-worker p50 %.4f ms: share %.3f, %s the ±%.2f margin",
		layerSumMS, refP50, share, verdict, layerSumMargin)
}

// writeSpans writes every phase's spans as JSON lines under the work
// directory and returns the file's path.
func (tr *tracedRun) writeSpans() (string, error) {
	dir := filepath.Join(tr.cfg.workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", tr.cfg.workload, tr.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, t := range tr.phases {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
