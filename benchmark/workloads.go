package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	qg "github.com/querygraph/querygraph"
	"github.com/querygraph/querygraph/internal/core"
)

const (
	// setups is how many times a run opens its serving artifact; setup_s
	// is the median.
	setups = 7
	// resultK is the ranking depth of every read op.
	resultK = 15
	// minExpandOps sizes the expand-cold window so that at least ten
	// samples lie beyond its p99 (the sample at rank floor(0.99·n)): the
	// window runs for -seconds and then on until this many ops have
	// completed.
	minExpandOps = 1010
	// maxExtension caps how far a window may run past -seconds to be
	// whole (expand-cold's op floor, ingest-search's last compaction
	// cycle), so that a run on a slow host still ends well inside its
	// time limit.
	maxExtension = 60 * time.Second
	// replayChecks is how many expand-cold queries an untraced run also
	// replays stage by stage (the traced run replays every one).
	replayChecks = 8
	// ingestBatch is the documents per Backend.Ingest call.
	ingestBatch = 100
	// ingestEvery is how many searches ingest-search runs per ingest
	// batch, and autoCompactDocs the delta size at which it compacts: a
	// 12 s window runs several fold-write-reload cycles.
	ingestEvery     = 1000
	autoCompactDocs = 4000
	// probeBatches is the size of one ingest probe on the read-only
	// workloads (see ingestProbe).
	probeBatches = 60
)

// warmup is the unrecorded lead-in of every workload, long enough for the
// plan cache's head to fill and the heap to reach its steady size.
func warmup(window time.Duration) time.Duration {
	if w := window / 5; w < 2*time.Second {
		return w
	}
	return 2 * time.Second
}

// openMedian opens the serving artifact setups times and keeps the last
// Backend; setup_s is the median CPU time of an open, at reference speed.
// Each open starts from a heap collected and handed back to the system
// (see ingestProbe.run). The reference job runs on clock just before
// that, while the heap is warm as it is when the job runs between ops:
// run after it, faulting its own allocations in afresh, it read up to
// twice as slow in one run. Each Backend but the
// last is handed to between before it is closed.
func openMedian(out *outcome, clock *refClock, open func() (qg.Backend, error), between func(qg.Backend)) (qg.Backend, float64, error) {
	var times []float64
	var be qg.Backend
	for i := 0; i < setups; i++ {
		if be != nil {
			if between != nil {
				between(be)
			}
			be.Close()
			be = nil
		}
		clock.tick()
		debug.FreeOSMemory()
		start := processCPU()
		b, err := open()
		if err != nil {
			return nil, 0, fmt.Errorf("open: %w", err)
		}
		times = append(times, (processCPU() - start).Seconds())
		be = b
	}
	out.note("setup CPU times %.4f s, reference speed scale %.3f", times, clock.scale())
	return be, median(times) * clock.scale(), nil
}

// heapLiveMiB is the live heap after a forced collection.
func heapLiveMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// loop is a closed loop of one worker, which issues its next op only
// when the previous one returned. A single worker is what keeps the
// figures steady on a two-CPU host: with two, the workers and the
// collector contend for both CPUs, and expand-cold's median op CPU time
// ranged 12% over three runs against 4% with one. The op index and the
// CPU time spent in ops carry over from one window (a warm-up) to the
// next.
type loop struct {
	key      func(i int64) int // the query op i runs
	next     int64             // op index
	spent    atomic.Int64      // CPU nanoseconds spent inside ops
	refSpent atomic.Int64      // CPU nanoseconds spent in the reference job
}

// window is what one closed-loop window measured.
type window struct {
	lat               latencies // each op's CPU time on the worker's thread
	perQuery          map[int]*queryCost
	wall              time.Duration // length of the window
	cpu               time.Duration // CPU time of the process over the window, less the reference job
	spent             time.Duration // CPU time inside ops
	background        time.Duration // CPU time of the process off the worker's thread
	ref               refClock      // the reference job, every refEvery
	attempted, failed int64
}

// queryCost sums the CPU time of one query's ops in a window.
type queryCost struct {
	n   int64
	sum time.Duration
}

func (w *window) addQuery(q int, c time.Duration) {
	qc := w.perQuery[q]
	if qc == nil {
		qc = &queryCost{}
		w.perQuery[q] = qc
	}
	qc.n++
	qc.sum += c
}

// typical is the median over the window's ops of their query's mean CPU
// time: the cost of the typical op's query. Whether an op overlapped a
// collection, and so paid assists, is close to a coin toss on
// expand-cold, and the median op sat between the two kinds: over the
// same ops it read 36 ms in some runs and 45 ms in others while their
// mean moved 6%. Averaging each query's ~6 ops first settles it.
func (w *window) typical() time.Duration {
	qs := make([]*queryCost, 0, len(w.perQuery))
	var total int64
	for _, qc := range w.perQuery {
		qs = append(qs, qc)
		total += qc.n
	}
	mean := func(qc *queryCost) float64 { return float64(qc.sum) / float64(qc.n) }
	sort.Slice(qs, func(i, j int) bool { return mean(qs[i]) < mean(qs[j]) })
	var seen int64
	for _, qc := range qs {
		seen += qc.n
		if 2*seen > total {
			return time.Duration(mean(qc))
		}
	}
	return 0
}

// run runs op until d has passed and then on while more, when not nil,
// reports that the window is not yet whole (never more than maxExtension
// past d). The worker is locked to its OS thread, so the thread's CPU
// clock times its ops; between ops it runs the reference job every
// refEvery, and after, when not nil, outside the op's timing. op receives
// the op index and reports whether its output was wrong; more receives
// the number of ops completed in the window.
func (l *loop) run(d time.Duration, more func(n int64) bool, op func(i int64) bool, after func(i int64)) window {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	win := window{perQuery: map[int]*queryCost{}}
	start, cpu0, thread0 := time.Now(), processCPU(), threadCPU()
	spent0, ref0 := l.spent.Load(), l.refSpent.Load()
	deadline := start.Add(d)
	hard := deadline.Add(maxExtension)
	nextRef := start
	for {
		now := time.Now()
		if now.After(hard) || (now.After(deadline) && (more == nil || !more(win.attempted))) {
			break
		}
		if !now.Before(nextRef) {
			l.refSpent.Add(int64(win.ref.tick()))
			nextRef = now.Add(refEvery)
		}
		c := threadCPU()
		wrong := op(l.next)
		c = threadCPU() - c
		if after != nil {
			after(l.next)
		}
		l.next++
		win.lat.record(c)
		win.addQuery(l.key(l.next-1), c)
		l.spent.Add(int64(c))
		win.attempted++
		if wrong {
			win.failed++
		}
	}
	win.wall = time.Since(start)
	thread := threadCPU() - thread0
	win.cpu = processCPU() - cpu0 - time.Duration(l.refSpent.Load()-ref0)
	win.background = win.cpu + time.Duration(l.refSpent.Load()-ref0) - thread
	win.spent = time.Duration(l.spent.Load() - spent0)
	return win
}

// setOpMetrics reports the read ops' CPU quantiles and their throughput
// per CPU-second of cost, all at reference speed. On the read-only
// workloads the cost is the process's CPU time over the window, and each
// op's CPU time is charged its share of the work done off the worker's
// thread, which is the collector's background marking: the ops' garbage
// is what it collects, and whether the runtime made an op assist or let a
// background worker do it moved expand-cold's median op by a fifth
// between runs while the total stayed within 6%. On ingest-search the
// cost is the searches' own CPU time and nothing is charged to them: the
// worker ingests and compacts between searches, and that work and its
// garbage are ingest_docs_per_ref_s's.
func setOpMetrics(out *outcome, win *window, readOnly bool) {
	lat, k := &win.lat, win.ref.scale()
	cost, share := win.spent, 1.0
	if readOnly {
		cost = win.cpu
		share += float64(win.background) / float64(win.spent)
	}
	out.set("ops_per_ref_s", "ops/ref-s", float64(lat.count())/(cost.Seconds()*k))
	out.set("op_p50_ref_ms", "ms", ms(win.typical())*share*k)
	out.set("op_p99_ref_ms", "ms", ms(lat.quantile(0.99))*share*k)
	out.note("read ops %d in %.2fs wall (%.1f ops/s), process CPU %.2fs, in-op CPU %.2fs, off the worker's thread %.2fs; %d samples beyond p99; raw op CPU p50 %.4f ms, p99 %.4f ms, p99.9 %.4f ms, max %.4f ms, mean %.4f ms; histogram p99 %.4f ms; background share %.3f; reference speed scale %.3f over %d jobs",
		lat.count(), win.wall.Seconds(), float64(lat.count())/win.wall.Seconds(), win.cpu.Seconds(), win.spent.Seconds(), win.background.Seconds(),
		lat.beyond(0.99), ms(lat.quantile(0.5)), ms(lat.quantile(0.99)), ms(lat.quantile(0.999)), ms(time.Duration(lat.h.Max)),
		ms(lat.h.Mean()), ms(lat.h.Quantile(0.99)), share, k, len(win.ref.times))
}

// fingerprint hashes a ranking: document ids and exact score bits.
func fingerprint(rs []qg.Result) uint64 {
	h := fnv.New64a()
	var b [12]byte
	for _, r := range rs {
		binary.LittleEndian.PutUint32(b[:4], uint32(r.Doc))
		binary.LittleEndian.PutUint64(b[4:], math.Float64bits(r.Score))
		h.Write(b[:])
	}
	return h.Sum64()
}

// expansionFingerprint hashes what the expand-cold checks compare: cycle
// counters, feature nodes and the expanded ranking.
func expansionFingerprint(exp *qg.Expansion, rs []qg.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(exp.CyclesConsidered))
	put(uint64(exp.CyclesAccepted))
	for _, f := range exp.Features {
		put(uint64(f.Node))
	}
	put(fingerprint(rs))
	return h.Sum64()
}

func docsOf(rs []qg.Result) []int32 {
	out := make([]int32, len(rs))
	for i, r := range rs {
		out[i] = r.Doc
	}
	return out
}

// seenOps tracks, per distinct query, the first output fingerprint and
// how many ops ran it; later ops whose output differs are failures.
type seenOps struct {
	seen []bool
	fp   []uint64
	ops  []int64
}

func newSeenOps(n int) *seenOps {
	return &seenOps{seen: make([]bool, n), fp: make([]uint64, n), ops: make([]int64, n)}
}

// observe records one op's fingerprint and reports whether it disagrees
// with the first one seen for the query.
func (s *seenOps) observe(q int, fp uint64) (first, wrong bool) {
	s.ops[q]++
	if !s.seen[q] {
		s.seen[q], s.fp[q] = true, fp
		return true, false
	}
	return false, s.fp[q] != fp
}

// meanPrecisionAt10 is the mean precision@10 of rankings against the
// benchmark relevance, over the queries that have a ranking.
func meanPrecisionAt10(queries []qg.Query, ranked map[int][]int32) (float64, error) {
	var sum float64
	for qi, docs := range ranked {
		p, err := qg.PrecisionAt(docs, queries[qi].Relevant, 10)
		if err != nil {
			return 0, err
		}
		sum += p
	}
	if len(ranked) == 0 {
		return 0, fmt.Errorf("no ranked queries")
	}
	return sum / float64(len(ranked)), nil
}

// keywordPrecision is p_at_10 of plain keyword retrieval on be.
func keywordPrecision(ctx context.Context, be qg.Backend, queries []qg.Query) (float64, error) {
	ranked := make(map[int][]int32, len(queries))
	for i, q := range queries {
		resp, err := qg.SearchRequest{Query: q.Keywords, K: resultK}.Do(ctx, be)
		if err != nil {
			return 0, err
		}
		ranked[i] = docsOf(resp.Results)
	}
	return meanPrecisionAt10(queries, ranked)
}

// ingestProbe measures ingest_docs_per_ref_s on the read-only workloads,
// which never write in their window. Every Client the set-up opens and
// discards ingests probeBatches batches into its empty delta before it is
// closed; the metric is the median of those rates, each the documents
// acknowledged over the CPU time of the probe's thread, scaled by the
// reference job run just before it. Scaling each probe by its own job,
// rather than by the set-up's median, halved their spread between runs:
// the probes are short enough (~0.2 s) for the core's speed to differ
// from one to the next. The workload's own Client never holds a delta.
type ingestProbe struct {
	clock *refClock // the set-up's reference clock
	ctx   context.Context
	fx    *fixture
	out   *outcome
	raw   []float64 // documents per CPU-second
	rates []float64 // the same at reference speed
	bad   int
}

func (p *ingestProbe) run(be qg.Backend) {
	// A collection first, and none inside the ~0.3 s probe: whether one
	// fell inside it or not (marking the ~135 MiB base costs about as much
	// as the probe) moved single probes by a fifth. The probe allocates
	// ~150 MiB, which the next collection takes back. FreeOSMemory also
	// hands every free page back, so that each probe (and each open)
	// faults its memory in afresh: when some found the pages of the
	// Client closed before them still mapped, consecutive probes
	// alternated between 20k and 36k documents per second.
	tick := p.clock.tick()
	debug.FreeOSMemory()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Client.Ingest does its work on the calling goroutine, so its
	// thread's clock times it, and the runtime's scavenger, returning the
	// memory of the Client closed just before, does not.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	acked := 0
	start := threadCPU()
	for j := 0; j < probeBatches; j++ {
		st, err := be.Ingest(p.ctx, p.fx.batch(j, ingestBatch))
		p.out.attempted++
		if err != nil {
			p.out.failed++
			continue
		}
		acked += st.Ingested
	}
	p.raw = append(p.raw, float64(acked)/(threadCPU()-start).Seconds())
	p.rates = append(p.rates, p.raw[len(p.raw)-1]*float64(tick)/float64(refNominal))
	if acked != probeBatches*ingestBatch || be.Stats().Delta.Documents != acked {
		p.bad++
	}
}

func (p *ingestProbe) report() {
	p.out.set("ingest_docs_per_ref_s", "docs/ref-s", median(p.rates))
	p.out.note("ingest probe raw rates %.0f docs/cpu-s", p.raw)
	p.out.check("ingest probe ledger", p.bad == 0 && len(p.rates) > 0,
		"%d of %d probes acknowledged other than %d documents", p.bad, len(p.rates), probeBatches*ingestBatch)
}

func runExpandCold(cfg config, fx *fixture) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	var clock refClock
	probe := &ingestProbe{clock: &clock, ctx: ctx, fx: fx, out: out}
	be, setup, err := openMedian(out, &clock, func() (qg.Backend, error) {
		return qg.Open(fx.snapshotPath, qg.WithExpandCache(0))
	}, probe.run)
	if err != nil {
		return nil, err
	}
	defer be.Close()
	out.set("setup_s", "s", setup)

	seq := expandSequence(cfg.seed, len(fx.queries), 50)
	seen := newSeenOps(len(fx.queries))
	firsts := map[int]*qg.ExpandResponse{}
	expand := func(i int64) bool {
		qi := int(seq[i%int64(len(seq))])
		resp, err := qg.ExpandRequest{Keywords: fx.queries[qi].Keywords, K: resultK}.Do(ctx, be)
		if err != nil {
			return true
		}
		first, wrong := seen.observe(qi, expansionFingerprint(resp.Expansion, resp.Results))
		if first {
			firsts[qi] = &resp
		}
		return wrong
	}
	l := loop{key: func(i int64) int { return int(seq[i%int64(len(seq))]) }}
	warm := l.run(warmup(cfg.seconds), nil, expand, nil)
	win := l.run(cfg.seconds, func(n int64) bool { return n < minExpandOps }, expand, nil)
	failed := win.failed + warm.failed
	out.attempted += win.attempted + warm.attempted
	out.failed += failed
	setOpMetrics(out, &win, true)
	out.set("heap_live_mib", "MiB", heapLiveMiB())
	out.check("expand deterministic", failed == 0,
		"%d ops failed or disagreed with the first output of their query", failed)

	ranked := make(map[int][]int32, len(firsts))
	for qi, r := range firsts {
		ranked[qi] = docsOf(r.Results)
	}
	p10, err := meanPrecisionAt10(fx.queries, ranked)
	if err != nil {
		return nil, err
	}
	out.set("p_at_10", "ratio", p10)

	// Replay a seeded sample stage by stage against a System decoded from
	// the same snapshot: the replay must reproduce the Backend's output.
	rp, err := newReplay(fx)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	bad := 0
	for _, qi := range rng.Perm(len(fx.queries))[:replayChecks] {
		r, ok := firsts[qi]
		if !ok {
			continue
		}
		got := rp.expand(nil, fx.queries[qi].Keywords)
		if !sameExpansion(got.exp, r.Expansion) || fingerprint(got.results) != fingerprint(r.Results) {
			bad++
			out.failed += seen.ops[qi]
		}
	}
	out.check("replay equals backend", bad == 0, "%d of %d sampled queries differ", bad, replayChecks)

	probe.report()
	return out, nil
}

func runSearchZipf(cfg config, fx *fixture) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	var clock refClock
	probe := &ingestProbe{clock: &clock, ctx: ctx, fx: fx, out: out}
	be, setup, err := openMedian(out, &clock, func() (qg.Backend, error) {
		return qg.Open(fx.snapshotPath, qg.WithExpandCache(0))
	}, probe.run)
	if err != nil {
		return nil, err
	}
	defer be.Close()
	out.set("setup_s", "s", setup)

	seen := newSeenOps(len(fx.universe))
	search := func(i int64) bool {
		qi := int(fx.stream[i%int64(len(fx.stream))])
		resp, err := qg.SearchRequest{Query: fx.universe[qi], K: resultK}.Do(ctx, be)
		if err != nil {
			return true
		}
		_, wrong := seen.observe(qi, fingerprint(resp.Results))
		return wrong
	}
	l := loop{key: func(i int64) int { return int(fx.stream[i%int64(len(fx.stream))]) }}
	warm := l.run(warmup(cfg.seconds), nil, search, nil)
	win := l.run(cfg.seconds, nil, search, nil)
	failed := win.failed + warm.failed
	out.attempted += win.attempted + warm.attempted
	out.failed += failed
	setOpMetrics(out, &win, true)
	out.set("heap_live_mib", "MiB", heapLiveMiB())
	out.check("search deterministic", failed == 0,
		"%d ops failed or disagreed with the first output of their query", failed)

	p10, err := keywordPrecision(ctx, be, fx.queries)
	if err != nil {
		return nil, err
	}
	out.set("p_at_10", "ratio", p10)

	// Every distinct query the stream ran must rank exactly as a 4-shard
	// Pool over the same world ranks it.
	var qs []string
	var idx []int
	for qi, ok := range seen.seen {
		if ok {
			qs = append(qs, fx.universe[qi])
			idx = append(idx, qi)
		}
	}
	pool, err := qg.OpenPool(fx.manifestPath)
	if err != nil {
		return nil, err
	}
	want, err := pool.SearchAll(ctx, qs, resultK, qg.BatchOptions{Workers: 1})
	pool.Close()
	if err != nil {
		return nil, err
	}
	differ := 0
	for j, qi := range idx {
		if fingerprint(want[j]) != seen.fp[qi] {
			differ++
			out.failed += seen.ops[qi]
		}
	}
	out.check("client equals 4-shard pool", differ == 0, "%d of %d distinct queries rank differently", differ, len(qs))
	out.note("distinct queries run: %d of %d", len(qs), len(fx.universe))

	probe.report()
	return out, nil
}

// sortedRanking reports whether rs is a valid top-k ranking: at most k
// results by descending score, ties by ascending document id.
func sortedRanking(rs []qg.Result, k int) bool {
	if len(rs) > k {
		return false
	}
	for i := 1; i < len(rs); i++ {
		a, b := rs[i-1], rs[i]
		if a.Score < b.Score || (a.Score == b.Score && a.Doc >= b.Doc) {
			return false
		}
	}
	return true
}

func runIngestSearch(cfg config, fx *fixture) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	be, setup, err := openMedian(out, &refClock{}, func() (qg.Backend, error) {
		return qg.OpenPool(fx.manifestPath)
	}, nil)
	if err != nil {
		return nil, err
	}
	defer be.Close()
	out.set("setup_s", "s", setup)
	baseDocs := be.Stats().Documents

	search := func(i int64) bool {
		q := fx.universe[fx.stream[i%int64(len(fx.stream))]]
		resp, err := qg.SearchRequest{Query: q, K: resultK}.Do(ctx, be)
		return err != nil || !sortedRanking(resp.Results, resultK)
	}
	l := loop{key: func(i int64) int { return int(fx.stream[i%int64(len(fx.stream))]) }}
	warm := l.run(warmup(cfg.seconds), nil, search, nil)

	// The worker ingests one batch after every ingestEvery searches and
	// compacts whenever the delta reaches autoCompactDocs, so every run
	// interleaves the same sequence of searches, batches and compactions.
	// With the ingester and the background compactions of WithAutoCompact
	// on threads of their own, how far each got depended on the scheduler:
	// ingest_docs and the search p99 spread 15-17% between runs. The
	// window starts on an empty delta and runs on to the end of a
	// compaction cycle, so that it holds whole cycles only: where a cut
	// fell in a cycle moved the mix of delta sizes the searches saw.
	var acked, batches, inBad, compactBad, pending int64
	write := func(i int64) {
		if (i+1)%ingestEvery != 0 {
			return
		}
		st, err := be.Ingest(ctx, fx.batch(int(batches), ingestBatch))
		batches++
		if err != nil {
			inBad++
			return
		}
		acked += int64(st.Ingested)
		pending = int64(st.DeltaDocs)
		if st.DeltaDocs >= autoCompactDocs {
			if _, err := be.Compact(ctx); err != nil {
				compactBad++
			}
			pending = 0
		}
	}
	begin := ingestCPU(&l)
	win := l.run(cfg.seconds, func(int64) bool { return pending > 0 }, search, write)
	ingestRate := float64(acked) / (ingestCPU(&l) - begin).Seconds()
	failed := win.failed + warm.failed
	out.attempted = win.attempted + warm.attempted + batches
	out.failed = failed + inBad + compactBad
	setOpMetrics(out, &win, false)
	out.set("ingest_docs_per_ref_s", "docs/ref-s", ingestRate/win.ref.scale())
	out.note("ingest: %d documents in %d batches, %d compaction cycles", acked, batches, acked/autoCompactDocs)
	p10, err := keywordPrecision(ctx, be, fx.queries)
	if err != nil {
		return nil, err
	}
	out.set("p_at_10", "ratio", p10)
	out.check("searches well-formed", failed == 0, "%d searches failed or returned a malformed ranking", failed)
	out.check("ingest acknowledged", inBad == 0, "%d of %d batches refused", inBad, batches)
	out.check("compactions succeeded", compactBad == 0, "%d compactions failed", compactBad)

	// Final compaction: the ledger must balance and a fixed probe set must
	// rank identically before and after. The live heap is measured after
	// it, when no compaction is in flight and no retired generation is
	// pinned.
	probes := fx.universe[:probeQueries]
	before, err := be.SearchAll(ctx, probes, resultK, qg.BatchOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	if _, err := be.Compact(ctx); err != nil {
		return nil, fmt.Errorf("final compact: %w", err)
	}
	out.set("heap_live_mib", "MiB", heapLiveMiB())
	after, err := be.SearchAll(ctx, probes, resultK, qg.BatchOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	moved := 0
	for i := range probes {
		if fingerprint(before[i]) != fingerprint(after[i]) {
			moved++
		}
	}
	out.check("probe ranks survive compact", moved == 0, "%d of %d probe queries moved", moved, len(probes))
	st := be.Stats()
	out.check("document ledger", st.Documents == baseDocs+int(acked) && st.Delta.Documents == 0,
		"base %d + acknowledged %d = %d, backend holds %d (+%d in delta)",
		baseDocs, acked, baseDocs+int(acked), st.Documents, st.Delta.Documents)
	out.note("compactions %d, ingest batches %d", st.Delta.Compactions, batches)
	return out, nil
}

// ingestCPU is the CPU time the process has spent on anything but the
// searches and reference jobs of l: on ingest-search, the batches, the
// compactions and the collections they cause.
func ingestCPU(l *loop) time.Duration {
	return processCPU() - time.Duration(l.spent.Load()+l.refSpent.Load())
}

// sameExpansion compares what the replay must reproduce: the cycle
// counters and the feature nodes in rank order.
func sameExpansion(a *core.Expansion, b *qg.Expansion) bool {
	if a.CyclesConsidered != b.CyclesConsidered || a.CyclesAccepted != b.CyclesAccepted || len(a.Features) != len(b.Features) {
		return false
	}
	for i := range a.Features {
		if a.Features[i].Node != b.Features[i].Node {
			return false
		}
	}
	return true
}
