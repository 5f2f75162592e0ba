package querygraph

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/querygraph/querygraph/internal/corpus"
)

// liveSplit generates a world, splits its collection at a seed-dependent
// cut, and returns the monolithic reference client over every document,
// a base world holding only the head, and the tail as ingestable
// documents. The base benchmark's relevant lists are clamped to the base
// range (the store validates them against the corpus, and a live
// deployment's benchmark likewise predates ingest).
func liveSplit(t *testing.T, seed int64, cutFrac float64) (*Client, *World, []Document) {
	t.Helper()
	cfg := DefaultWorldConfig()
	cfg.Seed = seed
	cfg.Topics = 5
	cfg.ArticlesPerTopic = 8
	cfg.DocsPerTopic = 12
	cfg.Queries = 6
	cfg.NoiseVocab = 60
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ref.Close() })

	docs := w.Collection.Docs()
	cut := int(float64(len(docs)) * cutFrac)
	if cut < 1 || cut >= len(docs) {
		t.Fatalf("cut %d leaves no base or no tail in %d docs", cut, len(docs))
	}
	base := *w
	baseColl, err := corpus.LoadCollection(docs[:cut])
	if err != nil {
		t.Fatal(err)
	}
	base.Collection = baseColl
	base.Queries = append(base.Queries[:0:0], w.Queries...)
	for i := range base.Queries {
		kept := base.Queries[i].Relevant[:0:0]
		for _, d := range base.Queries[i].Relevant {
			if int(d) < cut {
				kept = append(kept, d)
			}
		}
		base.Queries[i].Relevant = kept
	}
	tail := make([]Document, len(docs)-cut)
	for i, d := range docs[cut:] {
		tail[i] = d.Image
	}
	return ref, &base, tail
}

// searchGolden collects the reference ranking of every benchmark query.
func searchGolden(t *testing.T, be Backend, qs []Query) [][]Result {
	t.Helper()
	ctx := context.Background()
	out := make([][]Result, len(qs))
	for i, q := range qs {
		rs, err := be.Search(ctx, q.Keywords, MaxRank)
		if err != nil {
			t.Fatalf("search %q: %v", q.Keywords, err)
		}
		out[i] = rs
	}
	return out
}

// TestLiveIngestMatchesMonolithic is the equivalence property of the live
// index: a random split of the corpus into a base build plus ingested
// delta documents serves Search and expanded retrieval bit-identical to
// the monolithic build over the whole corpus — on the snapshot Client and
// the sharded Pool alike — and a compaction advances the generation
// without moving a single result.
func TestLiveIngestMatchesMonolithic(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		seed    int64
		cutFrac float64
	}{{seed: 3, cutFrac: 0.6}, {seed: 9, cutFrac: 0.35}} {
		t.Run(fmt.Sprintf("seed=%d", tc.seed), func(t *testing.T) {
			ref, base, tail := liveSplit(t, tc.seed, tc.cutFrac)
			qs := ref.Queries()
			keywords := make([]string, len(qs))
			for i, q := range qs {
				keywords[i] = q.Keywords
			}
			wantSearch := searchGolden(t, ref, qs)
			wantExp, err := ref.ExpandAll(ctx, keywords, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wantExpSearch, err := ref.SearchExpansions(ctx, wantExp, MaxRank, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}

			client, err := Build(base)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			dir := t.TempDir()
			if err := client.SaveShards(dir, 3); err != nil {
				t.Fatal(err)
			}
			pool, err := OpenBackend(filepath.Join(dir, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			for name, be := range map[string]Backend{"client": client, "pool-3": pool} {
				// Two batches so the segment's append-merge path runs too.
				mid := len(tail) / 2
				for _, span := range [][]Document{tail[:mid], tail[mid:]} {
					if _, err := be.Ingest(ctx, span); err != nil {
						t.Fatalf("%s: ingest: %v", name, err)
					}
				}
				st := be.Stats()
				if st.Delta.Documents != len(tail) || st.Delta.PendingBytes <= 0 {
					t.Fatalf("%s: delta stats = %+v, want %d pending documents", name, st.Delta, len(tail))
				}

				deltaServed := searchGolden(t, be, qs)
				if !reflect.DeepEqual(deltaServed, wantSearch) {
					t.Fatalf("%s: base+delta search diverges from the monolithic build", name)
				}
				gotExp, err := be.ExpandAll(ctx, keywords, BatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				gotExpSearch, err := be.SearchExpansions(ctx, gotExp, MaxRank, BatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotExpSearch, wantExpSearch) {
					t.Fatalf("%s: base+delta expanded retrieval diverges from the monolithic build", name)
				}

				cs, err := be.Compact(ctx)
				if err != nil {
					t.Fatalf("%s: compact: %v", name, err)
				}
				if cs.Compacted != len(tail) || cs.Generation != 2 {
					t.Fatalf("%s: compact stats = %+v, want %d compacted on generation 2", name, cs, len(tail))
				}
				st = be.Stats()
				if st.Delta.Documents != 0 || st.Delta.Generation != 2 || st.Delta.Compactions != 1 ||
					st.Documents != ref.Stats().Documents {
					t.Fatalf("%s: post-compaction stats = %+v (documents %d)", name, st.Delta, st.Documents)
				}
				if got := searchGolden(t, be, qs); !reflect.DeepEqual(got, deltaServed) {
					t.Fatalf("%s: results moved across compaction", name)
				}
			}
		})
	}
}

// TestLiveIngestBatchAtomic pins the all-or-nothing batch contract: a
// batch with a duplicate external id admits nothing, and a batch past
// the capacity answers ErrDeltaFull with the segment unchanged.
func TestLiveIngestBatchAtomic(t *testing.T) {
	ctx := context.Background()
	ref, base, tail := liveSplit(t, 17, 0.5)
	_ = ref
	client, err := Build(base, WithDeltaCapacity(len(tail)))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Duplicate against the base corpus: nothing lands.
	dup := []Document{tail[0], {ID: base.Collection.Docs()[0].Image.ID, Name: "dup.jpg"}}
	if _, err := client.Ingest(ctx, dup); !isInvalidOptions(err) {
		t.Fatalf("duplicate-id batch err = %v, want ErrInvalidOptions", err)
	}
	if st := client.Stats(); st.Delta.Documents != 0 {
		t.Fatalf("rejected batch left %d documents in the delta", st.Delta.Documents)
	}

	// Over capacity: ErrDeltaFull, segment unchanged.
	if _, err := client.Ingest(ctx, tail); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Ingest(ctx, tail[:1]); !isDeltaFull(err) {
		t.Fatalf("over-capacity err = %v, want ErrDeltaFull", err)
	}
	if st := client.Stats(); st.Delta.Documents != len(tail) {
		t.Fatalf("over-capacity batch changed the segment: %d docs", st.Delta.Documents)
	}

}

func isInvalidOptions(err error) bool { return err != nil && ErrorClass(err) == "invalid_options" }
func isDeltaFull(err error) bool      { return err != nil && ErrorClass(err) == "delta_full" }

// TestLiveRace races ingest, compaction, reload and search on a sharded
// pool and then proves the ledger balances: every successfully ingested
// document is present exactly once after the final compaction — none
// dropped by a racing reload or compaction, none double-counted.
func TestLiveRace(t *testing.T) {
	ctx := context.Background()
	_, base, _ := liveSplit(t, 23, 0.7)
	client, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := client.SaveShards(dir, 2); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	be, err := OpenBackend(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	pool := be.(*Pool)
	defer pool.Close()
	baseDocs := pool.Stats().Documents
	kw := pool.Queries()[0].Keywords

	var (
		ingested atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	worker := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		g := g
		worker(func(i int) error {
			doc := Document{
				Name:  fmt.Sprintf("race-%d-%d.jpg", g, i),
				Texts: []DocumentText{{Lang: "en", Description: fmt.Sprintf("racer %d round %d", g, i)}},
			}
			if _, err := pool.Ingest(ctx, []Document{doc}); err != nil {
				return fmt.Errorf("ingest: %w", err)
			}
			ingested.Add(1)
			return nil
		})
	}
	worker(func(i int) error {
		if _, err := pool.Search(ctx, kw, 5); err != nil {
			return fmt.Errorf("search: %w", err)
		}
		return nil
	})
	worker(func(i int) error {
		if _, err := pool.Compact(ctx); err != nil {
			return fmt.Errorf("compact: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	worker(func(i int) error {
		if err := pool.Reload(""); err != nil {
			return fmt.Errorf("reload: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	})

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	if _, err := pool.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	want := baseDocs + int(ingested.Load())
	if got := pool.Stats().Documents; got != want {
		t.Fatalf("after the dust settles: %d documents, want %d (base %d + %d ingested)",
			got, want, baseDocs, ingested.Load())
	}
	if st := pool.Stats(); st.Delta.Documents != 0 {
		t.Fatalf("final compaction left %d delta documents", st.Delta.Documents)
	}
}

// TestLiveClientPersists: a Client holding a pending delta persists the
// base+delta corpus both ways — Save → Open, and SaveShards → OpenPool —
// and each reopened backend serves Search and expanded retrieval
// bit-identical to the monolithic build, over the same document count.
func TestLiveClientPersists(t *testing.T) {
	ctx := context.Background()
	ref, base, tail := liveSplit(t, 5, 0.55)
	qs := ref.Queries()
	keywords := make([]string, len(qs))
	for i, q := range qs {
		keywords[i] = q.Keywords
	}
	wantSearch := searchGolden(t, ref, qs)
	wantExp, err := ref.ExpandAll(ctx, keywords, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantExpSearch, err := ref.SearchExpansions(ctx, wantExp, MaxRank, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	client, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Ingest(ctx, tail); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "live.qgs")
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if err := client.SaveShards(filepath.Join(dir, "shards"), 3); err != nil {
		t.Fatal(err)
	}
	pool, err := OpenPool(filepath.Join(dir, "shards", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	for name, be := range map[string]Backend{"save-open": reopened, "saveshards-pool": pool} {
		if got, want := be.Stats().Documents, ref.Stats().Documents; got != want {
			t.Fatalf("%s: %d documents, want %d", name, got, want)
		}
		if st := be.Stats(); st.Delta.Documents != 0 {
			t.Fatalf("%s: reopened with %d delta documents, want them in the base", name, st.Delta.Documents)
		}
		if got := searchGolden(t, be, qs); !reflect.DeepEqual(got, wantSearch) {
			t.Fatalf("%s: search diverges from the monolithic build", name)
		}
		gotExp, err := be.ExpandAll(ctx, keywords, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gotExpSearch, err := be.SearchExpansions(ctx, gotExp, MaxRank, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotExpSearch, wantExpSearch) {
			t.Fatalf("%s: expanded retrieval diverges from the monolithic build", name)
		}
	}
}

// lateCompactObserver counts compactions observed after the backend's
// Close has returned.
type lateCompactObserver struct {
	recordingObserver
	closed atomic.Bool
	late   atomic.Int64
	early  atomic.Int64
}

func (o *lateCompactObserver) ObserveCompact(CompactObservation) {
	if o.closed.Load() {
		o.late.Add(1)
	} else {
		o.early.Add(1)
	}
}

// TestCloseRacesIngest races Ingest against Close on both local runtimes
// with auto-compaction after every document: once Close has returned, no
// ingest may be acknowledged and no compaction may start or be observed.
func TestCloseRacesIngest(t *testing.T) {
	ctx := context.Background()
	_, base, tail := liveSplit(t, 41, 0.6)
	seed, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	var snap bytes.Buffer
	if err := seed.Save(&snap); err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	for _, kind := range []string{"client", "pool-2"} {
		t.Run(kind, func(t *testing.T) {
			observers := make([]*lateCompactObserver, rounds)
			for round := range observers {
				obs := &lateCompactObserver{}
				observers[round] = obs
				opts := []Option{WithAutoCompact(1), WithObserver(obs)}
				var be Backend
				if kind == "client" {
					be, err = OpenReader(bytes.NewReader(snap.Bytes()), opts...)
				} else {
					dir := t.TempDir()
					if err = seed.SaveShards(dir, 2); err == nil {
						be, err = OpenPool(filepath.Join(dir, "manifest.json"), opts...)
					}
				}
				if err != nil {
					t.Fatal(err)
				}

				var wg sync.WaitGroup
				var ackedAfterClose atomic.Int64
				start := make(chan struct{})
				wg.Add(2)
				go func() {
					defer wg.Done()
					<-start
					afterClose := obs.closed.Load()
					_, err := be.Ingest(ctx, tail)
					switch {
					case errors.Is(err, ErrClosed):
					case err != nil:
						t.Errorf("round %d: ingest: %v", round, err)
					case afterClose:
						ackedAfterClose.Add(1)
					}
				}()
				go func() {
					defer wg.Done()
					<-start
					// Stagger Close from 0 to ~200µs behind the ingest,
					// spinning rather than sleeping for a fine-grained delay.
					for begin := time.Now(); time.Since(begin) < time.Duration(round)*5*time.Microsecond; {
					}
					if err := be.Close(); err != nil {
						t.Errorf("round %d: close: %v", round, err)
					}
					obs.closed.Store(true)
				}()
				close(start)
				wg.Wait()
				if n := ackedAfterClose.Load(); n != 0 {
					t.Errorf("round %d: %d ingests called after Close returned were acknowledged", round, n)
				}
			}
			// Summed once every round is over, so a compaction that a
			// closed backend still started has time to be observed.
			var late, all int64
			for _, obs := range observers {
				late += obs.late.Load()
				all += obs.late.Load() + obs.early.Load()
			}
			if late != 0 {
				t.Errorf("%d compactions observed after Close returned (%d rounds)", late, rounds)
			}
			if all == 0 {
				t.Errorf("no compaction was observed in %d rounds; the race never ran", rounds)
			}
		})
	}
}
