package main

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	qg "github.com/querygraph/querygraph"
	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/shard"
	"github.com/querygraph/querygraph/internal/store"
	"github.com/querygraph/querygraph/internal/synth"
	"github.com/querygraph/querygraph/internal/text"
)

// World shape: synth.Default() scaled to about 50x the default world
// (0.8 MiB snapshot) through the existing Config fields only.
const (
	worldTopics       = 400
	worldDocsPerTopic = 200
	worldQueries      = 200
	numShards         = 4
	// worldSeed generates the world of every run. Worlds of different
	// seeds differ in graph shape enough to move expand-cold's median op
	// cost by a third (53 vs 38 ms CPU on seeds 1 and 3), which a seed
	// spread would read as noise; the run's seed orders the ops instead.
	worldSeed = 20_140_622

	// The ingest source is a second, smaller world, generated from a seed
	// of its own so that its documents (and their cost to index) are the
	// same in every run; the run's seed orders them. They are replayed in
	// a cycle, so the source only has to be larger than one batch.
	ingestTopics = 40
	ingestSeed   = 1_000_003

	// streamLen is the length of the pre-drawn Zipf query stream; longer
	// runs wrap around it.
	streamLen = 1 << 20
	// zipfS and zipfV shape the Zipf law over query ranks,
	// P(rank r) ∝ (zipfV + r)^-zipfS. Over ~13k distinct queries about
	// 80% of ops fall on the 4096 most popular ones, the plan cache's
	// capacity, and the rest miss it. The offset zipfV spreads the head
	// over ~1800 effective queries, so that no single query's cost sets a
	// run's throughput.
	zipfS = 1.1
	zipfV = 100
	// probeQueries is the size of the fixed probe set ingest-search ranks
	// before and after its final compaction.
	probeQueries = 64
)

// fixture is everything a run needs: the serving artifacts on disk, the
// benchmark queries, the keyword-query universe with its Zipf stream, and
// the documents to ingest. The world is the same in every run, so it is
// generated once per benchmark binary and kept (see worldCache); the seed
// draws the rest.
type fixture struct {
	dir          string // this run's scratch directory
	snapshotPath string // shared and only read
	manifestPath string // this run's copy: Pool compaction rewrites it

	queries  []qg.Query // the benchmark queries, with relevance
	universe []string   // distinct keyword queries, in Zipf rank order
	stream   []int32    // Zipf-distributed indices into universe
	docs     []qg.Document

	meta   worldMeta
	cached bool // the world was already on disk
}

// worldMeta describes the generated world in every output.
type worldMeta struct {
	Articles      int   `json:"articles"`
	Categories    int   `json:"categories"`
	Links         int   `json:"links"`
	Documents     int   `json:"documents"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	Universe      int   `json:"distinct_queries"`
	IngestPool    int   `json:"ingest_source_docs"`
}

// worldInputs is what the generated worlds leave besides the serving
// artifacts: the benchmark queries, the article titles the query universe
// is built from, and the ingest source documents in generation order.
type worldInputs struct {
	Queries []qg.Query
	Titles  []string
	Docs    []qg.Document
	Meta    worldMeta
}

const inputsFile = "inputs.gob"

func worldConfig() synth.Config {
	cfg := synth.Default()
	cfg.Seed = worldSeed
	cfg.Topics = worldTopics
	cfg.DocsPerTopic = worldDocsPerTopic
	cfg.Queries = worldQueries
	return cfg
}

// newFixture prepares a run in dir: it takes the world from the cache
// under workDir (building it there first if needed), copies the 4-shard
// manifest into dir and draws the query stream and the order of the
// documents to ingest from seed.
func newFixture(workDir, dir string, seed int64) (*fixture, error) {
	cache, cached, err := worldCache(workDir)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(cache, inputsFile))
	if err != nil {
		return nil, err
	}
	var in worldInputs
	err = gob.NewDecoder(f).Decode(&in)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", inputsFile, err)
	}
	fx := &fixture{
		dir:          dir,
		snapshotPath: filepath.Join(cache, "world.qgs"),
		manifestPath: filepath.Join(dir, "shards", shard.ManifestFileName),
		queries:      in.Queries,
		meta:         in.Meta,
		cached:       cached,
	}
	if err := copyShards(filepath.Join(cache, "shards"), filepath.Dir(fx.manifestPath)); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	fx.universe = queryUniverse(rng, in.Titles)
	fx.stream = zipfStream(rng, len(fx.universe), streamLen)
	fx.docs = ingestDocs(rng, in.Docs)
	fx.meta.Universe = len(fx.universe)
	fx.meta.IngestPool = len(fx.docs)
	return fx, nil
}

// worldCache returns the directory under workDir that holds the world
// generated by this very binary, building it on first use. The directory
// is named after a hash of the executable, so a rebuilt benchmark (or a
// changed generator, store or shard format, which it compiles in) never
// reads a world another build wrote; worlds of other builds are removed.
// It is built under a temporary name and renamed into place, so a run
// that is cut short leaves nothing a later run would trust.
func worldCache(workDir string) (dir string, cached bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return "", false, err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "", false, err
	}
	sum := sha256.Sum256(b)
	dir = filepath.Join(workDir, "world-"+hex.EncodeToString(sum[:8]))
	if _, err := os.Stat(filepath.Join(dir, inputsFile)); err == nil {
		return dir, true, nil
	}
	old, _ := filepath.Glob(filepath.Join(workDir, "world-*"))
	for _, o := range old {
		os.RemoveAll(o)
	}
	tmp := fmt.Sprintf("%s.tmp-%d", dir, os.Getpid())
	if err := buildWorld(tmp); err != nil {
		os.RemoveAll(tmp)
		return "", false, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		os.RemoveAll(tmp)
		return "", false, err
	}
	return dir, false, nil
}

// buildWorld generates the world and the ingest source and writes them
// under dir as a snapshot, a 4-shard manifest and the inputs file.
func buildWorld(dir string) error {
	w, err := synth.Generate(worldConfig())
	if err != nil {
		return fmt.Errorf("generate world: %w", err)
	}
	sys, err := core.FromWorld(w)
	if err != nil {
		return fmt.Errorf("build world: %w", err)
	}
	snapshot := filepath.Join(dir, "world.qgs")
	in := worldInputs{Queries: core.QueriesFromWorld(w)}
	arch := sys.Archive(in.Queries)
	if err := writeSnapshot(snapshot, arch); err != nil {
		return err
	}
	if _, err := shard.WriteShards(filepath.Join(dir, "shards"), arch, numShards); err != nil {
		return fmt.Errorf("write shards: %w", err)
	}
	st, err := os.Stat(snapshot)
	if err != nil {
		return err
	}
	ks := w.Snapshot.Stats()
	in.Meta = worldMeta{
		Articles:      ks.Articles,
		Categories:    ks.Categories,
		Links:         ks.Links,
		Documents:     w.Collection.Len(),
		SnapshotBytes: st.Size(),
	}
	for _, id := range w.Snapshot.MainArticles() {
		in.Titles = append(in.Titles, w.Snapshot.Name(id))
	}

	icfg := synth.Default()
	icfg.Seed = ingestSeed
	icfg.Topics = ingestTopics
	icfg.DocsPerTopic = worldDocsPerTopic
	iw, err := synth.Generate(icfg)
	if err != nil {
		return fmt.Errorf("generate ingest world: %w", err)
	}
	for _, d := range iw.Collection.Docs() {
		in.Docs = append(in.Docs, d.Image)
	}

	f, err := os.Create(filepath.Join(dir, inputsFile))
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(&in); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", inputsFile, err)
	}
	return f.Close()
}

func writeSnapshot(path string, arch *store.Archive) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := store.Write(f, arch); err != nil {
		f.Close()
		return fmt.Errorf("write snapshot: %w", err)
	}
	return f.Close()
}

// queryUniverse builds the distinct keyword queries of search-zipf: one
// query per article, of its title or of two titles, in seeded order so
// that Zipf rank is independent of topic. A title made only of stopwords
// ("More") is not a keyword query — the engine rejects it as
// ErrInvalidQuery by contract — so it is left out.
//
// The benchmark's own keyword strings are not in the stream. Each holds a
// connector the analyzer keeps ("near"), whose postings span most of the
// collection, so one costs ~5-10 ms against ~5 µs for a title query. With
// them in the stream, 1.5% of the distinct queries took ~95% of the search
// time, and where the seed ranked them moved throughput 2x between seeds.
// They are searched once each for p_at_10 instead.
func queryUniverse(rng *rand.Rand, titles []string) []string {
	seen := make(map[string]bool, len(titles))
	an := text.NewAnalyzer(true, true)
	var out []string
	for _, i := range rng.Perm(len(titles)) {
		q := titles[i]
		if rng.Intn(2) == 1 {
			q += " " + titles[rng.Intn(len(titles))]
		}
		q = strings.ToLower(q)
		if len(an.Analyze(q)) > 0 && !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// zipfStream draws n query indices over [0, size) by the Zipf law above.
func zipfStream(rng *rand.Rand, size, n int) []int32 {
	z := rand.NewZipf(rng, zipfS, zipfV, uint64(size-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

// ingestDocs takes the ingest source documents in a seeded order with
// their external ids cleared, so that replaying them never collides.
func ingestDocs(rng *rand.Rand, src []qg.Document) []qg.Document {
	out := make([]qg.Document, len(src))
	for i, j := range rng.Perm(len(src)) {
		out[i] = src[j]
		out[i].ID = ""
	}
	return out
}

// batch returns the j-th ingest batch of n documents, cycling through
// the source documents.
func (fx *fixture) batch(j, n int) []qg.Document {
	out := make([]qg.Document, n)
	for i := range out {
		out[i] = fx.docs[(j*n+i)%len(fx.docs)]
	}
	return out
}

// expandSequence is the expand-cold op order: consecutive seeded
// permutations of the benchmark queries, so every query recurs once per
// pass and the expansion cache (disabled anyway) could never help.
func expandSequence(seed int64, queries, passes int) []int32 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]int32, 0, queries*passes)
	for p := 0; p < passes; p++ {
		for _, i := range rng.Perm(queries) {
			out = append(out, int32(i))
		}
	}
	return out
}
