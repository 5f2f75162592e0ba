package querygraph

import (
	"context"
	"fmt"
	"io"
	"os"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/shard"
	"github.com/querygraph/querygraph/internal/store"
)

// Client is the single-snapshot serving handle of the reproduction: one
// loaded (or built) knowledge base, document collection, search engine and
// entity linker, safe for concurrent use. It satisfies Backend. Every
// query-path method takes a context.Context; a context that is already
// done returns ctx.Err() without running any pipeline, and cancelling
// mid-call stops batch scheduling and abandons cache waits as documented
// per method.
//
// A Client serves its snapshot as a one-shard set through the same
// runtime as a Pool: the same generations, drain, ingest, compaction and
// Close. Ingest appends documents to an in-memory delta segment searched
// alongside the base snapshot, and Compact folds the segment into a
// fresh generation built in memory. Readers pin one immutable generation
// per request and writers swap whole states, so queries never observe a
// half-applied ingest or compaction. After Close, query paths return
// ErrClosed and accessors return zero values, except Queries, which keeps
// returning the benchmark the Client was opened with.
//
//qlint:serving
//qlint:observed
type Client struct {
	localRuntime
	queries []Query
}

// newClient assembles a serving client around a loaded system.
func newClient(sys *core.System, queries []Query, cfg clientConfig) *Client {
	c := &Client{queries: queries}
	c.start(shard.Single(sys, queries), cfg, func(archives []*store.Archive) (*shard.Set, error) {
		sys, qs, err := core.SystemFromArchive(archives[0], cfg.sys...)
		if err != nil {
			return nil, err
		}
		return shard.Single(sys, qs), nil
	})
	return c
}

// Open loads a .qgs snapshot file written by Save (or qgen -out FILE.qgs)
// and assembles a serving Client around it. Startup is a decode, not a
// rebuild. File-system errors are returned as-is; a file that cannot be
// decoded returns an error wrapping ErrBadSnapshot.
func Open(path string, opts ...Option) (*Client, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return OpenReader(f, opts...)
}

// OpenReader is Open over an arbitrary reader of snapshot bytes. Any
// decode failure — wrong magic, version, checksum, truncation, or a
// failing reader — returns an error wrapping ErrBadSnapshot.
func OpenReader(r io.Reader, opts ...Option) (*Client, error) {
	var cfg clientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	sys, qs, err := core.LoadSystem(r, cfg.sys...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return newClient(sys, qs, cfg), nil
}

// Build assembles a Client directly from a generated world: it indexes the
// collection, builds the engine and the entity linker, and adopts the
// world's query benchmark. See GenerateWorld.
func Build(world *World, opts ...Option) (*Client, error) {
	if world == nil {
		return nil, fmt.Errorf("%w: nil world", ErrInvalidOptions)
	}
	var cfg clientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	sys, err := core.FromWorld(world, cfg.sys...)
	if err != nil {
		return nil, err
	}
	return newClient(sys, core.QueriesFromWorld(world), cfg), nil
}

// Save writes the client's complete serving state plus its query benchmark
// as a versioned, checksummed binary snapshot; Open on the written bytes
// serves bit-identical results. A non-empty delta segment is folded into
// the written snapshot (the snapshot a cold rebuild over base plus delta
// would produce), so ingested documents survive a save/load cycle.
// Saving a closed client returns ErrClosed.
func (c *Client) Save(w io.Writer) error {
	arch, err := c.archive()
	if err != nil {
		return err
	}
	return store.Write(w, arch)
}

// SaveShards hash-partitions the client's serving state into shards
// per-shard snapshots plus a manifest.json inside dir (created if
// needed): the knowledge graph, engine configuration and query benchmark
// are replicated into every shard, the corpus and index are partitioned
// by document id, and the global collection statistics are recorded in
// each shard so OpenPool on the manifest serves bit-identical results to
// this client. Like Save, the written generation includes the delta
// documents. The manifest is written last via an atomic rename, so a
// concurrent Pool.Reload sees either the old generation or the new one.
func (c *Client) SaveShards(dir string, shards int) error {
	if shards < 1 {
		return fmt.Errorf("%w: shard count %d must be >= 1", ErrInvalidOptions, shards)
	}
	arch, err := c.archive()
	if err != nil {
		return err
	}
	_, err = shard.WriteShards(dir, arch, shards)
	return err
}

// archive is the current generation as one complete snapshot: the base
// system's, or with a pending delta the one-shard fold of base plus
// delta, stripped of its partition identity.
func (c *Client) archive() (*store.Archive, error) {
	g, err := c.acquire()
	if err != nil {
		return nil, err
	}
	defer g.release()
	delta := g.delta()
	if delta.NumDocs() == 0 {
		return g.set.Systems()[0].Archive(g.set.Queries()), nil
	}
	archives, err := shard.Fold(g.set, delta)
	if err != nil {
		return nil, err
	}
	arch := archives[0]
	arch.Shard = nil
	return arch, nil
}

// Queries returns the loaded query benchmark (empty when the snapshot
// carried none).
func (c *Client) Queries() []Query {
	out := make([]Query, len(c.queries))
	copy(out, c.queries)
	return out
}

// Evaluate writes the paper's title query for the given articles (exact
// phrases; the raw keywords back the query off when no article has a
// usable title) and scores the retrieval against the relevant documents:
// it returns the objective O (precision averaged over the paper's rank
// cutoffs) and the ranked top-15 document ids.
func (c *Client) Evaluate(ctx context.Context, keywords string, articles []NodeID, relevant []int32) (float64, []int32, error) {
	var ranked []int32
	o, err := withSystem(ctx, c, func(sys *core.System) (o float64, err error) {
		o, ranked, err = sys.EvaluateArticles(keywords, articles, newRelevance(relevant))
		return o, err
	})
	return o, ranked, err
}

// withSystem runs one research call on the system of the current
// generation, pinned for the call like every other request.
func withSystem[T any](ctx context.Context, c *Client, fn func(sys *core.System) (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	g, err := c.acquire()
	if err != nil {
		return zero, err
	}
	defer g.release()
	return fn(g.set.Systems()[0])
}
