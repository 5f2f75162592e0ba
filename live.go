package querygraph

import (
	"context"
	"fmt"
	"time"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/live"
	"github.com/querygraph/querygraph/internal/store"
)

// IngestStats reports the outcome of one Backend.Ingest call.
type IngestStats struct {
	// Ingested is the number of documents admitted by this call (0 when
	// the call failed — the batch is atomic).
	Ingested int `json:"ingested"`
	// DeltaDocs and DeltaBytes describe the delta segment after the call:
	// its document count and pending-compaction text bytes.
	DeltaDocs  int   `json:"delta_docs"`
	DeltaBytes int64 `json:"delta_bytes"`
	// Generation is the serving generation the segment sits above.
	Generation uint64 `json:"generation"`
}

// CompactStats reports the outcome of one Backend.Compact call.
type CompactStats struct {
	// Compacted is the number of delta documents folded into the new
	// generation (0 for the empty-delta no-op).
	Compacted int `json:"compacted"`
	// Documents is the compacted generation's total document count.
	Documents int `json:"documents"`
	// Generation is the sequence number now being served — advanced by a
	// real compaction, unchanged by the no-op and on failure.
	Generation uint64 `json:"generation"`
}

// DeltaStats summarizes the live delta segment inside Stats.
type DeltaStats struct {
	// Documents is the delta segment's current document count.
	Documents int `json:"documents"`
	// PendingBytes is the extracted text volume awaiting compaction.
	PendingBytes int64 `json:"pending_bytes"`
	// Generation is the serving generation the segment sits above.
	Generation uint64 `json:"generation"`
	// Compactions counts this backend's completed non-empty compactions.
	Compactions uint64 `json:"compactions"`
}

// liveConfigOf derives the delta segment's analysis/scoring configuration
// from the serving system it sits above; matching configurations are what
// make merged-statistics scoring equal the monolithic rebuild.
func liveConfigOf(sys *core.System) live.Config {
	an := sys.Engine.Analyzer()
	return live.Config{
		Mu:              sys.Engine.Mu(),
		RemoveStopwords: an.RemovesStopwords(),
		Stem:            an.Stems(),
	}
}

// mergedArchive is the cold-rebuild form of a client state with a
// non-empty delta: the base collection extended by the delta documents
// (renumbered into the global id space they already occupy when served)
// and the merged positional index. Compact, Save and SaveShards all feed
// from it, so the compacted artifact is the one a from-scratch build over
// the same documents would produce.
func mergedArchive(st *clientState, queries []Query) (*store.Archive, error) {
	base := st.sys.Collection.Docs()
	docs := make([]corpus.Document, 0, len(base)+st.delta.NumDocs())
	docs = append(docs, base...)
	for _, d := range st.delta.Docs() {
		d.ID = corpus.DocID(len(docs))
		docs = append(docs, d)
	}
	coll, err := corpus.LoadCollection(docs)
	if err != nil {
		return nil, err
	}
	arch := st.sys.Archive(queries)
	arch.Collection = coll
	arch.Index = index.Merge(st.sys.Engine.Index(), st.delta.Index())
	return arch, nil
}

// admitIngest is the ingest admission of both runtimes: it returns the
// delta segment cur extended by docs, or admits nothing when the batch
// would exceed capacity (ErrDeltaFull), repeats an external id held by a
// base system (ErrInvalidOptions), or fails live.Append — an id repeated
// within the segment — wrapped in ErrInvalidOptions. bases are the
// systems under the segment (a Pool's shards); the first one fixes the
// segment's configuration.
func admitIngest(cur *live.Delta, capacity int, bases []*core.System, baseDocs int, docs []Document) (*live.Delta, error) {
	if held := cur.NumDocs(); held+len(docs) > capacity {
		return nil, fmt.Errorf("%w: %d held + %d submitted exceeds capacity %d",
			ErrDeltaFull, held, len(docs), capacity)
	}
	for _, d := range docs {
		if d.ID == "" {
			continue
		}
		for _, sys := range bases {
			if _, ok := sys.Collection.ByExternalID(d.ID); ok {
				return nil, fmt.Errorf("%w: duplicate external id %q", ErrInvalidOptions, d.ID)
			}
		}
	}
	next, err := live.Append(cur, liveConfigOf(bases[0]), baseDocs, docs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	return next, nil
}

// Ingest appends documents to the client's in-memory delta segment; they
// are searchable by the time the call returns — scored under merged
// base+delta collection statistics, bit-identical to a rebuilt index —
// and survive into the next compaction. The batch is atomic: a duplicate
// external id (against base and delta alike) or a segment past its
// capacity (WithDeltaCapacity) admits nothing. docs is not retained.
func (c *Client) Ingest(ctx context.Context, docs []Document) (IngestStats, error) {
	start := time.Now()
	st, err := c.ingest(ctx, docs)
	c.obs.ingest(start, len(docs), st.DeltaDocs, c.shardCount(), err)
	return st, err
}

func (c *Client) ingest(ctx context.Context, docs []Document) (IngestStats, error) {
	if err := c.ready(ctx); err != nil {
		return IngestStats{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return IngestStats{}, ErrClosed
	}
	cur := c.cur()
	out := IngestStats{
		DeltaDocs:  cur.delta.NumDocs(),
		DeltaBytes: cur.delta.Bytes(),
		Generation: cur.gen,
	}
	if len(docs) == 0 {
		return out, nil
	}
	next, err := admitIngest(cur.delta, c.deltaCap, []*core.System{cur.sys}, cur.sys.Collection.Len(), docs)
	if err != nil {
		return out, err
	}
	c.st.Store(newClientState(cur.sys, next, cur.gen))
	c.maybeAutoCompactLocked(next.NumDocs())
	return IngestStats{
		Ingested:   len(docs),
		DeltaDocs:  next.NumDocs(),
		DeltaBytes: next.Bytes(),
		Generation: cur.gen,
	}, nil
}

// Compact folds the delta segment into a fresh base generation — the
// merged collection and index a cold rebuild would produce — and swaps it
// in with zero downtime: requests that pinned the old state finish on it,
// new requests see the compacted one, and search results are identical
// before and after. An empty delta is a successful no-op with the
// generation unchanged; a real compaction advances it and starts the
// expansion cache cold (the knowledge graph is untouched, so cached
// expansions are merely recomputed, never wrong).
func (c *Client) Compact(ctx context.Context) (CompactStats, error) {
	start := time.Now()
	cs, err := c.compactState(ctx)
	c.obs.compact(start, cs.Compacted, cs.Generation, c.shardCount(), err)
	return cs, err
}

func (c *Client) compactState(ctx context.Context) (CompactStats, error) {
	if err := c.ready(ctx); err != nil {
		return CompactStats{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.compactLocked()
}

// compactLocked does the fold-and-swap; callers hold mu.
//
//qlint:locked mu
func (c *Client) compactLocked() (CompactStats, error) {
	if c.closed.Load() {
		return CompactStats{}, ErrClosed
	}
	cur := c.cur()
	if cur.delta.NumDocs() == 0 {
		return CompactStats{Documents: cur.sys.Collection.Len(), Generation: cur.gen}, nil
	}
	arch, err := mergedArchive(cur, c.queries)
	if err != nil {
		return CompactStats{Generation: cur.gen}, err
	}
	sys, _, err := core.SystemFromArchive(arch, c.sysOpts...)
	if err != nil {
		return CompactStats{Generation: cur.gen}, err
	}
	next := newClientState(sys, nil, cur.gen+1)
	c.st.Store(next)
	c.compactions.Add(1)
	return CompactStats{
		Compacted:  cur.delta.NumDocs(),
		Documents:  sys.Collection.Len(),
		Generation: next.gen,
	}, nil
}

// maybeAutoCompactLocked launches one background compaction when the
// segment has reached the WithAutoCompact threshold; at most one runs at
// a time and the triggering Ingest returns immediately. Callers hold mu.
//
//qlint:locked mu
func (c *Client) maybeAutoCompactLocked(deltaDocs int) {
	if c.autoCompact <= 0 || deltaDocs < c.autoCompact {
		return
	}
	if !c.compacting.CompareAndSwap(false, true) {
		return
	}
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		defer c.compacting.Store(false)
		start := time.Now()
		cs, err := func() (CompactStats, error) {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.compactLocked()
		}()
		c.obs.compact(start, cs.Compacted, cs.Generation, c.shardCount(), err)
	}()
}
