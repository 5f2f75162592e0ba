package querygraph

import (
	"fmt"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/live"
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
