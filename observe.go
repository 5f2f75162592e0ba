package querygraph

import (
	"context"
	"errors"
	"time"
)

// Observer is the instrumentation seam of the serving runtimes: attach one
// with WithObserver and its hooks fire on every request path of a Client
// or Pool — single and batch, cached and uncached, success and failure —
// plus every Pool reload. Hooks are called synchronously on the request
// goroutine after the work completes (including the fast-failure paths:
// dead context, closed backend, invalid options), so implementations must
// be cheap and safe for concurrent use. MetricsObserver is the built-in
// counter implementation.
type Observer interface {
	// ObserveSearch fires after every single-query retrieval:
	// Search and SearchExpansion on both runtimes.
	ObserveSearch(SearchObservation)
	// ObserveExpand fires after every single-query expansion: Expand on
	// both runtimes (per-item expansions inside ExpandAll surface through
	// ObserveBatch, not here).
	ObserveExpand(ExpandObservation)
	// ObserveBatch fires after every batch entry point: SearchAll,
	// ExpandAll and SearchExpansions on both runtimes.
	ObserveBatch(BatchObservation)
	// ObserveReload fires after every Pool.Reload, successful or not
	// (a Client never emits it).
	ObserveReload(ReloadObservation)
}

// SearchObservation describes one completed single-query retrieval.
type SearchObservation struct {
	// Duration is the request's wall time inside the backend.
	Duration time.Duration
	// K is the requested ranking depth (<= 0 ranks every candidate).
	K int
	// Shards is the serving generation's shard count (1 on a Client,
	// 0 when the request failed before pinning a generation: a closed
	// backend or a done context).
	Shards int
	// Expanded is true when the request evaluated an expansion
	// (SearchExpansion) rather than raw query text (Search).
	Expanded bool
	// Err is the request's error class ("" on success); see ErrorClass.
	Err string
}

// ExpandObservation describes one completed single-query expansion.
type ExpandObservation struct {
	Duration time.Duration
	// Cache is how the expansion cache served the request: hit, miss,
	// single-flight dedup, or bypass when caching is disabled.
	Cache CacheOutcome
	// Features is the number of expansion features returned (0 on error).
	Features int
	Shards   int
	Err      string
}

// Batch kinds reported in BatchObservation.Kind.
const (
	BatchSearch           = "search"
	BatchExpand           = "expand"
	BatchSearchExpansions = "search_expansions"
)

// BatchObservation describes one completed batch entry point.
type BatchObservation struct {
	// Kind is the batch's operation: BatchSearch (SearchAll), BatchExpand
	// (ExpandAll) or BatchSearchExpansions (SearchExpansions).
	Kind string
	// Size is the number of items submitted in the batch.
	Size int
	// K is the ranking depth for retrieval batches (0 for ExpandAll).
	K        int
	Shards   int
	Duration time.Duration
	Err      string
}

// ReloadObservation describes one Pool.Reload attempt.
type ReloadObservation struct {
	Duration time.Duration
	// Generation is the sequence number now being served — the new
	// generation's on success, the untouched old one's on failure.
	Generation uint64
	// Shards is the shard count now being served.
	Shards int
	Err    string
}

// RPCObservation describes one completed shard RPC attempt of the remote
// coordinator (*Remote): every attempt is observed individually — first
// tries, retries and hedges alike — so per-shard latency and failure
// structure are visible even when the request as a whole succeeds.
type RPCObservation struct {
	// Shard is the target shard's id; Addr the address this attempt hit.
	Shard int
	Addr  string
	// Op is the protocol operation ("plan", "topk", "expand", ...).
	Op string
	// Duration is the attempt's wall time including connection checkout.
	Duration time.Duration
	// Attempt numbers the tries within one logical call (0 = first).
	Attempt int
	// Hedged is true for a speculative replica request launched because
	// the primary exceeded the hedge threshold.
	Hedged bool
	// DeadlineHit is true when the attempt failed on its per-shard
	// deadline (the hanging-shard signal).
	DeadlineHit bool
	// Err is the attempt's error class ("" on success); see ErrorClass.
	Err string
}

// RPCObserver is an optional extension of Observer: implementations that
// also want per-shard RPC attempts (latency, retries, hedges, deadline
// hits) implement it and are fed by the remote coordinator. Plain
// Observers are untouched — the coordinator type-asserts per observer.
type RPCObserver interface {
	ObserveRPC(RPCObservation)
}

// IngestObservation describes one completed Backend.Ingest call,
// successful or not (a rejected batch — duplicate external id, full
// delta, closed backend — observes with Docs = the submitted size and
// DeltaDocs unchanged).
type IngestObservation struct {
	Duration time.Duration
	// Docs is the number of documents submitted in this call.
	Docs int
	// DeltaDocs is the delta segment's document count after the call.
	DeltaDocs int
	Shards    int
	Err       string
}

// CompactObservation describes one completed compaction — admin-
// triggered (Backend.Compact) or fired by the auto-compactor
// (WithAutoCompact). An empty delta compacts as a successful no-op with
// Compacted = 0 and the generation unchanged.
type CompactObservation struct {
	Duration time.Duration
	// Compacted is the number of delta documents folded into the new
	// generation.
	Compacted int
	// Generation is the sequence number now being served — the new
	// generation's on success, the untouched old one's on failure.
	Generation uint64
	Shards     int
	Err        string
}

// LiveObserver is an optional extension of Observer for the live-index
// write path: implementations that also want ingest and compaction
// telemetry implement it and are fed by Client and Pool. Plain Observers
// are untouched — the runtimes type-assert per observer, like
// RPCObserver.
type LiveObserver interface {
	ObserveIngest(IngestObservation)
	ObserveCompact(CompactObservation)
}

// ingest feeds one Ingest call to every attached observer that opted
// into LiveObserver.
func (os observers) ingest(start time.Time, docs, deltaDocs, shards int, err error) {
	if len(os) == 0 {
		return
	}
	obs := IngestObservation{
		Duration:  time.Since(start),
		Docs:      docs,
		DeltaDocs: deltaDocs,
		Shards:    shards,
		Err:       ErrorClass(err),
	}
	for _, o := range os {
		if lo, ok := o.(LiveObserver); ok {
			lo.ObserveIngest(obs)
		}
	}
}

// compact feeds one compaction to every attached observer that opted
// into LiveObserver.
func (os observers) compact(start time.Time, compacted int, generation uint64, shards int, err error) {
	if len(os) == 0 {
		return
	}
	obs := CompactObservation{
		Duration:   time.Since(start),
		Compacted:  compacted,
		Generation: generation,
		Shards:     shards,
		Err:        ErrorClass(err),
	}
	for _, o := range os {
		if lo, ok := o.(LiveObserver); ok {
			lo.ObserveCompact(obs)
		}
	}
}

// rpc feeds one RPC attempt to every attached observer that opted into
// RPCObserver. Unlike the Observe* hooks this is per attempt, not per
// request — it deliberately does not count toward the one-hook contract
// of the query-path methods.
func (os observers) rpc(start time.Time, shardID int, addr, op string, attempt int, hedged bool, err error) {
	if len(os) == 0 {
		return
	}
	obs := RPCObservation{
		Shard:       shardID,
		Addr:        addr,
		Op:          op,
		Duration:    time.Since(start),
		Attempt:     attempt,
		Hedged:      hedged,
		DeadlineHit: errors.Is(err, context.DeadlineExceeded),
		Err:         ErrorClass(err),
	}
	for _, o := range os {
		if ro, ok := o.(RPCObserver); ok {
			ro.ObserveRPC(obs)
		}
	}
}

// ErrorClass maps an error from the serving API onto a small, stable label
// set for instrumentation: "" (success), "timeout", "canceled", "closed",
// "invalid_query", "invalid_options", "bad_manifest", "bad_snapshot",
// "no_benchmark", "bad_topology", "shard_unavailable", "partial_result",
// "read_only", "delta_full", or "internal" for anything else. Every
// sentinel in errors.go has a class of its own — TestErrorClassTaxonomy
// parses the sentinel declarations and fails when a new sentinel is added
// without classifying it here — and the classes mirror the HTTP error
// model cmd/qserve serves.
func ErrorClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, ErrClosed):
		return "closed"
	case errors.Is(err, ErrInvalidQuery):
		return "invalid_query"
	case errors.Is(err, ErrInvalidOptions):
		return "invalid_options"
	case errors.Is(err, ErrBadManifest):
		return "bad_manifest"
	case errors.Is(err, ErrBadSnapshot):
		return "bad_snapshot"
	case errors.Is(err, ErrNoBenchmark):
		return "no_benchmark"
	case errors.Is(err, ErrBadTopology):
		return "bad_topology"
	case errors.Is(err, ErrShardUnavailable):
		return "shard_unavailable"
	case errors.Is(err, ErrPartialResult):
		return "partial_result"
	case errors.Is(err, ErrReadOnly):
		return "read_only"
	case errors.Is(err, ErrDeltaFull):
		return "delta_full"
	default:
		return "internal"
	}
}

// observers is the fan-out list a runtime carries; every hook helper is a
// no-op on an empty list, so an uninstrumented backend pays only a
// time.Now per request.
type observers []Observer

func (os observers) search(start time.Time, k, shards int, expanded bool, err error) {
	if len(os) == 0 {
		return
	}
	obs := SearchObservation{
		Duration: time.Since(start),
		K:        k,
		Shards:   shards,
		Expanded: expanded,
		Err:      ErrorClass(err),
	}
	for _, o := range os {
		o.ObserveSearch(obs)
	}
}

func (os observers) expand(start time.Time, outcome CacheOutcome, exp *Expansion, shards int, err error) {
	if len(os) == 0 {
		return
	}
	obs := ExpandObservation{
		Duration: time.Since(start),
		Cache:    outcome,
		Shards:   shards,
		Err:      ErrorClass(err),
	}
	if exp != nil {
		obs.Features = len(exp.Features)
	}
	for _, o := range os {
		o.ObserveExpand(obs)
	}
}

func (os observers) batch(start time.Time, kind string, size, k, shards int, err error) {
	if len(os) == 0 {
		return
	}
	obs := BatchObservation{
		Kind:     kind,
		Size:     size,
		K:        k,
		Shards:   shards,
		Duration: time.Since(start),
		Err:      ErrorClass(err),
	}
	for _, o := range os {
		o.ObserveBatch(obs)
	}
}

func (os observers) reload(start time.Time, generation uint64, shards int, err error) {
	if len(os) == 0 {
		return
	}
	obs := ReloadObservation{
		Duration:   time.Since(start),
		Generation: generation,
		Shards:     shards,
		Err:        ErrorClass(err),
	}
	for _, o := range os {
		o.ObserveReload(obs)
	}
}
