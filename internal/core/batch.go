package core

import (
	"context"
	"fmt"
)

// BatchOptions bounds the concurrency of the batch serving layer.
type BatchOptions struct {
	// Workers bounds the parallel fan-out over the batch; <= 0 means
	// GOMAXPROCS.
	Workers int
}

// ExpandAll runs the online expansion pipeline for every keyword query on
// a bounded worker pool and returns the expansions in input order. Lookups
// go through the system's expansion cache, so batches with repeated
// keywords (the heavy-traffic case) are served from memory; returned
// Expansions may be shared and must be treated as read-only. The first
// error stops scheduling of the remaining queries and is returned;
// cancelling ctx stops scheduling the same way and returns ctx.Err().
func (s *System) ExpandAll(ctx context.Context, keywords []string, eopts ExpanderOptions, opts BatchOptions) ([]*Expansion, error) {
	out := make([]*Expansion, len(keywords))
	err := forEachQuery(ctx, len(keywords), opts.Workers, func(i int) error {
		exp, err := s.Expand(ctx, keywords[i], eopts)
		if err != nil {
			return fmt.Errorf("core: expand %q: %w", keywords[i], err)
		}
		out[i] = exp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ExpandCacheStats reports the expansion cache's hit/miss counters and
// occupancy (all zero when the cache is disabled).
func (s *System) ExpandCacheStats() CacheStats {
	return s.expandCache.stats()
}
