// Allocation regression tests are meaningless under the race detector —
// its instrumentation allocates on paths that are clean in normal builds.
//go:build !race

package querygraph

import (
	"context"
	"testing"
)

// TestPoolSearchIntoSteadyStateAllocs pins the pooled multi-source
// scorer on a 4-shard Pool: with the query's leaves in shard 0's cache
// and dst recycled, SearchInto allocates nothing — both over the shards
// alone and with a live delta segment scored as a fifth source.
func TestPoolSearchIntoSteadyStateAllocs(t *testing.T) {
	ctx := context.Background()
	client := poolTestWorld(t, 0)
	defer client.Close()
	pool, _ := shardedPool(t, client, 4)
	defer pool.Close()
	query := client.Queries()[0].Keywords
	dst := make([]Result, 0, 16)

	measure := func(state string) {
		t.Helper()
		if _, err := pool.SearchInto(ctx, query, 10, dst); err != nil { // warm
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(500, func() {
			rs, err := pool.SearchInto(ctx, query, 10, dst)
			if err != nil || len(rs) == 0 {
				t.Fatal("unexpected result", rs, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Pool.SearchInto steady state allocates %v per op, want 0", state, allocs)
		}
	}
	measure("shards only")

	doc := Document{
		Name:  "alloc-probe.jpg",
		Texts: []DocumentText{{Lang: "en", Description: query}},
	}
	if _, err := pool.Ingest(ctx, []Document{doc}); err != nil {
		t.Fatal(err)
	}
	measure("shards+delta")
}
