package querygraph

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// sentinelClasses is the full taxonomy: every public sentinel and the
// stable ErrorClass label instrumentation sees for it. Adding a
// sentinel to errors.go without extending this table (and ErrorClass)
// fails TestErrorClassTaxonomy, so the Observer label set can never
// silently lag the error surface.
var sentinelClasses = map[string]struct {
	err   error
	class string
}{
	"ErrBadSnapshot":      {ErrBadSnapshot, "bad_snapshot"},
	"ErrInvalidOptions":   {ErrInvalidOptions, "invalid_options"},
	"ErrInvalidQuery":     {ErrInvalidQuery, "invalid_query"},
	"ErrNoBenchmark":      {ErrNoBenchmark, "no_benchmark"},
	"ErrBadManifest":      {ErrBadManifest, "bad_manifest"},
	"ErrClosed":           {ErrClosed, "closed"},
	"ErrBadTopology":      {ErrBadTopology, "bad_topology"},
	"ErrShardUnavailable": {ErrShardUnavailable, "shard_unavailable"},
	"ErrPartialResult":    {ErrPartialResult, "partial_result"},
	"ErrReadOnly":         {ErrReadOnly, "read_only"},
	"ErrDeltaFull":        {ErrDeltaFull, "delta_full"},
}

// declaredSentinels parses errors.go and returns every package-level
// Err* variable it declares — the mechanical source of truth the
// taxonomy is checked against.
func declaredSentinels(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errors.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing errors.go: %v", err)
	}
	var names []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if len(name.Name) > 3 && name.Name[:3] == "Err" {
					names = append(names, name.Name)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("errors.go declares no Err* sentinels; the parser or the file moved")
	}
	return names
}

// TestErrorClassTaxonomy pins the sentinel → ErrorClass mapping both
// ways: every sentinel declared in errors.go must be classified (new
// sentinels fail until a class is chosen), every table entry must still
// be declared, classes must be distinct, never "internal"/"", and
// wrapping must not change the class.
func TestErrorClassTaxonomy(t *testing.T) {
	declared := declaredSentinels(t)

	seen := make(map[string]bool)
	for _, name := range declared {
		entry, ok := sentinelClasses[name]
		if !ok {
			t.Errorf("sentinel %s is declared in errors.go but not classified: add it to sentinelClasses and to ErrorClass (and metricClasses)", name)
			continue
		}
		seen[name] = true

		if got := ErrorClass(entry.err); got != entry.class {
			t.Errorf("ErrorClass(%s) = %q, want %q", name, got, entry.class)
		}
		wrapped := fmt.Errorf("outer: %w", fmt.Errorf("%w: detail", entry.err))
		if got := ErrorClass(wrapped); got != entry.class {
			t.Errorf("ErrorClass(wrapped %s) = %q, want %q — wrapping must not change the class", name, got, entry.class)
		}
		if entry.class == "internal" || entry.class == "" {
			t.Errorf("%s maps to %q; every sentinel needs a class of its own", name, entry.class)
		}
	}
	for name := range sentinelClasses {
		if !seen[name] {
			t.Errorf("sentinelClasses entry %s is not declared in errors.go; remove it", name)
		}
	}

	// Classes are distinct labels (a shared label would make two error
	// surfaces indistinguishable in metrics).
	byClass := make(map[string]string)
	for name, entry := range sentinelClasses {
		if prev, dup := byClass[entry.class]; dup {
			t.Errorf("sentinels %s and %s share class %q", prev, name, entry.class)
		}
		byClass[entry.class] = name
	}

	// Every sentinel class is a metrics label: classIndex must resolve
	// it to its own counter slot, not the catch-all internal slot.
	for name, entry := range sentinelClasses {
		if metricClasses[classIndex(entry.class)] != entry.class {
			t.Errorf("class %q (sentinel %s) is missing from metricClasses: its errors would be counted as internal", entry.class, name)
		}
	}

	// The non-sentinel classes stay pinned too.
	fixed := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{context.DeadlineExceeded, "timeout"},
		{context.Canceled, "canceled"},
		{errors.New("anything else"), "internal"},
	}
	for _, tc := range fixed {
		if got := ErrorClass(tc.err); got != tc.want {
			t.Errorf("ErrorClass(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestFlattenFailureIsInvalidQuery: a query that parses but cannot be
// flattened into scoring leaves — an all-zero #weight — is the caller's
// fault on every runtime and every text entry point: ErrInvalidQuery
// (class invalid_query, HTTP 400), never an internal error.
func TestFlattenFailureIsInvalidQuery(t *testing.T) {
	ctx := context.Background()
	client, dir := shardedWorld(t)
	pool, err := OpenPool(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	topo, _ := startShardFleet(t, dir, 2, nil)
	remote, err := OpenBackend(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	const bad = "#weight(0 x)"
	good := client.Queries()[0].Keywords
	for _, be := range []struct {
		name string
		b    Backend
	}{{"client", client}, {"pool-2", pool}, {"remote-2", remote}} {
		for _, op := range []struct {
			name string
			call func() error
		}{
			{"Search", func() error { _, err := be.b.Search(ctx, bad, 5); return err }},
			{"SearchInto", func() error { _, err := be.b.SearchInto(ctx, bad, 5, nil); return err }},
			{"SearchAll", func() error {
				_, err := be.b.SearchAll(ctx, []string{good, bad}, 5, BatchOptions{})
				return err
			}},
		} {
			err := op.call()
			if !errors.Is(err, ErrInvalidQuery) || ErrorClass(err) != "invalid_query" {
				t.Errorf("%s.%s(%q): err = %v (class %q), want ErrInvalidQuery",
					be.name, op.name, bad, err, ErrorClass(err))
			}
		}
	}
}
