// Command benchmark is the repository's end-to-end and per-layer benchmark.
// For one seed it generates a world about 50x the default (400 topics,
// 80k documents, ~40 MiB snapshot), writes it as a snapshot and as a
// 4-shard manifest, runs one workload in a closed loop against the public
// querygraph.Backend and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 a separate run replays the same op sequence on one worker,
// timing the calls into each layer's public functions from this package,
// and reports the per-layer metrics. Any output-check failure makes the
// command exit 1. See README.md for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload expand-cold --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// Workload names.
const (
	expandCold   = "expand-cold"
	searchZipf   = "search-zipf"
	ingestSearch = "ingest-search"
)

var workloads = []string{expandCold, searchZipf, ingestSearch}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workDir  string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run reports: the metrics, the op ledger and the
// output checks. Any failed check makes the run incorrect.
type outcome struct {
	metrics   map[string]metric
	order     []string
	attempted int64
	failed    int64
	checks    []check
	notes     []string
}

type check struct {
	name   string
	ok     bool
	detail string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name, unit string, v float64) {
	if _, ok := o.metrics[name]; !ok {
		o.order = append(o.order, name)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool {
	if o.failed != 0 {
		return false
	}
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

func main() {
	// One P: the collector's workers then share the measuring worker's
	// core instead of racing it on the other one, so how much of the
	// marking an op does itself no longer depends on how fast the other
	// core runs. With two, expand-cold's median op spread 13% between runs
	// against 3% with one.
	runtime.GOMAXPROCS(1)
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	out, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !out.correct() {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: expand-cold, search-zipf or ingest-search")
	seed := fs.Int64("seed", 1, "seed of the world and of every op stream")
	seconds := fs.Int("seconds", 12, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the untraced workload")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "benchmark"), "directory for generated artifacts and span files")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	switch {
	case !known:
		return config{}, fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloads)
	case *seconds < 1:
		return config{}, fmt.Errorf("-seconds must be >= 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		return config{}, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	return config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		workDir:  *workDir,
	}, nil
}

// run prepares the fixture, runs the workload and prints the report; the
// run's own directory is removed before returning.
func run(cfg config, w io.Writer) (*outcome, error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	fx, err := newFixture(cfg.workDir, dir, cfg.seed)
	if err != nil {
		return nil, err
	}
	fixtureTime := time.Since(start)
	runtime.GC()

	var out *outcome
	if cfg.trace {
		out, err = runTraced(cfg, fx)
	} else {
		out, err = runWorkload(cfg, fx)
	}
	if err != nil {
		return nil, err
	}
	if err := report(w, cfg, fx, fixtureTime, out); err != nil {
		return nil, err
	}
	return out, nil
}

func runWorkload(cfg config, fx *fixture) (*outcome, error) {
	switch cfg.workload {
	case expandCold:
		return runExpandCold(cfg, fx)
	case searchZipf:
		return runSearchZipf(cfg, fx)
	case ingestSearch:
		return runIngestSearch(cfg, fx)
	}
	return nil, errors.New("unreachable")
}

// runMeta is printed with every result.
type runMeta struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	HostCPUs   int       `json:"host_cpus"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	FixtureS   float64   `json:"fixture_s"`
	WorldCache bool      `json:"world_cached"`
	World      worldMeta `json:"world"`
}

// commit is the VCS revision stamped into the binary by go build, or
// "unknown" when the source tree is not a git checkout.
func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func report(w io.Writer, cfg config, fx *fixture, fixtureTime time.Duration, out *outcome) error {
	meta := runMeta{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds.Seconds(),
		Trace:      cfg.trace,
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		FixtureS:   fixtureTime.Seconds(),
		WorldCache: fx.cached,
		World:      fx.meta,
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "meta %s\n", mb)
	for _, n := range out.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, c := range out.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %-28s %-4s %s\n", c.name, status, c.detail)
	}
	for _, name := range out.order {
		m := out.metrics[name]
		line := fmt.Sprintf("metric %-30s %14s %-6s", name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
		if moves, ok := layerMoves[name]; ok && cfg.trace {
			line += "  moves " + moves
		}
		fmt.Fprintln(w, line)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.correct(), out.attempted, out.failed, out.metrics}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", rb)
	return err
}
