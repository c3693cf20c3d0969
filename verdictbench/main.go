// Command verdictbench is the repository's end-to-end benchmark.
//
// Its user is a verification engineer who hands the system one property
// at a time and waits for the verdict. A single process runs a closed
// loop with one check in flight: each check parses its .aag input the
// way cmd/bmc does, opens an engine session, and calls Session.Check;
// the verdict and K are compared with the ground truth in bench.Model.
// The seed permutes the order of the checks within each pass.
//
// With -trace 0 the run reports the end-to-end metrics (checks_per_s,
// verdict_s.p50, setup_s, peak_rss_mb). With -trace 1 it runs the same
// checks with the engine's metrics, tracer and progress stream attached
// and reports the per-layer metrics, measured from outside the program,
// plus a Chrome trace of the first traced pass. The last line of
// standard output is always one JSON object:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash verdictbench/run.sh --workload regress --seed 1 --seconds 30 --trace 0
//	bash verdictbench/run.sh --workload all --seconds 30
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "verdictbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: regress, search, warm-race or remote-wire")
		seed    = flag.Uint64("seed", 1, "seed of the check order within each pass")
		seconds = flag.Int("seconds", 30, "length of the check phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		out     = flag.String("out", ".bench_build/verdictbench", "directory for the generated inputs and the Chrome trace")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	dir := filepath.Join(*out, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r, err := newRunner(w, dir)
	if err != nil {
		return err
	}

	ctx := context.Background()
	var rp *report
	if *trace == 1 {
		rp, err = r.traced(ctx, *seed, filepath.Join(*out, "trace-"+w.name+".json"))
	} else {
		rp, err = r.measure(ctx, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		return err
	}
	for _, l := range rp.lines {
		fmt.Println(l)
	}
	for _, b := range rp.broken {
		fmt.Fprintln(os.Stderr, "verdictbench: SEARCH IDENTITY BROKEN:", b)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rp.failed == 0 && len(rp.broken) == 0, rp.attempted, rp.failed, rp.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// sortedNames lists a report's metric names in order.
func sortedNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}
