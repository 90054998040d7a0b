// Command perfbench is the repository's benchmark: three workloads — the
// in-memory BIG_LOOP search, the SPMD out-of-core search over loopback TCP,
// and the pautoclassd predict tier under open-loop load — each printing its
// end-to-end metrics, or with --trace 1 the per-layer metrics of a traced
// run, as one JSON line. BENCHMARK.json gates spmd-ooc and serve; search
// runs by hand and in the layer table. See README.md for the definitions.
//
//	perfbench --workload search --seed 1 --seconds 30 --trace 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// buildDir, relative to the checkout the benchmark runs in, holds its
// build, scratch files and spans; nothing is written outside it.
const buildDir = ".bench_build"

// setupRuns is the number of set-ups per run; setup_s is their median.
const setupRuns = 5

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	table    bool
	workdir  string // scratch files, removed at exit
	spansDir string // traced runs write their spans here
}

// outcomeSet gathers a run's measured values and operation accounting.
type outcomeSet struct {
	vals      map[string]float64
	attempted int
	failed    int
	firstErr  error
}

// fail counts a failed operation; the first cause is kept for stderr.
func (r *outcomeSet) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

var workloads = map[string]func(*options) (*outcomeSet, error){
	"search":   runSearch,
	"spmd-ooc": runSPMD,
	"serve":    runServe,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "search, spmd-ooc or serve")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement window in seconds")
	traceN := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.BoolVar(&o.table, "table", false, "with --trace 1, also print the layer table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if *traceN != 0 && *traceN != 1 {
		return errors.New("--trace takes 0 or 1")
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	o.trace = *traceN == 1
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	var err error
	if o.workdir, err = os.MkdirTemp(buildDir, "work-"); err != nil {
		return err
	}
	defer os.RemoveAll(o.workdir)
	o.spansDir = filepath.Join(buildDir, "spans")

	res, err := w(o)
	if err != nil {
		return err
	}
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", res.failed, res.attempted, res.firstErr)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		if o.table {
			printTable(os.Stdout, o.workload, defs, res.vals)
		}
	}
	r, err := report(defs, res.vals, res.failed == 0, res.attempted, res.failed)
	if err != nil {
		return err
	}
	return writeResult(os.Stdout, r)
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
