package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef names one reported metric. base says what a ratio or a
// per-unit figure is taken over, for the layer table.
type metricDef struct {
	name, unit, better, base string
}

// endToEnd are the metrics a user of the system sees, printed on every
// workload with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "median of the run's set-ups"},
	{"search_s", "s", "lower", "median BIG_LOOP wall time"},
	{"heldout_nll", "nats/row", "lower", "10k held-out rows"},
	{"p50_ms", "ms", "lower", "the workload's unit of work: a search, or a predict request"},
	{"peak_rss_mb", "MB", "lower", "process peak resident set"},
}

// perLayer are the traced run's metrics, printed on every workload with
// --trace 1. A layer the workload bypasses reports 0.
var perLayer = []metricDef{
	{"model.logprob_ns_per_row_class", "ns", "lower", "rows x classes at final J"},
	{"model.stats_ns_per_row_class", "ns", "lower", "rows x classes at final J"},
	{"model.bytes_per_row_computed", "B", "lower", "one row, both kernel passes, all classes"},
	{"em.cycles", "count", "lower", "one search"},
	{"em.row_class_cycles", "count", "lower", "one search"},
	{"em.wts_s", "s", "lower", "one search, all tries"},
	{"em.params_s", "s", "lower", "one search, all tries"},
	{"em.approx_s", "s", "lower", "one search, all tries"},
	{"em.row_class_cycles_per_s", "1/s", "higher", "EM phase seconds"},
	{"sched.tries", "count", "lower", "one search"},
	{"sched.busy_s", "s", "lower", "sum of try durations"},
	{"sched.longest_try_s", "s", "lower", "one try"},
	{"sched.idle_frac", "frac", "lower", "workers x search wall"},
	{"mpi.messages", "count", "lower", "one search, both ranks"},
	{"mpi.bytes_sent", "B", "lower", "one search, both ranks"},
	{"mpi.collectives", "count", "lower", "one search, rank 0"},
	{"mpi.send_s", "s", "lower", "one search, both ranks"},
	{"mpi.recv_wait_s", "s", "lower", "one search, both ranks"},
	{"mpi.allreduce_us", "us", "lower", "one Allreduce at packed-stats size"},
	{"mpi.allreduce_allocs", "count", "lower", "one Allreduce, both ranks"},
	{"spmd.rank_skew", "ratio", "lower", "max / min rank busy time"},
	{"chunk.loads", "count", "lower", "one search"},
	{"chunk.hits", "count", "higher", "one search"},
	{"chunk.evictions", "count", "lower", "one search"},
	{"chunk.hit_ratio", "frac", "higher", "chunk acquires"},
	{"chunk.resident_high_water", "count", "lower", "chunks"},
	{"chunk.scan_mb_per_s", "MB/s", "higher", "cursor pass under the budget"},
	{"serve.p99_ms", "ms", "lower", "untraced nominal-rate requests"},
	{"serve.max_rps_at_slo", "1/s", "higher", "p99 <= 10 ms, nothing failed or refused"},
	{"serve.requests", "count", "higher", "traced load window"},
	{"serve.failed", "count", "lower", "traced load window"},
	{"serve.rejected", "count", "lower", "traced load window"},
	{"serve.hit_p50_ms", "ms", "lower", "cache-hit requests"},
	{"serve.miss_p50_ms", "ms", "lower", "cache-miss requests"},
	{"serve.miss_p99_ms", "ms", "lower", "cache-miss requests"},
	{"serve.cache_hit_ratio", "frac", "higher", "predict requests"},
	{"serve.batch_rows_mean", "rows", "higher", "scored batches"},
	{"serve.batch_reqs_mean", "count", "higher", "scored batches"},
	{"serve.queue_depth_max", "count", "lower", "traced load window"},
	{"serve.score_ms_per_req", "ms", "lower", "Predictor.Predict on a 128-row body"},
	{"serve.bytes_per_resp", "B", "lower", "200 responses"},
	{"serve.generator_late_p99_ms", "ms", "lower", "send time minus due time"},
	{"trace.overhead_frac", "frac", "lower", "untraced end-to-end figure"},
	{"layers.residual_frac", "frac", "lower", "wall time of the workload's job"},
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report builds the result line from the measured values: every metric of
// defs, in their units. A missing or non-finite value is an error — the
// benchmark never prints a figure it did not measure.
func report(defs []metricDef, vals map[string]float64, correct bool, attempted, failed int) (result, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s not measured (%v)", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if !hasMetric(defs, name) {
			return r, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return r, nil
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// printTable writes the layer table of one workload: every metric with its
// value, unit and base, grouped by layer prefix.
func printTable(w io.Writer, workload string, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(w, "== %s\n", workload)
	last := ""
	for _, d := range defs {
		layer := d.name
		if i := strings.IndexByte(layer, '.'); i >= 0 {
			layer = layer[:i]
		}
		if layer != last {
			fmt.Fprintf(w, "  [%s]\n", layer)
			last = layer
		}
		fmt.Fprintf(w, "    %-32s %14.6g %-6s per %s\n", d.name, vals[d.name], d.unit, d.base)
	}
}

func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
