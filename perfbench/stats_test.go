package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// A percentile is refused unless at least ten samples lie beyond it.
func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64
		report bool
	}{
		{1000, 0.99, 990, true}, // 10 samples beyond
		{999, 0.99, 990, false}, // 9 beyond
		{100, 0.99, 99, false},
		{100, 0.90, 90, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, math.NaN(), false},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.q)
		if ok != c.report || (c.n > 0 && v != c.want) {
			t.Errorf("n=%d q=%v: got %v,%v want %v,%v", c.n, c.q, v, ok, c.want, c.report)
		}
		if r := reportable(seq(c.n), c.q); math.IsNaN(r) == c.report {
			t.Errorf("n=%d q=%v: reportable %v, want reported=%v", c.n, c.q, r, c.report)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}

// Latency runs from the due time: a request queued behind a stalled one
// is charged the stall even though its own round trip is instant, and the
// generator's lateness is reported.
func TestOpenLoopChargesFromDueTime(t *testing.T) {
	const stall = 40 * time.Millisecond
	ss := openLoop(1000, 10, 1, func(i int) (outcome, bool, int) {
		if i == 0 {
			time.Sleep(stall)
		}
		return outOK, false, 1
	})
	for i, s := range ss {
		if s.due != time.Duration(i)*time.Millisecond {
			t.Fatalf("request %d due at %v", i, s.due)
		}
		if s.sent < s.due {
			t.Fatalf("request %d sent before it was due", i)
		}
	}
	// Request 1 was due at 1 ms but could only go out after the stall.
	if l := ss[1].latencyMs(); l < ms(stall)-2 {
		t.Errorf("request 1 latency %.2f ms, want at least the %v stall it waited out", l, stall)
	}
	if late := ss[1].lateMs(); late < ms(stall)-2 {
		t.Errorf("request 1 lateness %.2f ms, want about %v", late, stall)
	}
}

func TestSummarizeSplitsOutcomes(t *testing.T) {
	var ss []sample
	for i := 0; i < 100; i++ {
		s := sample{due: time.Duration(i) * time.Millisecond}
		s.sent = s.due + 2*time.Millisecond // 2 ms late
		s.done = s.sent + time.Millisecond
		s.out = outOK
		s.hit = i%4 == 0
		s.bytes = 10
		ss = append(ss, s)
	}
	ss[5].out = outFailed
	ss[6].out = outRejected
	s := summarize(ss)
	if s.attempted != 100 || s.ok != 98 || s.failed != 1 || s.rejected != 1 {
		t.Fatalf("counts %+v", s)
	}
	if s.p50 != 3 {
		t.Errorf("p50 %v, want 3 ms (2 ms late + 1 ms round trip)", s.p50)
	}
	if !math.IsNaN(s.p99) {
		t.Errorf("p99 of 98 samples reported: %v", s.p99)
	}
	if s.finalLate != 2 || !math.IsNaN(s.lateP99) {
		t.Errorf("lateness final %v, p99 %v (100 samples: not reportable)", s.finalLate, s.lateP99)
	}
	if s.bytesPerResp != 10 {
		t.Errorf("bytes per response %v", s.bytesPerResp)
	}
	if s.meetsSLO(10) {
		t.Error("a rung with a failed and a refused request met the objective")
	}
}

// fakeRung is a summary with the given p99 and failure counts, large
// enough for the p99 to be reportable.
func fakeRung(p99 float64, failed, rejected int) loadSummary {
	return loadSummary{attempted: 2000, ok: 2000 - failed - rejected,
		failed: failed, rejected: rejected, p99: p99}
}

func TestClimbStopsAtFirstFailingRung(t *testing.T) {
	rates := []float64{100, 200, 300, 400}
	run := func(verdicts map[float64]loadSummary) (float64, []float64) {
		var ran []float64
		best, _ := climb(rates, 10, 1, func(r float64) loadSummary {
			ran = append(ran, r)
			return verdicts[r]
		})
		return best, ran
	}
	pass := fakeRung(5, 0, 0)

	// A rung over the latency limit ends the climb; the later rung that
	// would pass is never run.
	best, ran := run(map[float64]loadSummary{100: pass, 200: pass, 300: fakeRung(12, 0, 0), 400: pass})
	if best != 200 || len(ran) != 3 {
		t.Errorf("latency miss: best %v after %v", best, ran)
	}
	// One failed request counts as a miss, however fast the rest were.
	best, _ = run(map[float64]loadSummary{100: pass, 200: fakeRung(1, 1, 0), 300: pass, 400: pass})
	if best != 100 {
		t.Errorf("failed request: best %v, want 100", best)
	}
	// So does one refused request.
	best, _ = run(map[float64]loadSummary{100: fakeRung(1, 0, 1), 200: pass, 300: pass, 400: pass})
	if best != 0 {
		t.Errorf("refused request at the first rung: best %v, want 0", best)
	}
	// A rung whose p99 is not reportable fails.
	best, _ = run(map[float64]loadSummary{100: pass, 200: fakeRung(math.NaN(), 0, 0), 300: pass, 400: pass})
	if best != 100 {
		t.Errorf("unreportable p99: best %v, want 100", best)
	}
	// A backlog left at the end of the rung fails it.
	backlog := pass
	backlog.finalLate = 25
	best, _ = run(map[float64]loadSummary{100: pass, 200: pass, 300: backlog, 400: pass})
	if best != 200 {
		t.Errorf("backlog: best %v, want 200", best)
	}
}

func TestClimbRetriesARungWithinAttempts(t *testing.T) {
	calls := map[float64]int{}
	best, rungs := climb([]float64{100, 200, 300}, 10, 2, func(r float64) loadSummary {
		calls[r]++
		switch {
		case r == 200 && calls[r] == 1:
			return fakeRung(30, 0, 0) // a burst: first attempt misses
		case r == 300:
			return fakeRung(30, 0, 0)
		}
		return fakeRung(5, 0, 0)
	})
	if best != 200 || calls[200] != 2 || calls[300] != 2 || len(rungs) != 5 {
		t.Errorf("best %v calls %v rungs %d", best, calls, len(rungs))
	}
}

func TestLadderSteps(t *testing.T) {
	rs := ladder(1000, 2000, 1.07)
	for i := 1; i < len(rs); i++ {
		if rs[i]/rs[i-1] > 1.1 {
			t.Errorf("rungs %v and %v more than 10%% apart", rs[i-1], rs[i])
		}
	}
	for i := 1; i < len(rateLadder); i++ {
		if rateLadder[i] <= rateLadder[i-1] {
			t.Fatalf("ladder not ascending at %d", i)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// Every metric the benchmark emits is declared in BENCHMARK.json with the
// same unit and direction, and every declared metric is emitted.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d/%d metrics, the benchmark emits %d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d]: file %s/%s/%s, code %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d]: file %s/%s/%s, code %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	// Every gated workload exists; search runs only by hand (layers.sh).
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}

// The result line carries exactly the declared metrics: a missing or
// non-finite value, or an undeclared name, is refused.
func TestReportRefusesUndeclaredOrMissing(t *testing.T) {
	vals := map[string]float64{}
	for _, d := range endToEnd {
		vals[d.name] = 1
	}
	r, err := report(endToEnd, vals, true, 1, 0)
	if err != nil || len(r.Metrics) != len(endToEnd) {
		t.Fatalf("complete set refused: %v", err)
	}
	vals["p50_ms"] = math.NaN()
	if _, err := report(endToEnd, vals, true, 1, 0); err == nil {
		t.Error("NaN value accepted")
	}
	vals["p50_ms"] = 1
	vals["bogus"] = 1
	if _, err := report(endToEnd, vals, true, 1, 0); err == nil {
		t.Error("undeclared metric accepted")
	}
	delete(vals, "bogus")
	delete(vals, "setup_s")
	if _, err := report(endToEnd, vals, true, 1, 0); err == nil {
		t.Error("missing metric accepted")
	}
}
