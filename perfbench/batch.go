package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/autoclass"
	"repro/internal/dataset"
	"repro/internal/mpi"
)

// sloMs is the latency objective of max_rps_at_slo.
const sloMs = 10

// layerSources give the layer loops their communicator group and chunk
// file.
type layerSources interface {
	// allreduceComms returns a communicator group for the Allreduce loop
	// and a function releasing it.
	allreduceComms() ([]*mpi.Comm, func(), error)
	// chunkFile returns a chunk file of the training rows for the cursor
	// pass, and its size.
	chunkFile() (string, int64, error)
}

// batchJob is one batch workload's BIG_LOOP, set up and ready to time.
type batchJob interface {
	layerSources
	// search runs one BIG_LOOP. probe is nil on untraced runs.
	search(probe *searchProbe) (*autoclass.SearchResult, error)
	// newProbe returns a probe shaped for the job's workers and ranks.
	newProbe(tr *tracer) *searchProbe
	// layerFigures adds the job's own per-layer figures after a traced
	// search (transport, chunk store, rank balance).
	layerFigures(vals map[string]float64, probe *searchProbe) error
	// verify runs the workload's reference check on a search result.
	verify(res *autoclass.SearchResult) error
	close() error
}

// runBatch measures a batch workload: several set-ups (the median is
// setup_s), then BIG_LOOP searches for the whole window, each starting
// from a collected heap and checked to reproduce the first bit for bit.
// The search is the workload's unit of work, so its median wall time is
// both search_s and p50_ms. With trace set it instead alternates untraced
// and traced searches and reports the per-layer figures.
func runBatch(o *options, setup func(*inputs) (batchJob, error)) (*outcomeSet, error) {
	var job batchJob
	var in *inputs
	var setups []float64
	for k := 0; k < setupRuns; k++ {
		t0 := time.Now()
		var err error
		if in, err = makeInputs(o.seed); err != nil {
			return nil, err
		}
		if job, err = setup(in); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < setupRuns-1 {
			if err := job.close(); err != nil {
				return nil, err
			}
			runtime.GC() // the next set-up starts from a clean heap
		}
	}
	defer job.close()

	res := &outcomeSet{vals: map[string]float64{}}
	var first *autoclass.SearchResult
	check := func(r *autoclass.SearchResult) {
		res.attempted++
		if first == nil {
			first = r
			if err := job.verify(r); err != nil {
				res.fail(err)
			}
			return
		}
		if err := sameResult(r, first); err != nil {
			res.fail(err)
		}
	}

	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	if o.trace {
		return res, traceBatch(o, job, in, start.Add(window), check, res)
	}
	var walls []float64
	for len(walls) < 2 || time.Since(start) < window*19/20 {
		runtime.GC()
		t0 := time.Now()
		r, err := job.search(nil)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		check(r)
	}
	nll, err := heldoutNLL(first.Best, in.heldout)
	if err != nil {
		return nil, err
	}
	res.vals["setup_s"] = median(setups)
	res.vals["search_s"] = median(walls)
	res.vals["heldout_nll"] = nll
	res.vals["p50_ms"] = median(walls) * 1e3
	res.vals["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// traceBatch alternates untraced and traced searches until the window
// closes, then runs the benchmark-timed layer loops.
func traceBatch(o *options, job batchJob, in *inputs, end time.Time, check func(*autoclass.SearchResult), res *outcomeSet) error {
	tr := newTracer()
	var plain, traced []float64
	var probe *searchProbe
	var best *autoclass.Classification
	for i := 0; len(traced) < 2 || time.Now().Before(end); i++ {
		var p *searchProbe
		if i%2 == 1 {
			p = job.newProbe(tr)
			p.root = tr.open("search", int64(i), -1, time.Now())
		}
		t0 := time.Now()
		r, err := job.search(p)
		if err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		check(r)
		best = r.Best
		if p == nil {
			plain = append(plain, wall)
			continue
		}
		tr.close(p.root, time.Now())
		traced = append(traced, wall)
		probe = p
	}
	wall := traced[len(traced)-1]
	v := res.vals
	zeroLayers(v)
	tries, busy, longest, idle := probe.schedStats(wall)
	v["sched.tries"] = float64(tries)
	v["sched.busy_s"] = busy
	v["sched.longest_try_s"] = longest
	v["sched.idle_frac"] = idle
	wts, params, approx := probe.emSeconds(0)
	v["em.cycles"] = float64(probe.cycles)
	v["em.row_class_cycles"] = probe.rowClassCycles
	v["em.wts_s"], v["em.params_s"], v["em.approx_s"] = wts, params, approx
	v["em.row_class_cycles_per_s"] = probe.rowClassCycles / (wts + params + approx)
	// Every rank runs every try; the job's time in EM phases over all
	// ranks and workers, against the try time of all of them, leaves the
	// part of the job no layer accounts for.
	ranks := len(probe.profiles)
	emAll := 0.0
	for r := 0; r < ranks; r++ {
		w, p, a := probe.emSeconds(r)
		emAll += w + p + a
	}
	slots := float64(probe.workers * ranks)
	busyAll := busy * float64(ranks)
	idleAll := slots*wall - busyAll
	v["layers.residual_frac"] = 1 - (emAll+idleAll)/(slots*wall)
	v["trace.overhead_frac"] = median(traced)/median(plain) - 1
	if err := job.layerFigures(v, probe); err != nil {
		return err
	}
	if err := microFigures(v, job, best, in); err != nil {
		return err
	}
	return tr.write(filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)))
}

// microFigures runs the layer loops every workload shares: the kernels at
// the model's J, Predictor scoring of 128-row bodies, an Allreduce at the
// model's packed-statistics size, and a chunk cursor pass.
func microFigures(v map[string]float64, src layerSources, best *autoclass.Classification, in *inputs) error {
	v["model.logprob_ns_per_row_class"], v["model.stats_ns_per_row_class"], v["model.bytes_per_row_computed"] =
		kernelFigures(best, in.train.All().Columns(), 600*time.Millisecond)

	want, err := bodyLogLiks(best, in.heldoutBodies)
	if err != nil {
		return err
	}
	lat, failed, err := scoreFigures(best, in.heldoutBodies, want, 300*time.Millisecond, 200)
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("scoring loop: %d LogLik mismatches", failed)
	}
	v["serve.score_ms_per_req"] = median(lat)

	comms, release, err := src.allreduceComms()
	if err != nil {
		return err
	}
	v["mpi.allreduce_us"], v["mpi.allreduce_allocs"], err = allreduceFigures(comms, packedStatsSize(best), 300*time.Millisecond)
	release()
	if err != nil {
		return err
	}

	path, size, err := src.chunkFile()
	if err != nil {
		return err
	}
	v["chunk.scan_mb_per_s"], err = chunkScanMBps(path, size/10, 300*time.Millisecond)
	return err
}

// zeroLayers sets every per-layer metric to 0, the value a layer the
// workload bypasses reports; the measured ones overwrite it.
func zeroLayers(v map[string]float64) {
	for _, d := range perLayer {
		v[d.name] = 0
	}
}

// bodyLogLiks scores every body alone: the reference LogLik of each.
func bodyLogLiks(cls *autoclass.Classification, bodies []*dataset.Dataset) ([]float64, error) {
	want := make([]float64, len(bodies))
	for i, b := range bodies {
		p, err := autoclass.Predict(cls, b, autoclass.PredictConfig{RowLogLik: true})
		if err != nil {
			return nil, err
		}
		want[i] = p.LogLik
	}
	return want, nil
}

// sameResult requires two searches to agree bit for bit: every try's
// score and cycle count, and the best model's shape, scores and
// parameters.
func sameResult(got, want *autoclass.SearchResult) error {
	if len(got.Tries) != len(want.Tries) {
		return fmt.Errorf("%d tries, want %d", len(got.Tries), len(want.Tries))
	}
	for i := range want.Tries {
		g, w := got.Tries[i], want.Tries[i]
		if math.Float64bits(g.Score) != math.Float64bits(w.Score) || g.Cycles != w.Cycles || g.FinalJ != w.FinalJ {
			return fmt.Errorf("try %d: score %v cycles %d J %d, want %v/%d/%d", i, g.Score, g.Cycles, g.FinalJ, w.Score, w.Cycles, w.FinalJ)
		}
	}
	gb, wb := got.Best, want.Best
	if gb.J() != wb.J() || math.Float64bits(gb.LogPost) != math.Float64bits(wb.LogPost) ||
		math.Float64bits(gb.LogLik) != math.Float64bits(wb.LogLik) {
		return fmt.Errorf("best model J=%d logpost %v, want J=%d logpost %v", gb.J(), gb.LogPost, wb.J(), wb.LogPost)
	}
	for j := range wb.Classes {
		if math.Float64bits(gb.Classes[j].LogPi) != math.Float64bits(wb.Classes[j].LogPi) {
			return fmt.Errorf("class %d weight differs", j)
		}
		for t := range wb.Classes[j].Terms {
			gp, wp := gb.Classes[j].Terms[t].Params(), wb.Classes[j].Terms[t].Params()
			for k := range wp {
				if math.Float64bits(gp[k]) != math.Float64bits(wp[k]) {
					return fmt.Errorf("class %d term %d param %d: %v, want %v", j, t, k, gp[k], wp[k])
				}
			}
		}
	}
	return nil
}
