package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/autoclass"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Serve workload shape.
const (
	serveConns  = 2   // load connections, one per core
	nominalRPS  = 400 // p50_ms and serve.p99_ms are taken at this rate
	hotBodies   = 8   // the small set every fourth request repeats
	freshBodies = 512 // cycled in order, twice the response cache, so always a miss
	hotEvery    = 4   // every hotEvery-th request is a hot body: a quarter hit
	// A rung lasts rungSeconds and at least rungMin requests, enough for
	// a p99 with minTail samples beyond it.
	rungSeconds  = 1.0
	rungMin      = 1100
	rungAttempts = 3
	nominalBlock = 0.6 // seconds of nominal load before each rung attempt
	// The training job runs trainTries tries at start J trainStartJ: two
	// tries make its time (search_s) a longer, steadier sample, and one
	// start J keeps the served model at J = 8 for every seed.
	trainStartJ = 8
	trainTries  = 2
	// trainRelDelta keeps the training job's convergence test from ever
	// firing (the API reads 0 as "default"), so it runs all 30 cycles
	// whatever the input, like the batch workloads.
	trainRelDelta = 1e-300
	predictRoute  = "POST /v1/models/{id}/predict"
)

// rateLadder is the max_rps_at_slo ladder: rungs 10% apart from 600/s.
var rateLadder = ladder(600, 6000, 1.1)

// serveEnv is a running pautoclassd handler with a published model and
// the request bodies with their idle-server responses.
type serveEnv struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	dir    string
	url    string // predict URL

	trainDS *dataset.Dataset
	jobID   string
	trainS  float64 // training job wall time, submit to done
	trainJ  int     // the fitted model's class count
	runSnap obs.Snapshot

	reqs     [][]byte // JSON bodies: hot, then fresh
	baseline [][]byte
	heldout  []int // indices into reqs of the held-out bodies, in order

	next int // global request counter: picks hot or the next fresh body
}

func runServe(o *options) (*outcomeSet, error) {
	var env *serveEnv
	var in *inputs
	var setups, trains []float64
	var prev [][]byte
	for k := 0; k < setupRuns; k++ {
		t0 := time.Now()
		var err error
		if in, err = makeInputs(o.seed); err != nil {
			return nil, err
		}
		if env, err = newServeEnv(in, o.seed, filepath.Join(o.workdir, fmt.Sprintf("state-%d", k))); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		trains = append(trains, env.trainS)
		// Training is deterministic, so every set-up must serve the same
		// bytes.
		for i := range prev {
			if !bytes.Equal(prev[i], env.baseline[i]) {
				env.close()
				return nil, fmt.Errorf("set-up %d: baseline %d differs from the previous set-up", k, i)
			}
		}
		prev = env.baseline
		if k < setupRuns-1 {
			env.close()
			runtime.GC() // the next set-up starts from a clean heap
		}
	}
	defer env.close()

	res := &outcomeSet{vals: map[string]float64{}}
	window := o.seconds
	if o.trace {
		return res, env.traced(o, in, window, res)
	}
	nll, err := env.heldoutNLL(in.heldout.N())
	if err != nil {
		return nil, err
	}

	sum := summarize(env.run(nominalRPS, int(nominalRPS*window), res, nil))
	logNominal(sum)
	v := res.vals
	v["setup_s"] = median(setups)
	v["search_s"] = median(trains)
	v["heldout_nll"] = nll
	v["p50_ms"] = sum.p50
	v["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

func logNominal(s loadSummary) {
	fmt.Fprintf(os.Stderr, "nominal %d/s x %d: p50 %.3fms p90 %.3fms p99 %.3fms hit p50 %.3fms miss p50 %.3fms late p99 %.3fms\n",
		nominalRPS, s.attempted, s.p50, reportable(s.latencies, 0.9), s.p99, s.hitP50, s.missP50, s.lateP99)
}

// climbLadder runs the rate ladder with a nominal-rate block before every
// rung attempt, so the nominal samples spread over the whole climb. It
// returns max_rps_at_slo and the nominal blocks' summary.
func (e *serveEnv) climbLadder(res *outcomeSet) (float64, loadSummary) {
	var nominal []sample
	best, _ := climb(rateLadder, sloMs, rungAttempts, func(rate float64) loadSummary {
		nominal = append(nominal, e.run(nominalRPS, int(nominalRPS*nominalBlock), res, nil)...)
		s := summarize(e.run(rate, max(rungMin, int(rate*rungSeconds)), res, nil))
		fmt.Fprintf(os.Stderr, "rung %5.0f/s: p50 %.2fms p99 %.2fms late p99 %.2fms final late %.2fms failed %d\n",
			rate, s.p50, s.p99, s.lateP99, s.finalLate, s.failed+s.rejected)
		return s
	})
	sum := summarize(nominal)
	logNominal(sum)
	return best, sum
}

// newServeEnv starts the handler on a fresh state directory, trains and
// publishes the model through the HTTP API, records every body's response
// on the idle server, and opens the load connections.
func newServeEnv(in *inputs, seed uint64, dir string) (*serveEnv, error) {
	srv, err := serve.New(serve.Config{Dir: dir, Procs: 2, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	e := &serveEnv{srv: srv, ts: ts, dir: dir, url: ts.URL + "/v1/models/bench/predict",
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}}}
	if err := e.init(in, seed); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *serveEnv) init(in *inputs, seed uint64) error {
	e.trainDS = in.train
	var err error
	if e.jobID, err = e.train(in.train); err != nil {
		return err
	}
	if code, body, err := e.post(e.ts.URL+"/v1/models", mustJSON(serve.PublishRequest{ID: "bench", JobID: e.jobID})); err != nil {
		return err
	} else if code != http.StatusCreated {
		return fmt.Errorf("publish: status %d: %s", code, body)
	}
	snap, err := e.metrics()
	if err != nil {
		return err
	}
	if snap.Run != nil {
		e.runSnap = *snap.Run
	}

	extra, err := datagen.Paper((hotBodies+freshBodies-len(in.heldoutBodies))*bodyRows, seed^0xb0d1e5)
	if err != nil {
		return err
	}
	gen, err := cut(extra, bodyRows)
	if err != nil {
		return err
	}
	bodies := append(append(append([]*dataset.Dataset(nil), gen[:hotBodies]...), in.heldoutBodies...), gen[hotBodies:]...)
	for i := range in.heldoutBodies {
		e.heldout = append(e.heldout, hotBodies+i)
	}
	for _, b := range bodies {
		e.reqs = append(e.reqs, mustJSON(serve.PredictRequest{Rows: wireRows(b)}))
	}
	for i, r := range e.reqs {
		code, body, err := e.post(e.url, r)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("baseline %d: status %d: %s", i, code, body)
		}
		e.baseline = append(e.baseline, body)
	}
	// Open both load connections before timing starts.
	var wg sync.WaitGroup
	errs := make([]error, serveConns)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, _, errs[c] = e.post(e.url, e.reqs[c])
		}(c)
	}
	wg.Wait()
	runtime.GC()
	return errors.Join(errs...)
}

// train submits the training rows as a job and polls it to completion;
// trainS is the job's wall time.
func (e *serveEnv) train(ds *dataset.Dataset) (string, error) {
	attrs := make([]serve.AttrSpec, ds.NumAttrs())
	for k, a := range ds.Attrs() {
		attrs[k] = serve.AttrSpec{Name: a.Name, Type: "real"}
	}
	req := mustJSON(serve.JobRequest{Name: "bench", Attrs: attrs, Rows: wireRows(ds),
		Search: &serve.SearchSpec{StartJList: []int{trainStartJ}, Tries: trainTries, MaxCycles: 30, RelDelta: trainRelDelta}})
	t0 := time.Now()
	code, body, err := e.post(e.ts.URL+"/v1/jobs", req)
	if err != nil {
		return "", err
	}
	if code != http.StatusAccepted {
		return "", fmt.Errorf("submit: status %d: %s", code, body)
	}
	var st serve.JobStatus
	for {
		if err := json.Unmarshal(body, &st); err != nil {
			return "", err
		}
		switch st.State {
		case serve.StateDone:
			e.trainS = time.Since(t0).Seconds()
			e.trainJ = st.J
			return st.ID, nil
		case serve.StateFailed:
			return "", fmt.Errorf("training failed: %s", st.Error)
		}
		if time.Since(t0) > 2*time.Minute {
			return "", fmt.Errorf("training stuck in %q", st.State)
		}
		time.Sleep(2 * time.Millisecond)
		resp, err := e.client.Get(e.ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			return "", err
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
	}
}

// run issues one open-loop phase of n requests at rate, folds its
// operations into res and returns its samples. Every 200 must carry its
// body's idle-server bytes.
func (e *serveEnv) run(rate float64, n int, res *outcomeSet, tr *tracer) []sample {
	pick := make([]int, n)
	for i := range pick {
		g := e.next
		e.next++
		if g%hotEvery == 0 {
			pick[i] = (g / hotEvery) % hotBodies
		} else {
			pick[i] = hotBodies + (g-g/hotEvery-1)%freshBodies
		}
	}
	var mu sync.Mutex
	var errs []error
	ss := openLoop(rate, n, serveConns, func(i int) (outcome, bool, int) {
		b := pick[i]
		resp, err := e.client.Post(e.url, "application/json", bytes.NewReader(e.reqs[b]))
		if err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
			return outFailed, false, 0
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		hit := resp.Header.Get("X-Cache") == "hit"
		switch {
		case err == nil && resp.StatusCode == http.StatusOK && bytes.Equal(body, e.baseline[b]):
			return outOK, hit, len(body)
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			return outRejected, false, 0
		}
		mu.Lock()
		errs = append(errs, fmt.Errorf("body %d: status %d, %d bytes, read error %v", b, resp.StatusCode, len(body), err))
		mu.Unlock()
		return outFailed, false, 0
	})
	if tr != nil {
		t0 := time.Now().Add(-ss[len(ss)-1].done)
		for i, s := range ss {
			root := tr.add("request", int64(i), -1, t0.Add(s.due), t0.Add(s.done))
			tr.add("generator.wait", int64(i), root, t0.Add(s.due), t0.Add(s.sent))
			tr.add("http.roundtrip", int64(i), root, t0.Add(s.sent), t0.Add(s.done))
		}
	}
	res.attempted += len(ss)
	// Refused requests count as failed operations too: with two
	// connections the admission limits are never reached, so a refusal is
	// a fault.
	for _, x := range ss {
		if x.out != outOK {
			res.failed++
		}
	}
	for _, err := range errs {
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
	return ss
}

// heldoutNLL folds the held-out bodies' response log-likelihoods.
func (e *serveEnv) heldoutNLL(rows int) (float64, error) {
	ll := 0.0
	for _, i := range e.heldout {
		var p serve.PredictResponse
		if err := json.Unmarshal(e.baseline[i], &p); err != nil {
			return 0, err
		}
		ll += p.LogLik
	}
	return -ll / float64(rows), nil
}

type metricsBody struct {
	Server obs.Snapshot  `json:"server"`
	Run    *obs.Snapshot `json:"run"`
}

// metrics reads /metrics.json straight from the handler, without a
// connection.
func (e *serveEnv) metrics() (*metricsBody, error) {
	rec := httptest.NewRecorder()
	e.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics.json", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics.json: status %d", rec.Code)
	}
	var m metricsBody
	return &m, json.Unmarshal(rec.Body.Bytes(), &m)
}

// traced climbs the rate ladder untraced (max_rps_at_slo, and the p99 of
// the nominal blocks between rungs), then runs half a window traced at the
// nominal rate, reading /metrics.json around it and sampling the batching
// queue depth during it, then runs the layer loops.
func (e *serveEnv) traced(o *options, in *inputs, window float64, res *outcomeSet) error {
	maxRPS, plain := e.climbLadder(res)
	before, err := e.metrics()
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	depth := make(chan float64)
	go func() {
		m := 0.0
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				depth <- m
				return
			case <-t.C:
				if s, err := e.metrics(); err == nil {
					m = math.Max(m, s.Server.Gauges["serve.predict.queue_depth"])
				}
			}
		}
	}()
	tr := newTracer()
	// At least 2000 requests, so the miss p99 has its tail.
	sum := summarize(e.run(nominalRPS, max(int(nominalRPS*window/2), 2000), res, tr))
	close(stop)
	qmax := <-depth
	after, err := e.metrics()
	if err != nil {
		return err
	}

	v := res.vals
	zeroLayers(v)
	d := func(name string) float64 { return after.Server.Counters[name] - before.Server.Counters[name] }
	hist := func(name string) (count, total float64) {
		return float64(after.Server.Histograms[name].Count - before.Server.Histograms[name].Count),
			after.Server.Histograms[name].Sum - before.Server.Histograms[name].Sum
	}
	v["serve.p99_ms"] = plain.p99
	v["serve.max_rps_at_slo"] = maxRPS
	v["serve.requests"] = float64(sum.attempted)
	v["serve.failed"] = float64(sum.failed)
	v["serve.rejected"] = d("serve.predict.rejected")
	v["serve.hit_p50_ms"] = sum.hitP50
	v["serve.miss_p50_ms"] = sum.missP50
	v["serve.miss_p99_ms"] = sum.missP99
	hits, misses := d("serve.predict.cache.hits"), d("serve.predict.cache.misses")
	v["serve.cache_hit_ratio"] = hits / (hits + misses)
	c, s := hist("serve.predict.batch_rows")
	v["serve.batch_rows_mean"] = s / c
	c, s = hist("serve.predict.batch_requests")
	v["serve.batch_reqs_mean"] = s / c
	v["serve.queue_depth_max"] = qmax
	v["serve.bytes_per_resp"] = sum.bytesPerResp
	v["serve.generator_late_p99_ms"] = sum.lateP99
	v["trace.overhead_frac"] = sum.p50/plain.p50 - 1
	// The handler's own time (decode, cache, queue, scoring, encode) over
	// the client-observed latency leaves the part no server layer covers:
	// the client, the loopback connection and generator lateness.
	var handler float64
	for name := range after.Server.Histograms {
		if strings.HasPrefix(name, serve.MetricHTTPSeconds) && strings.Contains(name, predictRoute) {
			_, handler = hist(name)
		}
	}
	v["layers.residual_frac"] = 1 - handler/(sumFloats(sum.latencies)/1e3)

	// The training job in set-up is the only EM and transport work; its
	// run metrics are the program's own per-rank counters, summed over
	// ranks.
	procs := 2.0
	rc := e.runSnap.Counters
	v["em.cycles"] = rc[obs.MetricCycles] / procs
	v["em.wts_s"] = rc[obs.MetricWtsSeconds] / procs
	v["em.params_s"] = rc[obs.MetricParamsSeconds] / procs
	v["em.approx_s"] = rc[obs.MetricApproxSeconds] / procs
	// Row × class × cycle work from the fitted model's class count: exact
	// unless the job pruned classes.
	v["em.row_class_cycles"] = float64(e.trainDS.N()*e.trainJ) * v["em.cycles"]
	v["em.row_class_cycles_per_s"] = v["em.row_class_cycles"] / (v["em.wts_s"] + v["em.params_s"] + v["em.approx_s"])
	v["sched.tries"] = rc[obs.MetricTryClaimed]
	for name, x := range rc {
		if strings.HasPrefix(name, obs.MetricCollectives+".") {
			v["mpi.collectives"] += x / procs
		}
	}

	cls, err := autoclass.LoadCheckpointFile(filepath.Join(e.dir, "jobs", e.jobID, "model.ckpt"), in.train)
	if err != nil {
		return err
	}
	if err := microFigures(v, e, cls, in); err != nil {
		return err
	}
	return tr.write(filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)))
}

func (e *serveEnv) allreduceComms() ([]*mpi.Comm, func(), error) { return tcpComms(2) }

func (e *serveEnv) chunkFile() (string, int64, error) {
	path := filepath.Join(e.dir, "train.chunks")
	size, err := writeChunkFile(path, e.trainDS, spmdChunkRows)
	return path, size, err
}

func (e *serveEnv) post(url string, body []byte) (int, []byte, error) {
	resp, err := e.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (e *serveEnv) close() {
	e.client.CloseIdleConnections()
	e.ts.Close()
	_ = e.srv.Close() // shutdown errors only concern the deleted state
	os.RemoveAll(e.dir)
}

// wireRows converts a dataset to the wire format (null = missing).
func wireRows(ds *dataset.Dataset) [][]*float64 {
	rows := make([][]*float64, ds.N())
	buf := make([]float64, ds.NumAttrs())
	for i := range rows {
		src := ds.RowTo(buf, i)
		row := make([]*float64, len(src))
		for k, v := range src {
			if !dataset.IsMissing(v) {
				v := v
				row[k] = &v
			}
		}
		rows[i] = row
	}
	return rows
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers and strings are marshaled
	}
	return b
}
