package autoclass

import (
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// The cycle's data pass.
//
// base_cycle's two data-parallel loops — the E-step of update_wts (paper
// Fig. 4) and the statistics half of update_parameters (Fig. 5) — walk the
// same rows against the same parameters: terms change only after the
// statistics exchange. The Blocked engine therefore runs them as one pass:
// each row block computes its weights in block scratch, folds them into the
// class sums AND the sufficient statistics immediately, and drops them. No
// n×J weights matrix exists (100M rows × 8 classes would be 6.4 GB), and
// memory per worker is one chunk pin plus O(J·KernelBlockRows) scratch,
// independent of n — the same pass serves materialized and chunk-backed
// views.
//
// The fusion is bitwise exact, not approximate. The weight values are the
// ones a separate E-step would store; per statistics slot the block
// accumulation order within a shard is unchanged; merging the concatenated
// {wtsOut | stats} shard buffers element-wise in ascending shard order is
// element-identical to merging the two segments separately; and the reduce
// sequence — wtsOut first, then the per-term (or packed) statistics
// exchange — is the callers'.
//
// Reference keeps the seed engine's two per-row loops and its weights
// matrix: it is the oracle the blocked kernels are tested against, and the
// only mode whose update_wts / update_parameters timings split the two
// loops the way the paper's §3.1 profile does.

// pass runs the data pass over the local rows and returns the LOCAL
// (unreduced) class sums and log-likelihood {w_0 … w_{J−1}, logLik}, the
// (class, term) statistics at the offsets offs, and — on the Reference
// path — the seconds spent in its statistics loop (0 on Blocked, where the
// two are one loop). With init set, the E-step is replaced by InitRandom's
// crisp assignment: global row i gets weight 1 in class
// InitialClass(seed, i) and the log-likelihood slot stays 0.
//
// With Parallelism != 0 the rows are processed shard by shard on a worker
// pool; each worker writes only its shard's accumulator (and, on Reference,
// its shard's rows of e.wts), merged afterwards in fixed shard order. The
// buffers are engine scratch, valid until the next pass.
//
// The results are unnamed so that the worker closure captures offs by
// value: a named result is reassigned by the return, which would move it to
// the heap on every pass.
func (e *Engine) pass(init bool, seed uint64) ([]float64, []float64, []int, float64) {
	n := e.view.N()
	j := e.cls.J()
	offs, total := e.statOffsets()
	width := j + 1 + total
	if cap(e.passBuf) < width {
		e.passBuf = make([]float64, width)
	}
	out := e.passBuf[:width]
	for i := range out {
		out[i] = 0
	}
	statsSecs := 0.0
	switch shards := NumRowShards(n); {
	case e.cfg.Kernels == Reference:
		statsSecs = e.passReference(out, offs, init, seed)
	case e.cfg.Parallelism != 0 && shards > 0:
		workers := e.cfg.Workers(shards)
		bufs := e.scratch.get(shards, width)
		scr := e.workerBlockScratch(workers)
		ParallelFor(workers, shards, func(worker, s int) {
			lo, hi := RowShardRange(s, n)
			e.passBlocked(lo, hi, bufs[s], offs, scr[worker], init, seed)
		})
		mergeShards(out, bufs)
	default:
		e.passBlocked(0, n, out, offs, e.workerBlockScratch(1)[0], init, seed)
	}
	e.closeCursors()
	return out[:j+1], out[j+1:], offs, statsSecs
}

// passBlocked is the Blocked pass over rows [lo, hi) into out = {wtsOut |
// stats}: per block, the weights land in the worker's block scratch and are
// folded into the statistics before the next block overwrites them.
func (e *Engine) passBlocked(lo, hi int, out []float64, offs []int, bs *blockScratch, init bool, seed uint64) {
	j := e.cls.J()
	wtsOut, buf := out[:j+1], out[j+1:]
	for blo := lo; blo < hi; blo += KernelBlockRows {
		bhi := blo + KernelBlockRows
		if bhi > hi {
			bhi = hi
		}
		cols, clo, chi := e.block(bs, blo, bhi)
		if init {
			e.blockInitWeights(bs, blo, bhi, seed, wtsOut)
		} else {
			e.blockWeights(bs, cols, clo, chi, wtsOut)
		}
		e.blockStats(bs, cols, clo, chi, buf, offs)
	}
}

// blockWeights is the blocked E-step of one row block: every class's
// log-membership vector is produced by the kernels (LogPi broadcast + one
// BlockLogProb per term), then normalization overwrites the vectors with
// the weights, accumulating the class sums and the log-likelihood into
// wtsOut — zero interface calls and zero allocations per row. The semantics
// match wtsRows + stats.NormalizeLog, including the all-(-Inf) row
// convention (uniform weights, nothing added to the log-likelihood);
// association differs, so results agree to ≤1e-12 relative rather than
// bitwise. cols[clo:chi] is the block as resolved by block.
func (e *Engine) blockWeights(bs *blockScratch, cols *dataset.Columns, clo, chi int, wtsOut []float64) {
	j := e.cls.J()
	m := chi - clo
	for cj, cl := range e.cls.Classes {
		lp := bs.lp[cj][:m]
		logPi := cl.LogPi
		for r := range lp {
			lp[r] = logPi
		}
		for _, k := range bs.kerns[cj] {
			k.BlockLogProb(cols, clo, chi, lp)
		}
	}
	for r := 0; r < m; r++ {
		maxv := math.Inf(-1)
		for cj := 0; cj < j; cj++ {
			if v := bs.lp[cj][r]; v > maxv {
				maxv = v
			}
		}
		if math.IsInf(maxv, -1) {
			u := 1 / float64(j)
			for cj := 0; cj < j; cj++ {
				bs.lp[cj][r] = u
				wtsOut[cj] += u
			}
			continue
		}
		sum := 0.0
		for cj := 0; cj < j; cj++ {
			ev := math.Exp(bs.lp[cj][r] - maxv)
			bs.lp[cj][r] = ev
			sum += ev
		}
		inv := 1 / sum
		for cj := 0; cj < j; cj++ {
			wv := bs.lp[cj][r] * inv
			bs.lp[cj][r] = wv
			wtsOut[cj] += wv
		}
		wtsOut[j] += maxv + math.Log(sum)
	}
}

// blockInitWeights fills the block scratch with the crisp initial weights
// of view-local rows [blo, bhi) — 1 in the class the assignment hash picks
// for the global row, 0 elsewhere — and adds them to the class sums.
func (e *Engine) blockInitWeights(bs *blockScratch, blo, bhi int, seed uint64, wtsOut []float64) {
	j := e.cls.J()
	start := e.view.Start()
	for r := 0; r < bhi-blo; r++ {
		for cj := 0; cj < j; cj++ {
			bs.lp[cj][r] = 0
		}
		c := InitialClass(seed, start+blo+r, j)
		bs.lp[c][r] = 1
		wtsOut[c]++
	}
}

// blockStats folds one row block, weighted by the weight columns in the
// block scratch, into every (class, term) statistic with one
// BlockAccumulateStats call per term. Slot order (class-major, term-minor)
// and per-slot row order both match statsRows, so the fixed block grid
// keeps the accumulation deterministic for every Parallelism setting.
func (e *Engine) blockStats(bs *blockScratch, cols *dataset.Columns, clo, chi int, buf []float64, offs []int) {
	m := chi - clo
	ti := 0
	for cj, cl := range e.cls.Classes {
		wcol := bs.lp[cj][:m]
		for bi := range cl.Terms {
			bs.kerns[cj][bi].BlockAccumulateStats(cols, wcol, clo, chi, buf[offs[ti]:offs[ti+1]])
			ti++
		}
	}
}

// passReference is the Reference pass into out = {wtsOut | stats}: the
// per-row E-step loop over every row, writing e.wts, then the per-row
// statistics loop reading it back. It returns the statistics loop's
// seconds so the cycle can book them to update_parameters.
func (e *Engine) passReference(out []float64, offs []int, init bool, seed uint64) float64 {
	n := e.view.N()
	j := e.cls.J()
	if len(e.wts) != n*j {
		e.wts = make([]float64, n*j)
	}
	if shards := NumRowShards(n); e.cfg.Parallelism != 0 && shards > 0 {
		workers := e.cfg.Workers(shards)
		bufs := e.scratch.get(shards, len(out))
		logps := e.workerLogps(workers, j)
		ParallelFor(workers, shards, func(worker, s int) {
			lo, hi := RowShardRange(s, n)
			e.weightRows(lo, hi, bufs[s][:j+1], logps[worker][:j], init, seed)
		})
		t := time.Now()
		ParallelFor(workers, shards, func(_, s int) {
			lo, hi := RowShardRange(s, n)
			e.statsRows(lo, hi, bufs[s][j+1:], offs)
		})
		mergeShards(out, bufs)
		return time.Since(t).Seconds()
	}
	e.weightRows(0, n, out[:j+1], e.workerLogps(1, j)[0][:j], init, seed)
	t := time.Now()
	e.statsRows(0, n, out[j+1:], offs)
	return time.Since(t).Seconds()
}

// weightRows writes the weights of rows [lo, hi) into e.wts: the E-step,
// or with init the crisp assignment.
func (e *Engine) weightRows(lo, hi int, out, logp []float64, init bool, seed uint64) {
	if init {
		e.initRows(lo, hi, out, seed)
	} else {
		e.wtsRows(lo, hi, out, logp)
	}
}

// wtsRows runs the E-step over rows [lo, hi), writing each row's weights
// into e.wts and accumulating the class sums and log-likelihood into out
// (length J+1). logp is caller-owned scratch of length J. It only reads
// shared classification state, so disjoint row ranges may run concurrently.
func (e *Engine) wtsRows(lo, hi int, out, logp []float64) {
	j := e.cls.J()
	for i := lo; i < hi; i++ {
		row := e.view.Row(i)
		e.cls.LogMembership(row, logp)
		z := stats.NormalizeLog(logp)
		w := e.wts[i*j : (i+1)*j]
		for cj := 0; cj < j; cj++ {
			w[cj] = logp[cj]
			out[cj] += logp[cj]
		}
		if !math.IsInf(z, -1) {
			out[j] += z
		}
	}
}

// initRows is wtsRows for InitRandom: each row's weights are the crisp
// assignment of the hash.
func (e *Engine) initRows(lo, hi int, out []float64, seed uint64) {
	j := e.cls.J()
	start := e.view.Start()
	for i := lo; i < hi; i++ {
		w := e.wts[i*j : (i+1)*j]
		for cj := range w {
			w[cj] = 0
		}
		c := InitialClass(seed, start+i, j)
		w[c] = 1
		out[c]++
	}
}

// workerLogps returns per-worker scratch vectors of length j, reused
// across cycles.
func (e *Engine) workerLogps(workers, j int) [][]float64 {
	if len(e.logps) < workers {
		e.logps = make([][]float64, workers)
	}
	for w := 0; w < workers; w++ {
		if len(e.logps[w]) < j {
			e.logps[w] = make([]float64, j)
		}
	}
	return e.logps
}

// statsRows folds rows [lo, hi) into buf, which holds every (class, term)
// statistics vector back to back at the offsets in offs (len(offs) is the
// term count + 1), weighting each row by its e.wts entries. AccumulateStats
// only reads term state and writes the caller's slice, so disjoint row
// ranges may run concurrently on disjoint buffers.
func (e *Engine) statsRows(lo, hi int, buf []float64, offs []int) {
	j := e.cls.J()
	for i := lo; i < hi; i++ {
		row := e.view.Row(i)
		ti := 0
		for cj, cl := range e.cls.Classes {
			w := e.wts[i*j+cj]
			for _, term := range cl.Terms {
				term.AccumulateStats(row, w, buf[offs[ti]:offs[ti+1]])
				ti++
			}
		}
	}
}
