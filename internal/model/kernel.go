package model

import "repro/internal/dataset"

// Kernel is a Term's blocked evaluation path. Where Term scores and
// accumulates one row at a time through an interface call, a Kernel walks a
// contiguous block of rows of a column-major mirror (dataset.Columns) in
// one call, with the term's per-cycle invariants — log σ and the Gaussian
// normalizer for the normal terms, the log-probability table for the
// multinomial, the Cholesky factor and log-determinant for the
// multi-normal — precomputed once per cycle instead of per case.
//
// A Kernel aliases its Term: parameter updates (Update/SetParams) are
// picked up by calling Refresh, so the engine can build kernels once per
// (class, term) and reuse them across cycles with zero steady-state
// allocation.
//
// A Kernel is NOT safe for concurrent use: it may keep per-call scratch
// (the multi-normal kernel gathers column slices and forward-solves into
// buffers it owns). Workers scoring or accumulating in parallel must each
// hold their own kernel per (class, term); several kernels over one Term
// are fine, since Block calls only read the term.
//
// Contract: out and st follow the accumulate convention of LogProb and
// AccumulateStats — contributions are ADDED, missing values add nothing —
// and out[i] corresponds to view-local row lo+i. Block results may differ
// from the per-row path only in floating-point association (≤1e-12
// relative); the per-row path remains the bitwise reference.
type Kernel interface {
	// Refresh recomputes the precomputed constants from the term's current
	// parameters. Call it after Update/SetParams, before any Block call.
	Refresh()
	// BlockLogProb adds the term's log-likelihood contribution for rows
	// [lo, hi) of cols into out[0 : hi-lo].
	BlockLogProb(cols *dataset.Columns, lo, hi int, out []float64)
	// BlockAccumulateStats folds rows [lo, hi) with weights wts[0 : hi-lo]
	// into the term's sufficient statistics st (length StatsSize).
	BlockAccumulateStats(cols *dataset.Columns, wts []float64, lo, hi int, st []float64)
}
