package autoclass

import (
	"repro/internal/dataset"
	"repro/internal/model"
)

// KernelMode selects how the engine's data pass evaluates the model terms.
type KernelMode int

const (
	// Blocked is the default: column-major blocked kernels with per-cycle
	// constants precomputed once per (class, term) — no interface call and
	// no recomputed invariant on the per-row hot path. Results agree with
	// Reference to ≤1e-12 relative and are themselves fully deterministic
	// (fixed block grid inside the fixed shard grid), so trajectories are
	// bitwise reproducible for any Parallelism within Blocked mode. The
	// cycle's E-step and statistics accumulation run fused, block by block,
	// in one pass over the data; no per-item weights matrix is kept.
	Blocked KernelMode = iota
	// Reference is the seed engine's per-row Term path — the E-step loop
	// writing an n×J weights matrix, then the statistics loop reading it —
	// retained as the bitwise ground truth the blocked kernels are tested
	// against.
	Reference
)

// String implements fmt.Stringer.
func (m KernelMode) String() string {
	switch m {
	case Blocked:
		return "blocked"
	case Reference:
		return "reference"
	default:
		return "KernelMode(" + itoa(int(m)) + ")"
	}
}

// itoa avoids importing strconv for one error-path formatting.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// KernelBlockRows is the row-block size of the blocked kernels. It divides
// RowShardSize, so the block grid inside every shard is identical whether a
// shard is processed alone or as part of a larger sequential range — the
// blocked path stays bitwise deterministic for every Parallelism setting.
// 256 rows × 8 classes of log-probabilities is 16 KiB of scratch, which
// fits comfortably in L1.
const KernelBlockRows = 256

// The chunked data plane's grid must stay in lockstep with the kernel
// block grid — a kernel block may never straddle a chunk boundary, which
// is what makes trajectories bitwise identical across chunk backings and
// sizes. Negative array lengths fail the build if the constants diverge.
var (
	_ [KernelBlockRows - dataset.ChunkAlign]struct{}
	_ [dataset.ChunkAlign - KernelBlockRows]struct{}
)

// kernelCache holds one kernel per (class, term) for every worker. A
// kernel carries per-call scratch (model.Kernel is not safe for concurrent
// use), so each worker of a sharded pass walks its own set. The cache is
// keyed on term identity: while the class/term structure is unchanged,
// prepare merely Refreshes the sets against the current parameters, so the
// steady state allocates nothing; pruning (or a Restore with a different
// classification) changes the term set and triggers a rebuild. The training
// engine and the batch scorer share it.
type kernelCache struct {
	terms [][]model.Term
	sets  [][][]model.Kernel // sets[worker][class][term]
}

// prepare returns `workers` kernel sets for the classes, each refreshed
// against the current parameters.
func (kc *kernelCache) prepare(classes []*Class, workers int) [][][]model.Kernel {
	if !kc.same(classes) {
		kc.terms = make([][]model.Term, len(classes))
		for cj, cl := range classes {
			kc.terms[cj] = append([]model.Term(nil), cl.Terms...)
		}
		kc.sets = kc.sets[:0]
	}
	for w := 0; w < workers && w < len(kc.sets); w++ {
		for _, ks := range kc.sets[w] {
			for _, k := range ks {
				k.Refresh()
			}
		}
	}
	for len(kc.sets) < workers {
		set := make([][]model.Kernel, len(classes))
		for cj, cl := range classes {
			set[cj] = make([]model.Kernel, len(cl.Terms))
			for bi, t := range cl.Terms {
				set[cj][bi] = t.Kernel()
			}
		}
		kc.sets = append(kc.sets, set)
	}
	return kc.sets[:workers]
}

// same reports whether the cached kernels were built for exactly these
// terms.
func (kc *kernelCache) same(classes []*Class) bool {
	if len(kc.terms) != len(classes) {
		return false
	}
	for cj, cl := range classes {
		if len(kc.terms[cj]) != len(cl.Terms) {
			return false
		}
		for bi, t := range cl.Terms {
			if kc.terms[cj][bi] != t {
				return false
			}
		}
	}
	return true
}

// blockScratch is one worker's blocked-kernel scratch: its kernel set,
// per-class vectors (each KernelBlockRows long) that hold a block's
// log-probabilities and then its weights, and — on chunk-backed views —
// the worker's chunk cursor, pinning exactly the chunk under its blocks.
type blockScratch struct {
	kerns [][]model.Kernel
	lp    [][]float64
	cur   dataset.ChunkCursor
}

// workerBlockScratch readies the blocked path for a pass on `workers`
// workers: the column-major mirror (built lazily once per view), every
// worker's kernel set, and per-worker block scratch sized for the current
// class count, all reused across cycles. On a chunk-backed view each
// worker's cursor is pointed at the view's chunk source.
func (e *Engine) workerBlockScratch(workers int) []*blockScratch {
	if !e.chunked && e.cols == nil {
		e.cols = e.view.Columns()
	}
	sets := e.kernels.prepare(e.cls.Classes, workers)
	j := e.cls.J()
	for len(e.blockScr) < workers {
		e.blockScr = append(e.blockScr, &blockScratch{})
	}
	for w := 0; w < workers; w++ {
		bs := e.blockScr[w]
		bs.kerns = sets[w]
		for len(bs.lp) < j {
			bs.lp = append(bs.lp, make([]float64, KernelBlockRows))
		}
		if e.chunked {
			bs.cur.Reset(e.src)
		}
	}
	return e.blockScr
}

// closeCursors releases every worker cursor's pinned chunk — called at the
// end of each pass so a bounded-residency backing can evict freely between
// passes.
func (e *Engine) closeCursors() {
	if !e.chunked {
		return
	}
	for _, bs := range e.blockScr {
		bs.cur.Close()
	}
}

// block resolves the view-local row block [blo, bhi) to the Columns the
// kernels should walk: the monolithic mirror itself on a materialized
// view, or the cursor-pinned chunk (with chunk-local bounds) on a
// chunk-backed one.
func (e *Engine) block(bs *blockScratch, blo, bhi int) (cols *dataset.Columns, lo, hi int) {
	if e.chunked {
		return bs.cur.Block(blo, bhi)
	}
	return e.cols, blo, bhi
}
