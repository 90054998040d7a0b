package autoclass

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/stats"
)

// kernelScenario is one dataset × model-spec combination for the blocked
// vs reference differential tests. Between them the scenarios cover every
// term kind, missing-value patterns (none, sparse, partial multi-normal
// blocks) and the log-normal support guard.
type kernelScenario struct {
	name string
	ds   *dataset.Dataset
	spec model.Spec
}

func kernelScenarios(t testing.TB, n int) []kernelScenario {
	t.Helper()
	paper := paperDS(t, n)
	paperMiss := paperDS(t, n)
	if _, err := datagen.InjectMissing(paperMiss, 0.15, 9); err != nil {
		t.Fatal(err)
	}
	protein, _, err := datagen.ProteinMixture().Generate(n, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.InjectMissing(protein, 0.1, 13); err != nil {
		t.Fatal(err)
	}
	logn, _, err := datagen.LogNormalMixture(n, 17)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.InjectMissing(logn, 0.1, 19); err != nil {
		t.Fatal(err)
	}
	return []kernelScenario{
		{"paper_default", paper, model.DefaultSpec(paper)},
		{"paper_missing", paperMiss, model.DefaultSpec(paperMiss)},
		{"protein_correlated_missing", protein, model.CorrelatedSpec(protein)},
		{"lognormal_missing", logn, model.LogNormalSpec(logn)},
	}
}

func specClassification(t testing.TB, ds *dataset.Dataset, spec model.Spec, j int) *Classification {
	t.Helper()
	pr := model.NewPriors(ds, ds.Summarize())
	cls, err := NewClassification(ds, spec, pr, j)
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

// TestBlockedMatchesReferencePhases is the property test of the blocked
// kernels: on the same classification state, the blocked E-step must
// reproduce the reference per-row weights, class sums and log-likelihood,
// and the blocked M-step the reference statistics vectors, to ≤1e-12
// relative — across every term kind, missing-value pattern, and dataset
// sizes straddling the KernelBlockRows and RowShardSize boundaries. The
// blocked halves are driven block by block, exactly as the fused pass
// composes them, and the M-step comparison feeds both paths the reference
// weights.
func TestBlockedMatchesReferencePhases(t *testing.T) {
	for _, n := range []int{1, 255, 256, 257, 1300} {
		for _, sc := range kernelScenarios(t, n) {
			t.Run(fmt.Sprintf("%s/n=%d", sc.name, n), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Kernels = Reference
				cfg.PruneClasses = false
				cls := specClassification(t, sc.ds, sc.spec, 3)
				eng, err := NewEngine(sc.ds.All(), cls, cfg, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.InitRandom(5); err != nil {
					t.Fatal(err)
				}
				// A couple of reference cycles move the parameters to a
				// realistic mid-run state.
				for c := 0; c < 2; c++ {
					if _, err := eng.BaseCycle(); err != nil {
						t.Fatal(err)
					}
				}
				j := cls.J()
				// E-step, both paths from the identical parameter state.
				outR := make([]float64, j+1)
				eng.wtsRows(0, n, outR, make([]float64, j))
				wtsR := append([]float64(nil), eng.wts...)
				bs := eng.workerBlockScratch(1)[0]
				outB := make([]float64, j+1)
				for blo := 0; blo < n; blo += KernelBlockRows {
					bhi := min(blo+KernelBlockRows, n)
					cols, clo, chi := eng.block(bs, blo, bhi)
					eng.blockWeights(bs, cols, clo, chi, outB)
					for r := 0; r < bhi-blo; r++ {
						for cj := 0; cj < j; cj++ {
							i := (blo+r)*j + cj
							if !stats.AlmostEqual(bs.lp[cj][r], wtsR[i], 1e-12) {
								t.Fatalf("weight %d: blocked %v, reference %v", i, bs.lp[cj][r], wtsR[i])
							}
						}
					}
				}
				for k := range outR {
					if !stats.AlmostEqual(outB[k], outR[k], 1e-12) {
						t.Fatalf("E-step accumulator %d: blocked %v, reference %v", k, outB[k], outR[k])
					}
				}
				// M-step over identical weights.
				offs := []int{}
				total := 0
				for _, cl := range cls.Classes {
					for _, term := range cl.Terms {
						offs = append(offs, total)
						total += term.StatsSize()
					}
				}
				offs = append(offs, total)
				bufR := make([]float64, total)
				eng.statsRows(0, n, bufR, offs)
				bufB := make([]float64, total)
				for blo := 0; blo < n; blo += KernelBlockRows {
					bhi := min(blo+KernelBlockRows, n)
					for r := 0; r < bhi-blo; r++ {
						for cj := 0; cj < j; cj++ {
							bs.lp[cj][r] = wtsR[(blo+r)*j+cj]
						}
					}
					cols, clo, chi := eng.block(bs, blo, bhi)
					eng.blockStats(bs, cols, clo, chi, bufB, offs)
				}
				for s := range bufR {
					if !stats.AlmostEqual(bufB[s], bufR[s], 1e-12) && !(bufB[s] == 0 && bufR[s] == 0) {
						t.Fatalf("M-step stat %d: blocked %v, reference %v", s, bufB[s], bufR[s])
					}
				}
			})
		}
	}
}

// TestKernelTrajectoriesAgree is the full-search trajectory test: for every
// term kind and Parallelism ∈ {1, N}, a BIG_LOOP search under Blocked and
// under Reference kernels must discover the same class count and assign
// every case to the same class. (The two modes associate floating point
// differently, so posteriors agree to tolerance rather than bitwise.)
func TestKernelTrajectoriesAgree(t *testing.T) {
	for _, sc := range kernelScenarios(t, 900) {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par=%d", sc.name, par), func(t *testing.T) {
				run := func(mode KernelMode) *SearchResult {
					cfg := DefaultSearchConfig()
					cfg.StartJList = []int{2, 4}
					cfg.Tries = 1
					cfg.EM.MaxCycles = 60
					cfg.EM.Parallelism = par
					cfg.EM.Kernels = mode
					res, err := Search(sc.ds, sc.spec, cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				blocked := run(Blocked)
				reference := run(Reference)
				if blocked.Best.J() != reference.Best.J() {
					t.Fatalf("class counts diverged: blocked J=%d, reference J=%d",
						blocked.Best.J(), reference.Best.J())
				}
				if !stats.AlmostEqual(blocked.Best.LogPost, reference.Best.LogPost, 1e-6) {
					t.Fatalf("posteriors diverged: blocked %v, reference %v",
						blocked.Best.LogPost, reference.Best.LogPost)
				}
				for i := 0; i < sc.ds.N(); i++ {
					row := sc.ds.Row(i)
					if b, r := blocked.Best.HardAssign(row), reference.Best.HardAssign(row); b != r {
						t.Fatalf("case %d assigned to class %d under blocked, %d under reference", i, b, r)
					}
				}
			})
		}
	}
}

// TestBlockedDeterministicAcrossParallelism: within Blocked mode the fixed
// block-inside-shard grid must make the trajectory bitwise identical for
// every Parallelism ≥ 1 — the same invariant the reference sharded path
// guarantees.
func TestBlockedDeterministicAcrossParallelism(t *testing.T) {
	ds := paperDS(t, 1500)
	run := func(par int) *SearchResult {
		cfg := DefaultSearchConfig()
		cfg.StartJList = []int{3}
		cfg.Tries = 1
		cfg.EM.MaxCycles = 30
		cfg.EM.Parallelism = par
		cfg.EM.Kernels = Blocked
		res, err := Search(ds, model.DefaultSpec(ds), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, par := range []int{2, 7} {
		got := run(par)
		if got.Best.LogPost != base.Best.LogPost {
			t.Fatalf("Parallelism %d changed the blocked trajectory: %v != %v",
				par, got.Best.LogPost, base.Best.LogPost)
		}
	}
}

// TestCorrelatedKernelsParallelismBitwise: the multi-normal kernel keeps
// per-call scratch, so every worker of a sharded pass needs its own kernel.
// Training and Predict with CorrelatedSpec over several shards must be
// bitwise identical at every Parallelism — a kernel shared between workers
// corrupts the forward-solve scratch (NaN posteriors, or an out-of-range
// panic in Predict).
func TestCorrelatedKernelsParallelismBitwise(t *testing.T) {
	ds, _, err := datagen.ProteinMixture().Generate(5000, 21)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.InjectMissing(ds, 0.05, 23); err != nil {
		t.Fatal(err)
	}
	spec := model.CorrelatedSpec(ds)
	train := func(par int) ([]float64, *Classification) {
		cfg := DefaultConfig()
		cfg.MaxCycles = 8
		cfg.Parallelism = par
		cls := specClassification(t, ds, spec, 4)
		eng, err := NewEngine(ds.All(), cls, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.InitRandom(7); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.History, cls
	}
	wantHist, wantCls := train(1)
	if math.IsNaN(wantCls.LogPost) {
		t.Fatal("Parallelism 1 posterior is NaN")
	}
	want, err := Predict(wantCls, ds, PredictConfig{Parallelism: 1, RowLogLik: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			gotHist, gotCls := train(par)
			sameBits(t, "history", gotHist, wantHist)
			sameClassification(t, gotCls, wantCls)
			got, err := Predict(wantCls, ds, PredictConfig{Parallelism: par, RowLogLik: true})
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "memberships", got.Memberships, want.Memberships)
			sameBits(t, "row loglik", got.RowLL, want.RowLL)
			sameBits(t, "loglik", []float64{got.LogLik}, []float64{want.LogLik})
			for i := range want.MAP {
				if got.MAP[i] != want.MAP[i] {
					t.Fatalf("MAP[%d]: %d != %d", i, got.MAP[i], want.MAP[i])
				}
			}
		})
	}
}

// TestUpdatePhasesDoNotAllocate extends the AllocsPerRun guards to the hot
// phases themselves: after warm-up, the cycle's data pass and the
// statistics exchange must run allocation-free in BOTH kernel modes — the
// per-cycle result and offset buffers live in engine scratch, and the
// blocked path's kernel cache must be fully steady-state.
func TestUpdatePhasesDoNotAllocate(t *testing.T) {
	for _, mode := range []KernelMode{Blocked, Reference} {
		t.Run(mode.String(), func(t *testing.T) {
			ds := paperDS(t, 1000)
			cfg := DefaultConfig()
			cfg.Kernels = mode
			cfg.PruneClasses = false
			cls := mustClassification(t, ds, 4)
			eng := mustEngine(t, ds, cls, cfg)
			if err := eng.InitRandom(3); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 2; c++ {
				if _, err := eng.BaseCycle(); err != nil {
					t.Fatal(err)
				}
			}
			if n := testing.AllocsPerRun(20, func() {
				eng.pass(false, 0)
			}); n != 0 {
				t.Errorf("data pass allocates %v times per cycle", n)
			}
			_, st, offs, _ := eng.pass(false, 0)
			if n := testing.AllocsPerRun(20, func() {
				if _, _, err := eng.exchangeStats(st, offs); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("statistics exchange allocates %v times per cycle", n)
			}
		})
	}
}
