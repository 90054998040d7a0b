package autoclass

import (
	"testing"
)

// benchEngine builds a warmed-up single-rank engine over the paper's
// synthetic two-real-attribute dataset at J=8 — the configuration of the
// paper's Fig. 8 runs — in the given kernel mode.
func benchEngine(b *testing.B, n, j int, mode KernelMode) *Engine {
	b.Helper()
	ds := paperDS(b, n)
	cfg := DefaultConfig()
	cfg.Kernels = mode
	cfg.PruneClasses = false
	cls := mustClassification(b, ds, j)
	eng := mustEngine(b, ds, cls, cfg)
	if err := eng.InitRandom(1); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.BaseCycle(); err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkDataPass measures the cycle's data pass alone — the E-step the
// paper's Fig. 4 profile singles out as the dominant base_cycle cost,
// together with the statistics accumulation of update_parameters — under
// both kernel modes: one fused block loop on Blocked, the two per-row loops
// on Reference.
func BenchmarkDataPass(b *testing.B) {
	for _, mode := range []KernelMode{Blocked, Reference} {
		b.Run("kernels="+mode.String(), func(b *testing.B) {
			eng := benchEngine(b, 10000, 8, mode)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.pass(false, 0)
			}
		})
	}
}

// BenchmarkBaseCycle measures one full E+M+approximation cycle under both
// kernel modes — the ISSUE-4 acceptance benchmark (≥2× single-rank
// speedup for Blocked vs Reference, B/op not increased).
func BenchmarkBaseCycle(b *testing.B) {
	for _, mode := range []KernelMode{Blocked, Reference} {
		b.Run("kernels="+mode.String(), func(b *testing.B) {
			eng := benchEngine(b, 10000, 8, mode)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.BaseCycle(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
