package fluid

import (
	"testing"
	"time"

	"bbrnash/internal/scenario"
)

// fluidBenchScenarios are the shapes BenchmarkFluidScenario times: the
// adoption dynamics' 9-group payoff spec (three RTT classes ×
// cubic/reno/bbr at 100 Mbps) and the paper's common 40 Mbps 2v2 figure
// point, the same spec internal/exp's BenchmarkBackendScenario runs on
// both backends as mix40M_2v2.
func fluidBenchScenarios() []struct {
	name string
	sp   scenario.Spec
} {
	return []struct {
		name string
		sp   scenario.Spec
	}{
		{"adopt9", adoptShapeSpec()},
		{"mix40M_2v2", mixSpec(2, 2, 6)},
	}
}

// BenchmarkFluidScenario times complete fresh fluid scenarios: one op is
// New plus Run over the spec's whole duration (120k steps for both
// shapes), so ns/op is ns per scenario and ns/step is the step kernel's
// cost with every group's work included. scripts/bench.sh -s fluid turns
// the results into a BENCH_*.json record.
func BenchmarkFluidScenario(b *testing.B) {
	for _, sc := range fluidBenchScenarios() {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			var steps int64
			for i := 0; i < b.N; i++ {
				m, err := New(sc.sp)
				if err != nil {
					b.Fatal(err)
				}
				m.Run(sc.sp.Duration)
				steps += m.step
			}
			b.StopTimer()
			if steps == 0 {
				b.Fatal("no steps integrated")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/scenario")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		})
	}
}

// TestRunZeroAllocs: once New has built a model, integrating it allocates
// nothing — the per-step scratch is preallocated, the same zero-allocation
// rule netsim's TestSteadyStateZeroAllocs enforces per event.
func TestRunZeroAllocs(t *testing.T) {
	specs := append(fluidBenchScenarios(), bitsSpecs()...)
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.sp)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				m.Run(time.Second)
			})
			if allocs != 0 {
				t.Fatalf("Run allocated %.1f times per simulated second; want 0", allocs)
			}
		})
	}
}
