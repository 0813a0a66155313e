package incr

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/netlist"
)

// BenchmarkSPSTAWarmDelta measures one warm spstad-style session
// write: s1196 under variational N(1, 0.2²) delays at propagation
// cutoff Eps = 0, alternating one level-1 gate between two delays, so
// every iteration re-converges the same fanout cone. -benchmem shows
// the per-write allocation.
func BenchmarkSPSTAWarmDelta(b *testing.B) {
	c := gen(b, "s1196")
	in := experiments.Inputs(c, experiments.ScenarioI)
	inc, err := NewSPSTA(core.Analyzer{
		Delay: func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.2} },
	}, c, in)
	if err != nil {
		b.Fatal(err)
	}
	inc.Eps = 0
	g := pickGate(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inc.SetDelay(g, dist.Normal{Mu: 1 + float64(i%2)*0.5, Sigma: 0.25}); err != nil {
			b.Fatal(err)
		}
	}
}
