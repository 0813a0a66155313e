package montecarlo

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// BenchmarkSimulatePacked measures one /v1/compare-sized Monte Carlo
// reference on the packed engine: 10k runs under scenario I with
// N(1, 0.2²) gate delays, one worker, so ns/op is the single-core
// cost of the draws, the settle passes and the moment accumulators.
func BenchmarkSimulatePacked(b *testing.B) {
	noisy := func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.2} }
	for _, name := range []string{"s344", "s1196"} {
		b.Run(name, func(b *testing.B) {
			c := genCircuit(b, name)
			inputs := scenarioInputs(c, logic.UniformStats)
			cfg := Config{Runs: 10000, Seed: 1, Workers: 1, Delay: noisy, Packed: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(c, inputs, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
