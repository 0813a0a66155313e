package dist_test

import (
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// TestBenchGuardPlanKernel enforces the direct-convolution throughput
// contract where the speed lives: the table-driven ConvPlan kernel,
// which every scheduler runs, must convolve at least 2x faster than
// the historical per-pair kernel (ReferenceConvolveInto, test code
// only) on the cell the contract has always been stated on — the
// widest-fanin ISCAS'89 profile s1196 at ε = 1e-4 with variational
// N(1, 0.2²) delays. The operands are that analysis' own t.o.p. rows
// and its delay kernel; both kernels produce bit-identical bins
// (TestConvPlanMatchesReferenceRandom), so the ratio is pure kernel
// speed. The same rows then time the plan's two fast-row bodies
// against each other: where the CPU has AVX2 the SIMD body must run
// at least 2x the generic one; elsewhere that gate logs and skips.
// Timing is interleaved min-of-N single-threaded, like the other
// guards.
//
// Opt-in via BENCH_GUARD=1 (`make bench-guard`).
func TestBenchGuardPlanKernel(t *testing.T) {
	if os.Getenv("BENCH_GUARD") != "1" {
		t.Skip("set BENCH_GUARD=1 (or run `make bench-guard`) to measure the plan kernel speedup")
	}
	p, ok := synth.ProfileByName("s1196")
	if !ok {
		t.Fatal("no s1196 profile")
	}
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	delay := dist.Normal{Mu: 1, Sigma: 0.2}
	a := core.Analyzer{Workers: 1, ErrorBudget: 1e-4,
		Delay: func(*netlist.Node) dist.Normal { return delay }}
	res, err := a.Run(c, experiments.Inputs(c, experiments.ScenarioI))
	if err != nil {
		t.Fatal(err)
	}
	kernel := dist.FromNormal(res.Grid, delay)
	var rows []*dist.PMF
	for i := range res.State {
		for _, top := range res.State[i].TOP {
			if lo, hi := top.Support(); hi > lo {
				rows = append(rows, top)
			}
		}
	}
	pl := dist.PlanFor(res.Grid)
	dst := dist.NewPMF(res.Grid)
	pass := func(conv func(dst, p, q *dist.PMF) *dist.PMF) time.Duration {
		t0 := time.Now()
		for _, r := range rows {
			conv(dst, r, kernel)
		}
		return time.Since(t0)
	}
	ref, plan := dist.ReferenceConvolveInto, pl.ConvolveInto
	pass(ref)
	pass(plan)
	const rounds = 7
	minRef, minPlan := time.Hour, time.Hour
	for r := 0; r < rounds; r++ {
		minRef = min(minRef, pass(ref))
		minPlan = min(minPlan, pass(plan))
	}
	speedup := float64(minRef) / float64(minPlan)
	t.Logf("s1196 (%d t.o.p. rows, %d-bin grid): per-pair reference %v/pass, plan %v/pass, speedup %.2fx",
		len(rows), res.Grid.N, minRef, minPlan, speedup)
	if speedup < 2 {
		t.Errorf("plan kernel speedup %.2fx below the 2x contract on s1196 (reference %v/pass, plan %v/pass)",
			speedup, minRef, minPlan)
	}

	// The fast-row body: the AVX2 plan must run at least 2x the
	// generic plan on the same rows where the CPU has AVX2.
	if !slices.Contains(dist.RowKernels(), "avx2") {
		t.Log("CPU without AVX2 (or OS without YMM state): generic row kernel only, SIMD gate skipped")
		return
	}
	kernPass := func(name string) time.Duration {
		defer dist.SetRowKernel(name)()
		return pass(plan)
	}
	kernPass("generic")
	kernPass("avx2")
	minGen, minSIMD := time.Hour, time.Hour
	for r := 0; r < rounds; r++ {
		minGen = min(minGen, kernPass("generic"))
		minSIMD = min(minSIMD, kernPass("avx2"))
	}
	simd := float64(minGen) / float64(minSIMD)
	t.Logf("s1196 row kernel: generic %v/pass, avx2 %v/pass, speedup %.2fx", minGen, minSIMD, simd)
	if simd < 2 {
		t.Errorf("AVX2 row kernel speedup %.2fx below the 2x contract on s1196 (generic %v/pass, avx2 %v/pass)",
			simd, minGen, minSIMD)
	}
}
