package repro

import (
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/netlist"
)

// TestBenchGuardBatchSpeedup measures the batched scheduler against
// the sequential per-gate scheduler on the widest-fanin ISCAS'89 cell
// (ε=1e-4 pruning active in both runs, variational N(1, 0.2²) delays)
// and gates the float32 grid mode on the same cell.
//
// The batched-vs-sequential ratio is logged, at workers=1 and at
// GOMAXPROCS, not gated. Its former 2x contract measured the
// table-driven ConvPlan rows against the per-pair kernel the
// sequential scheduler used to run; both schedulers now convolve
// through the same plan kernel, so that 2x lives on as
// dist.TestBenchGuardPlanKernel on this cell's rows, and this ratio
// is the evidence for (or against) keeping two schedulers. Both
// schedulers are bit-identical (core.TestBatchedRunMatchesSequential).
//
// The float32 gate: per-net four-value probabilities must stay within
// 1e-5 of the float64 batched run — an order of magnitude above the
// depth-scaled rounding model of DESIGN.md §13, far below anything a
// logic-level consumer can see.
//
// Opt-in via BENCH_GUARD=1 like the other guards, with the same
// interleaved min-of-N timing.
func TestBenchGuardBatchSpeedup(t *testing.T) {
	if os.Getenv("BENCH_GUARD") != "1" {
		t.Skip("set BENCH_GUARD=1 (or run `make bench-guard`) to measure the batch speedup")
	}
	const eps = 1e-4
	name := widestFaninProfile(t)
	c, in := guardCircuit(t, name)
	delay := func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.2} }
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		one := func(mode core.BatchMode) time.Duration {
			a := core.Analyzer{Workers: workers, ErrorBudget: eps, Delay: delay, Batched: mode}
			t0 := time.Now()
			res, err := a.Run(c, in)
			if err != nil {
				t.Fatal(err)
			}
			el := time.Since(t0)
			res.Recycle()
			return el
		}
		one(core.BatchOff)
		one(core.BatchOn)

		const rounds = 5
		minSeq, minBatch := time.Hour, time.Hour
		for r := 0; r < rounds; r++ {
			minSeq = min(minSeq, one(core.BatchOff))
			minBatch = min(minBatch, one(core.BatchOn))
		}
		t.Logf("%s workers=%d: sequential %v/op, batched %v/op, batched speedup %.2fx (logged, not gated)",
			name, workers, minSeq, minBatch, float64(minSeq)/float64(minBatch))
	}

	// Float32 deviation gate: rerun both precisions once and compare.
	f64A := core.Analyzer{Workers: 1, ErrorBudget: eps, Delay: delay}
	r64, err := f64A.Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	f32A := core.Analyzer{Workers: 1, ErrorBudget: eps, Delay: delay, Precision: dist.F32}
	r32, err := f32A.Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 1e-5
	maxDev := 0.0
	for i := range r64.State {
		for v := range r64.State[i].P {
			dev := math.Abs(r64.State[i].P[v] - r32.State[i].P[v])
			if dev > maxDev {
				maxDev = dev
			}
			if dev > bound {
				t.Errorf("net %s P[%d]: f32 deviation %.3g exceeds %.0e",
					c.Nodes[i].Name, v, dev, bound)
			}
		}
	}
	t.Logf("max f32-vs-f64 probability deviation %.3g (bound %.0e)", maxDev, bound)
}
