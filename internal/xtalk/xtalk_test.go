package xtalk

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/ssta"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

// pair: two independent buffers; b1 is the victim, b2 the aggressor.
const pair = `
INPUT(a)
INPUT(b)
OUTPUT(v)
OUTPUT(g)
v = BUFF(a)
g = BUFF(b)
`

func setup(t *testing.T, va, ag logic.InputStats) (*core.Result, netlist.NodeID, netlist.NodeID) {
	t.Helper()
	c, err := bench.Parse(strings.NewReader(pair), "pair")
	if err != nil {
		t.Fatal(err)
	}
	aN, _ := c.Node("a")
	bN, _ := c.Node("b")
	in := map[netlist.NodeID]logic.InputStats{aN.ID: va, bN.ID: ag}
	var an core.Analyzer
	res, err := an.Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	vN, _ := c.Node("v")
	gN, _ := c.Node("g")
	return res, vN.ID, gN.ID
}

func TestCertainOppositeOverlap(t *testing.T) {
	// Victim always rises at 0 (+unit delay = 1); aggressor always
	// falls at 0 (+1 = 1). Window 0.5 covers the co-located bins.
	res, v, g := setup(t,
		logic.InputStats{P: [4]float64{0, 0, 1, 0}, Mu: 0, Sigma: 0},
		logic.InputStats{P: [4]float64{0, 0, 0, 1}, Mu: 0, Sigma: 0},
	)
	cp := Coupling{Victim: v, Aggressor: g, Window: 0.5, Slowdown: 2, Speedup: 1}
	a, err := Analyze(res, cp, ssta.DirRise)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "POpposite", a.POpposite, 1, 1e-9)
	approx(t, "PSame", a.PSame, 0, 1e-9)
	approx(t, "mean shift", a.MeanShift(), 2, 0.05)
	approx(t, "adjusted mass", a.Adjusted.Mass(), 1, 1e-9)
	approx(t, "pessimism", a.Pessimism(), 0, 0.05)
	approx(t, "alignment", a.AlignmentProbability(), 1, 1e-9)
}

func TestNoOverlapFarApart(t *testing.T) {
	// Aggressor switches 6 units after the victim: window 1 never
	// overlaps, so the adjusted t.o.p. equals the base.
	res, v, g := setup(t,
		logic.InputStats{P: [4]float64{0, 0, 1, 0}, Mu: 0, Sigma: 0},
		logic.InputStats{P: [4]float64{0, 0, 0, 1}, Mu: 6, Sigma: 0},
	)
	cp := Coupling{Victim: v, Aggressor: g, Window: 1, Slowdown: 2, Speedup: 1}
	a, err := Analyze(res, cp, ssta.DirRise)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "POpposite", a.POpposite, 0, 1e-12)
	approx(t, "mean shift", a.MeanShift(), 0, 1e-9)
	// Worst case still assumes alignment: pessimism = slowdown.
	approx(t, "pessimism", a.Pessimism(), 2, 1e-9)
}

func TestPartialOverlapMatchesClosedForm(t *testing.T) {
	// Victim rises at exactly 0 (+1); aggressor falls ~N(0,1) (+1).
	// P(|agg − victim| ≤ W) = Φ(W) − Φ(−W).
	res, v, g := setup(t,
		logic.InputStats{P: [4]float64{0, 0, 1, 0}, Mu: 0, Sigma: 0},
		logic.InputStats{P: [4]float64{0, 0, 0, 1}, Mu: 0, Sigma: 1},
	)
	const W = 0.75
	cp := Coupling{Victim: v, Aggressor: g, Window: W, Slowdown: 1, Speedup: 0}
	a, err := Analyze(res, cp, ssta.DirRise)
	if err != nil {
		t.Fatal(err)
	}
	want := dist.NormCDF(W) - dist.NormCDF(-W)
	approx(t, "POpposite", a.POpposite, want, 0.03)
	approx(t, "mean shift", a.MeanShift(), want*1, 0.04)
}

// TestMixedDirectionsPartition: with a uniform aggressor, a victim
// transition sees opposite and same alignment with equal probability
// and the shifts partially cancel.
func TestMixedDirectionsPartition(t *testing.T) {
	res, v, g := setup(t, logic.UniformStats(), logic.UniformStats())
	cp := Coupling{Victim: v, Aggressor: g, Window: 1, Slowdown: 1, Speedup: 1}
	a, err := Analyze(res, cp, ssta.DirRise)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "opp == same", a.POpposite, a.PSame, 1e-9)
	approx(t, "mean shift cancels", a.MeanShift(), 0, 1e-6)
	if a.AlignmentProbability() <= 0.1 {
		t.Errorf("alignment probability = %v, want substantial", a.AlignmentProbability())
	}
	// Crosstalk widens the victim's arrival spread.
	if a.Adjusted.Sigma() <= res.TOP(v, ssta.DirRise).Sigma() {
		t.Error("crosstalk did not widen sigma")
	}
}

// sample draws one cycle behaviour of s: the value from a uniform
// and, for a transition, the arrival time from a normal.
func sample(s logic.InputStats, rng *rand.Rand) (logic.Value, float64) {
	v := s.ValueAt(rng.Float64())
	if !v.Switching() {
		return v, 0
	}
	return v, s.ArrivalAt(rng.NormFloat64())
}

// TestAgainstSampling validates the full mixture against a direct
// simulation of the alignment rule.
func TestAgainstSampling(t *testing.T) {
	va := logic.InputStats{P: [4]float64{0.25, 0.25, 0.25, 0.25}, Mu: 0, Sigma: 1}
	ag := logic.InputStats{P: [4]float64{0.1, 0.1, 0.5, 0.3}, Mu: 0.5, Sigma: 0.8}
	res, v, g := setup(t, va, ag)
	cp := Coupling{Victim: v, Aggressor: g, Window: 0.6, Slowdown: 1.5, Speedup: 0.5}
	a, err := Analyze(res, cp, ssta.DirRise)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(83))
	var m dist.Moments
	var pOpp, pSame, n float64
	for i := 0; i < 400000; i++ {
		vv, vt := sample(va, rng)
		if vv != logic.Rise {
			continue
		}
		vt += 1 // unit buffer delay
		av, at := sample(ag, rng)
		at += 1
		t2 := vt
		switch {
		case av == logic.Fall && math.Abs(at-vt) <= cp.Window:
			t2 += cp.Slowdown
			pOpp++
		case av == logic.Rise && math.Abs(at-vt) <= cp.Window:
			t2 -= cp.Speedup
			pSame++
		}
		m.Add(t2)
		n++
	}
	approx(t, "POpposite", a.POpposite, pOpp/n, 0.02)
	approx(t, "PSame", a.PSame, pSame/n, 0.02)
	approx(t, "adjusted mean", a.AdjustedMean, m.Mean(), 0.02)
	approx(t, "adjusted sigma", a.Adjusted.Sigma(), m.Sigma(), 0.03)
}

func TestExpectedDeltaDelay(t *testing.T) {
	res, v, g := setup(t,
		logic.InputStats{P: [4]float64{0, 0, 1, 0}, Mu: 0, Sigma: 0},
		logic.InputStats{P: [4]float64{0, 0, 0, 1}, Mu: 0, Sigma: 0},
	)
	cp := Coupling{Victim: v, Aggressor: g, Window: 0.5, Slowdown: 2, Speedup: 0}
	dd, err := ExpectedDeltaDelay(res, cp)
	if err != nil {
		t.Fatal(err)
	}
	// Victim always rises and always overlaps: E[Δ] = 1 · 2.
	approx(t, "expected delta", dd, 2, 0.05)
}

func TestAnalyzeAllAndValidation(t *testing.T) {
	res, v, g := setup(t, logic.UniformStats(), logic.UniformStats())
	as, err := AnalyzeAll(res, []Coupling{
		{Victim: v, Aggressor: g, Window: 0.5, Slowdown: 1},
		{Victim: g, Aggressor: v, Window: 0.5, Slowdown: 1},
	})
	if err != nil || len(as) != 4 {
		t.Fatalf("AnalyzeAll = %d, %v", len(as), err)
	}
	if _, err := Analyze(res, Coupling{Victim: v, Aggressor: g, Window: -1}, ssta.DirRise); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := Analyze(res, Coupling{Victim: v, Aggressor: g, Slowdown: -1}, ssta.DirRise); err == nil {
		t.Error("negative slowdown accepted")
	}
	if _, err := Analyze(res, Coupling{Victim: -1, Aggressor: g}, ssta.DirRise); err == nil {
		t.Error("out-of-range victim accepted")
	}
}

func TestZeroMassVictim(t *testing.T) {
	// A victim that never transitions yields a zero-mass analysis.
	res, v, g := setup(t,
		logic.InputStats{P: [4]float64{1, 0, 0, 0}},
		logic.UniformStats(),
	)
	a, err := Analyze(res, Coupling{Victim: v, Aggressor: g, Window: 1, Slowdown: 1}, ssta.DirRise)
	if err != nil {
		t.Fatal(err)
	}
	if a.Adjusted.Mass() != 0 || a.POpposite != 0 {
		t.Errorf("zero-mass victim: %+v", a)
	}
}
