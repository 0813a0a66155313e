package dist

import (
	"math"
	"math/rand"
	"testing"
)

func TestMomentsAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 5000)
	var m Moments
	for i := range xs {
		xs[i] = rng.NormFloat64()*2 + 3
		m.Add(xs[i])
	}
	// Direct two-pass computation.
	n := float64(len(xs))
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var m2 float64
	for _, x := range xs {
		d := x - mean
		m2 += d * d
	}
	m2 /= n
	approx(t, "Mean", m.Mean(), mean, 1e-9)
	approx(t, "Var", m.Var(), m2, 1e-9)
	approx(t, "Sigma", m.Sigma(), math.Sqrt(m2), 1e-9)
	if m.N() != 5000 {
		t.Errorf("N = %d", m.N())
	}
}

func TestMomentsEmptyAndConstant(t *testing.T) {
	var m Moments
	if m.Mean() != 0 || m.Var() != 0 {
		t.Error("empty accumulator nonzero")
	}
	for i := 0; i < 10; i++ {
		m.Add(7)
	}
	approx(t, "const mean", m.Mean(), 7, 1e-12)
	approx(t, "const var", m.Var(), 0, 1e-12)
}

func TestMomentsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var all, a, b Moments
	for i := 0; i < 3000; i++ {
		x := rng.ExpFloat64()
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	approx(t, "merged mean", a.Mean(), all.Mean(), 1e-9)
	approx(t, "merged var", a.Var(), all.Var(), 1e-9)
	if a.N() != all.N() {
		t.Errorf("merged N = %d, want %d", a.N(), all.N())
	}

	// Merging into empty and merging empty.
	var e Moments
	e.Merge(&a)
	approx(t, "empty-merge mean", e.Mean(), a.Mean(), 0)
	before := a.Mean()
	var e2 Moments
	a.Merge(&e2)
	approx(t, "merge-empty mean", a.Mean(), before, 0)
}

func TestCovAccumulator(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var c Cov
	var mx, my Moments
	xs := make([]float64, 4000)
	ys := make([]float64, 4000)
	for i := range xs {
		x := rng.NormFloat64()
		y := 0.6*x + 0.8*rng.NormFloat64()
		xs[i], ys[i] = x, y
		c.Add(x, y)
		mx.Add(x)
		my.Add(y)
	}
	// Direct covariance.
	var s float64
	for i := range xs {
		s += (xs[i] - mx.Mean()) * (ys[i] - my.Mean())
	}
	s /= float64(len(xs))
	approx(t, "Cov", c.Cov(), s, 1e-9)
	if c.N() != 4000 {
		t.Errorf("N = %d", c.N())
	}
	var empty Cov
	if empty.Cov() != 0 {
		t.Error("empty Cov nonzero")
	}
}

func TestMomentsGaussianShape(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var m Moments
	for i := 0; i < 400000; i++ {
		m.Add(rng.NormFloat64())
	}
	approx(t, "gaussian mean", m.Mean(), 0, 0.005)
	approx(t, "gaussian var", m.Var(), 1, 0.01)
}
