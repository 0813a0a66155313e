package dist

import (
	"math"
	"math/rand"
	"testing"
)

// referenceConvolveInto is the historical per-pair convolution kernel,
// kept in test code as the independent reference for ConvPlan, the
// one production kernel. It dispatches wide operands to the FFT path
// exactly as ConvPlan.ConvolveInto does and runs every other pair
// through referenceDirectInto. It records no metrics.
func referenceConvolveInto(dst, p, q *PMF) *PMF {
	p.grid.check(q.grid, "Convolve")
	p.grid.check(dst.grid, "Convolve")
	dst.Reset()
	sa, sb := p.hi-p.lo, q.hi-q.lo
	if sa == 0 || sb == 0 {
		return dst
	}
	if sa >= fftCrossover && sb >= fftCrossover {
		convolveFFTInto(dst, p, q)
		return dst
	}
	return referenceDirectInto(dst, p, q)
}

// referenceDirectInto adds the direct O(sa·sb) convolution of p and q
// into dst regardless of support size: for every pair of non-zero
// bins it recomputes the fractional destination bin
// k = i + j + Lo/Dt + 1/2, splits the product mass linearly between
// floor(k) and floor(k)+1 and clamps out-of-grid mass to the edge
// bins.
func referenceDirectInto(dst, p, q *PMF) *PMF {
	g := p.grid
	clampAdd := func(i int, v float64) {
		if v == 0 {
			return
		}
		if i < 0 {
			i = 0
		}
		if i >= g.N {
			i = g.N - 1
		}
		dst.w[i] += v
		dst.expand(i)
	}
	off := g.Lo/g.Dt + 0.5
	for i := p.lo; i < p.hi; i++ {
		a := p.w[i]
		if a == 0 {
			continue
		}
		for j := q.lo; j < q.hi; j++ {
			b := q.w[j]
			if b == 0 {
				continue
			}
			m := a * b
			k := float64(i+j) + off
			base := math.Floor(k)
			frac := k - base
			clampAdd(int(base), m*(1-frac))
			clampAdd(int(base)+1, m*frac)
		}
	}
	return dst
}

// randomOperand draws a sub-unit-mass PMF on g whose support sits
// anywhere on the grid — flush against either edge included — with a
// random width below maxW and, sometimes, exact-zero holes inside the
// support and at its edges.
func randomOperand(g Grid, rng *rand.Rand, maxW int) *PMF {
	w := 1 + rng.Intn(min(maxW, g.N))
	var lo int
	switch rng.Intn(4) {
	case 0:
		lo = 0
	case 1:
		lo = g.N - w
	default:
		lo = rng.Intn(g.N - w + 1)
	}
	p := randPMF(g, rng, lo, lo+w)
	p.Scale(0.05 + 0.95*rng.Float64())
	if rng.Intn(2) == 0 {
		for h := rng.Intn(4); h > 0; h-- {
			i := lo + rng.Intn(w)
			p.w[i] = 0 // support bounds kept: zero bins inside are legal
		}
	}
	return p
}

// TestConvPlanMatchesReferenceRandom is the bit-identity property of
// the one production kernel: on random operands — edge-clamped rows,
// zero holes, narrow and FFT-wide supports — over fine, odd-offset
// and 2×/4×-coarsened grids, PlanFor(g).ConvolveInto produces exactly
// the bins of the per-pair reference, on each fast-row body the CPU
// has (RowKernels).
func TestConvPlanMatchesReferenceRandom(t *testing.T) {
	fine := TimingGrid(30, 0, 1.3)
	grids := map[string]Grid{
		"timing":    TimingGrid(20, 0, 1),
		"odd-lo":    fine,
		"coarsen-2": fine.Coarsen(2),
		"coarsen-4": fine.Coarsen(4),
		"tiny":      NewGrid(-1, 1, 0.25),
	}
	for name, g := range grids {
		t.Run(name, func(t *testing.T) {
			pl := PlanFor(g)
			for _, kern := range RowKernels() {
				t.Run(kern, func(t *testing.T) {
					t.Cleanup(SetRowKernel(kern))
					rng := rand.New(rand.NewSource(2211))
					for trial := 0; trial < 150; trial++ {
						maxW := 48
						if trial%10 == 0 {
							maxW = g.N // FFT-wide operands where the grid allows
						}
						p := randomOperand(g, rng, maxW)
						q := randomOperand(g, rng, maxW)
						want := referenceConvolveInto(NewPMF(g), p, q)
						got := pl.ConvolveInto(NewPMF(g), p, q)
						requireSameBins(t, name, want, got)
						via := p.ConvolveInto(NewScratch(g), q)
						requireSameBins(t, name+"/PMF.ConvolveInto", want, via)
						via.Release()
					}
				})
			}
		})
	}
}

// TestConvPlanNonContiguous covers the plan's fallback for a grid
// whose offset sits within half an ulp of an integer, so floor(s+off)
// skips a bin somewhere and no row may take the fast path: every row
// must still match the per-pair reference bit for bit, whichever
// fast-row body is selected.
func TestConvPlanNonContiguous(t *testing.T) {
	var g Grid
	var pl *ConvPlan
	for lo := math.Nextafter(2.5, 0); lo > 2.49; lo = math.Nextafter(lo, 0) {
		cand := NewGrid(lo, lo+64, 1)
		if p := NewConvPlan(cand); !p.contig {
			g, pl = cand, p
			break
		}
	}
	if pl == nil {
		t.Fatal("found no grid with a non-contiguous split table")
	}
	for _, kern := range RowKernels() {
		t.Run(kern, func(t *testing.T) {
			t.Cleanup(SetRowKernel(kern))
			rng := rand.New(rand.NewSource(9))
			for trial := 0; trial < 100; trial++ {
				p := randomOperand(g, rng, 24)
				q := randomOperand(g, rng, 24)
				requireSameBins(t, "non-contig",
					referenceConvolveInto(NewPMF(g), p, q), pl.ConvolveInto(NewPMF(g), p, q))
			}
		})
	}
}
