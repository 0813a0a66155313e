package dist

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzConvPlanRow drives the plan's direct kernel — fast rows and
// edge-clamped rows alike — on operand rows placed anywhere on a fine,
// an odd-offset and the 2×/4×-coarsened grids, with zero holes picked
// by a bit mask. On each fast-row body the CPU has (RowKernels) the
// result must equal the per-pair reference bit for bit, and the total
// mass must be the product of the operand masses: the split shares of
// every pair sum to one and clamping moves mass, never drops it.
//
// The seed corpus under testdata/fuzz/FuzzConvPlanRow replays with
// plain `go test`; `go test -fuzz FuzzConvPlanRow` explores further.
func FuzzConvPlanRow(f *testing.F) {
	fine := TimingGrid(30, 0, 1.3)
	grids := []Grid{TimingGrid(20, 0, 1), fine, fine.Coarsen(2), fine.Coarsen(4)}
	f.Fuzz(func(t *testing.T, grid uint8, seed int64, plo, pw, qlo, qw uint16, holes uint64) {
		g := grids[int(grid)%len(grids)]
		rng := rand.New(rand.NewSource(seed))
		row := func(lo, w uint16, holes uint64) *PMF {
			l := int(lo) % g.N
			h := l + 1 + int(w)%min(64, g.N-l)
			p := randPMF(g, rng, l, h)
			for i := l; i < h; i++ {
				if holes&(1<<((i-l)%64)) != 0 {
					p.w[i] = 0 // support bounds kept: zero bins inside are legal
				}
			}
			return p
		}
		p := row(plo, pw, holes)
		q := row(qlo, qw, holes>>32|holes<<32)
		want := referenceDirectInto(NewPMF(g), p, q)
		mass := p.Mass() * q.Mass()
		pl := PlanFor(g)
		for _, kern := range RowKernels() {
			restore := SetRowKernel(kern)
			got := NewPMF(g)
			pl.convolveDirect(got, p, q)
			restore()
			requireSameBins(t, kern, want, got)
			if m := got.Mass(); math.Abs(m-mass) > 1e-12*max(mass, 1e-300) {
				t.Fatalf("%s: mass %v, want %v (operands %v × %v)", kern, m, mass, p.Mass(), q.Mass())
			}
		}
	})
}
