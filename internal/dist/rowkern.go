package dist

// rowKernel is the fast-block body of the direct convolution kernel
// (ConvPlan.convolveDirect). It adds the product mass of a run of
// consecutive source rows into the destination bins, for rows whose
// destination bins all lie inside the grid. Row r of the run has mass
// ps[r], and its destination row is w[r : r+nq+1] with split tables
// one[r : r+nq] and frc[r : r+nq], where nq = len(qs). Rows with zero
// mass are skipped, as in the per-pair loop.
//
// The body is chosen once, from the platform: rowsAVX2 where the CPU
// has AVX2 and the OS saves YMM state, rowsGeneric everywhere else.
// Both compute the same expressions in the same order, so the choice
// never shows in the output.
var rowKernel = rowsGeneric

func init() {
	if hasAVX2 {
		rowKernel = rowsAVX2
	}
}

// rowsGeneric writes every destination bin of a row independently of
// its neighbour:
//
//	wrow[0]  += m_0·one_0
//	wrow[j]   = (wrow[j] + m_{j−1}·frc_{j−1}) + m_j·one_j   (1 ≤ j < nq)
//	wrow[nq] += m_{nq−1}·frc_{nq−1}
//
// with m_j = a·qs[j]. Each bin receives exactly the multiplies and the
// two adds, in the same order, of the per-pair loop: pair j−1 lands
// its frc share on bin j before pair j lands its one share. So the
// rows are bit-identical to it. The explicit float64 conversions
// round every product before its add. Without them an implementation
// may fuse x·y + z into one FMA, which rounds once and changes the
// bits.
func rowsGeneric(w, ps, qs, one, frc []float64) {
	nq := len(qs)
	for r, a := range ps {
		if a == 0 {
			continue
		}
		wrow, ot, ft := w[r:r+nq+1], one[r:r+nq], frc[r:r+nq]
		wrow[0] += float64(float64(a*qs[0]) * ot[0])
		for j := 1; j < nq; j++ {
			prev := float64(float64(a*qs[j-1]) * ft[j-1])
			wrow[j] = float64(wrow[j]+prev) + float64(float64(a*qs[j])*ot[j])
		}
		wrow[nq] += float64(float64(a*qs[nq-1]) * ft[nq-1])
	}
}
