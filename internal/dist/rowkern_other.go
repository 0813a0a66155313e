//go:build !amd64

package dist

// hasAVX2 is false off amd64, so rowKernel stays rowsGeneric.
const hasAVX2 = false

// rowsAVX2 exists off amd64 only so the selection compiles; it is
// never chosen there.
func rowsAVX2(w, ps, qs, one, frc []float64) {
	panic("dist: rowsAVX2 called without AVX2")
}
