package dist

// ReferenceConvolveInto exposes the per-pair reference kernel to the
// external test package (the plan-kernel bench guard).
var ReferenceConvolveInto = referenceConvolveInto

// RowKernels names the fast-row bodies this CPU can run: "generic"
// always, "avx2" where the platform selection picks the SIMD body.
func RowKernels() []string {
	if hasAVX2 {
		return []string{"generic", "avx2"}
	}
	return []string{"generic"}
}

// SetRowKernel makes every ConvPlan run the named fast-row body (one
// of RowKernels) and returns the function that restores the platform
// selection. Tests only: the switch is not synchronized with running
// convolutions.
func SetRowKernel(name string) (restore func()) {
	prev := rowKernel
	switch {
	case name == "generic":
		rowKernel = rowsGeneric
	case name == "avx2" && hasAVX2:
		rowKernel = rowsAVX2
	default:
		panic("dist: row kernel " + name + " not available on this CPU")
	}
	return func() { rowKernel = prev }
}
