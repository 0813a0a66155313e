package dist

// ReferenceConvolveInto exposes the per-pair reference kernel to the
// external test package (the plan-kernel bench guard).
var ReferenceConvolveInto = referenceConvolveInto
