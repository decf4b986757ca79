//go:build !amd64

package bitslice

// hasVec is false off amd64: the generated Go form is the only kernel.
const hasVec = false

// transpose64Vec is unreachable off amd64 (hasVec is false); it exists
// so that Transpose64 has one body for every architecture.
func transpose64Vec(a *[64]uint64) { transpose64Generic(a) }
