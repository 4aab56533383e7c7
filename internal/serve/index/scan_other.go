//go:build !amd64

package index

// useAVX2 is never set off amd64: passing always runs passingGeneric.
// It is a variable so that the tests that force the generic loop on
// amd64 build everywhere.
var useAVX2 = false

func passingAVX2(sigs []uint64, want uint64) int { return passingGeneric(sigs, want) }
