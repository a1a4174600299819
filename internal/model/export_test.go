package model

// The per-node test-step form, its adapter to chunk steps and the
// specification loop, on uint64 states, under the names the external
// test package uses.
type (
	SpecMsg   = wordMsg
	SpecSends = sends
)

var (
	SpecStep = chunkStep[uint64]
	SpecRun  = specRun[uint64]
)
