package algorithms

import (
	"math/rand"

	"repro/internal/model"
)

// This file is the engine-injection surface of the flagship
// algorithms: each On variant runs its plain twin on a caller-provided
// word engine, so the caller controls how the engine is armed —
// model.Engine.WithContext for cancellation, WithCheckpoints for
// barrier snapshots, Resume to continue an interrupted run — and can
// reuse one warmed message plane across attempts. The workload
// registry (internal/workload) is the caller: it arms the engine with
// the surface's context, checkpointer and resume snapshot and hands
// it here.

// ColeVishkinMISOn is ColeVishkinMIS on a caller-provided engine.
func ColeVishkinMISOn(e *model.WordEngine, h *model.Host, ids []int) (*ColeVishkinResult, error) {
	return coleVishkinOn(e, h, ids)
}

// ColeVishkinMISFaultyOn is ColeVishkinMISFaulty on a caller-provided
// engine.
func ColeVishkinMISFaultyOn(e *model.WordEngine, h *model.Host, ids []int, sched model.Schedule) (*FaultyCVResult, error) {
	return coleVishkinFaultyOn(e, h, ids, sched)
}

// RandomizedMatchingOn is RandomizedMatching on a caller-provided
// engine (error-returning: an armed context can abort the run
// mid-protocol).
func RandomizedMatchingOn(e *model.WordEngine, h *model.Host, rng *rand.Rand) (*model.Solution, error) {
	return randomizedMatchingErr(e, h, rng)
}

// RandomizedMatchingFaultyOn is RandomizedMatchingFaulty on a
// caller-provided engine.
func RandomizedMatchingFaultyOn(e *model.WordEngine, h *model.Host, rng *rand.Rand, sched model.Schedule) (*FaultyMatchingResult, error) {
	return randomizedMatchingFaultyOn(e, h, rng, sched)
}
