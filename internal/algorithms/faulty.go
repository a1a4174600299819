package algorithms

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// This file runs the repo's two flagship operational algorithms —
// Cole–Vishkin MIS and the one-round randomized matching — under a
// fault schedule, and measures what survives: the clean variants
// enforce their guarantees as hard errors, while these return the
// degraded output together with survivor-safety counts (violations
// among the nodes that did not crash), which is what the E17
// degradation experiments plot. Every run is deterministic in
// (host, ids/rng, schedule), so a degradation data point reproduces
// from its seed and profile descriptor alone.

// faultSlack is the extra round budget granted to faulty runs beyond
// the clean horizon: a node transiently down at its halting round
// halts at its next up round, so crash-recover and churn schedules
// need headroom the clean schedule does not. 256 rounds makes a
// stuck run astronomically unlikely (a node must be down 256
// consecutive rounds) while costing nothing when unused — only
// non-halted nodes occupy the worklist.
const faultSlack = 256

// FaultyCVResult reports a Cole–Vishkin run under a fault schedule.
type FaultyCVResult struct {
	// MIS is the computed vertex set (crashed nodes never members).
	MIS *model.Solution
	// Rounds is the number of rounds actually executed.
	Rounds int
	// Report summarises the injected faults.
	Report *model.FaultReport
	// Violations counts surviving adjacent pairs that are both in the
	// set — independence failures caused by lost coordination.
	Violations int
	// Uncovered counts surviving non-members with no surviving member
	// neighbour — maximality failures (legitimate degradation near
	// crashed regions, guaranteed 0 on a clean schedule).
	Uncovered int
}

// ColeVishkinMISFaulty is ColeVishkinMIS under a fault schedule. The
// clean variant's postconditions (a proper 3-colouring, an MIS) can
// no longer be promised — dropped colours desynchronise the
// reduction and crashed nodes leave their neighbourhoods
// uncoordinated — so instead of failing, the run reports the
// survivor-safety counts of CVSurvivorSafety. A nil schedule
// reproduces the clean result with zero counts.
func ColeVishkinMISFaulty(h *model.Host, ids []int, sched model.Schedule) (*FaultyCVResult, error) {
	return ColeVishkinMISFaultyOn(model.NewWordEngine(h), h, ids, sched)
}

// ColeVishkinMISFaultyOn is ColeVishkinMISFaulty on a caller-provided
// engine (see ColeVishkinMISOn).
func ColeVishkinMISFaultyOn(e *model.WordEngine, h *model.Host, ids []int, sched model.Schedule) (*FaultyCVResult, error) {
	steps, last, err := cvPlanFlat(h, ids)
	if err != nil {
		return nil, err
	}
	col, rounds, rep, err := e.RunStatesFaulty(ids, coleVishkinWordAlgo(steps, last), last+2+faultSlack, sched)
	if err != nil {
		return nil, fmt.Errorf("algorithms: faulty Cole–Vishkin: %w", err)
	}
	res := &FaultyCVResult{
		MIS:    model.NewSolution(model.VertexKind, h.G.N()),
		Rounds: rounds,
		Report: rep,
	}
	for v, w := range col {
		if rep.CrashedNode(v) {
			continue
		}
		res.MIS.Vertices[v] = w&cvMISBit != 0
	}
	res.Violations, res.Uncovered = CVSurvivorSafety(h, rep, res.MIS)
	return res, nil
}

// CVSurvivorSafety checks an independent-set solution among the
// surviving (non-crashed) nodes: violations counts surviving
// adjacent member pairs, uncovered counts surviving non-members
// whose surviving neighbours are all non-members. Both are 0 exactly
// when the solution restricted to survivors is an MIS of the
// survivor-induced subgraph.
func CVSurvivorSafety(h *model.Host, rep *model.FaultReport, mis *model.Solution) (violations, uncovered int) {
	g := h.G
	for v := 0; v < g.N(); v++ {
		if rep.CrashedNode(v) {
			continue
		}
		if mis.Vertices[v] {
			for _, u := range g.Neighbors(v) {
				if int(u) > v && !rep.CrashedNode(int(u)) && mis.Vertices[u] {
					violations++
				}
			}
			continue
		}
		covered := false
		for _, u := range g.Neighbors(v) {
			if !rep.CrashedNode(int(u)) && mis.Vertices[u] {
				covered = true
				break
			}
		}
		if !covered {
			uncovered++
		}
	}
	return violations, uncovered
}

// FaultyMatchingResult reports a randomized-matching run under a
// fault schedule.
type FaultyMatchingResult struct {
	// Matching is the selected edge set, restricted to edges whose
	// endpoints both survived.
	Matching *model.Solution
	// Report summarises the injected faults.
	Report *model.FaultReport
	// Conflicts counts vertices incident to more than one selected
	// edge. The proposal protocol keeps this 0 under every schedule —
	// each node only ever selects the one edge it proposed — and the
	// checker verifies that safety property rather than assuming it.
	Conflicts int
}

// RandomizedMatchingFaulty is RandomizedMatching under a fault
// schedule: the same sequentially drawn proposals are exchanged
// over the faulty plane, so a dropped direction loses at most that
// edge and the output remains a matching — losses shrink it, they
// never corrupt it. Edges with a crashed endpoint are excluded. A nil
// schedule reproduces the clean matching for the same rng stream.
func RandomizedMatchingFaulty(h *model.Host, rng *rand.Rand, sched model.Schedule) (*FaultyMatchingResult, error) {
	return RandomizedMatchingFaultyOn(model.NewWordEngine(h), h, rng, sched)
}

// RandomizedMatchingFaultyOn is RandomizedMatchingFaulty on a
// caller-provided engine (see ColeVishkinMISOn).
func RandomizedMatchingFaultyOn(e *model.WordEngine, h *model.Host, rng *rand.Rand, sched model.Schedule) (*FaultyMatchingResult, error) {
	sol, rep, err := flatMatching(e, h, rng, 3+faultSlack, sched)
	if err != nil {
		return nil, fmt.Errorf("algorithms: faulty randomized matching: %w", err)
	}
	return &FaultyMatchingResult{
		Matching:  sol,
		Report:    rep,
		Conflicts: MatchingConflicts(h.G.N(), sol),
	}, nil
}

// MatchingConflicts counts vertices incident to two or more selected
// edges — 0 exactly when the edge set is a matching.
func MatchingConflicts(n int, sol *model.Solution) int {
	deg := make([]int, n)
	for e := range sol.Edges {
		deg[e.U]++
		deg[e.V]++
	}
	conflicts := 0
	for _, d := range deg {
		if d > 1 {
			conflicts++
		}
	}
	return conflicts
}
