package algorithms

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// This file runs the two flagship operational algorithms on the
// sharded giant-host plane (model.ShardedEngine). The algorithms are
// the very values the flat engine runs — coleVishkinWordAlgo and
// proposalAlgo — so a P=1 sharded run is byte-identical to the
// unsharded run by construction, and the differential tests pin it.
// What changes is the bookkeeping around the run: identifiers come
// from an IDFunc instead of a slice, and results are extracted
// streaming (histograms and counts, never an n-length column), so
// 10^8-node hosts stay within per-shard bounded memory.

// ShardedCVResult reports a Cole–Vishkin run on the sharded plane.
// Per-node colours and membership stay inside the engine (decode them
// with CVState under VisitStates); the result carries the aggregates
// the experiments plot.
type ShardedCVResult struct {
	// Rounds is the number of rounds actually executed.
	Rounds int
	// MISSize counts members among surviving nodes.
	MISSize int64
	// Colors is the final colour histogram over surviving nodes.
	Colors [3]int64
	// Report summarises injected faults (nil on clean runs).
	Report *model.FaultReport
	// Violations and Uncovered are the survivor-safety counts of
	// CVSurvivorSafetySharded. On a clean run both are checked to be 0
	// before the result is returned.
	Violations int64
	Uncovered  int64
}

// CVState decodes a packed Cole–Vishkin state word into its colour
// and membership — the VisitStates companion for streaming result
// consumers.
func CVState(w uint64) (color int, inMIS bool) {
	return int(w & cvColorMask), w&cvMISBit != 0
}

// ColeVishkinMISSharded runs Cole–Vishkin MIS on a sharded engine
// whose source is a consistently oriented cycle. ids assigns the
// global identifiers (model.SeededIDs needs no materialised table)
// and maxID bounds the id space — for SeededIDs over n nodes that is
// n-1. The clean guarantees are enforced: a colour outside {0,1,2} or
// a survivor-safety failure is an error, exactly as on the flat
// plane.
func ColeVishkinMISSharded(se *model.ShardedEngine, ids model.IDFunc, maxID int) (*ShardedCVResult, error) {
	if ids == nil {
		return nil, errNoShardedIDs
	}
	steps, last, err := cvPlan(se.Source(), maxID)
	if err != nil {
		return nil, err
	}
	rounds, err := se.Run(ids, coleVishkinWordAlgo(steps, last), last+2)
	if err != nil {
		return nil, fmt.Errorf("algorithms: sharded Cole–Vishkin: %w", err)
	}
	res := &ShardedCVResult{Rounds: rounds}
	var bad int64 = -1
	se.VisitStates(func(v int64, w uint64) {
		c, member := CVState(w)
		if c < 0 || c > 2 {
			if bad < 0 {
				bad = v
			}
			return
		}
		res.Colors[c]++
		if member {
			res.MISSize++
		}
	})
	if bad >= 0 {
		c, _ := CVState(se.StateAt(bad))
		return nil, fmt.Errorf("algorithms: node %d ended with colour %d", bad, c)
	}
	res.Violations, res.Uncovered = CVSurvivorSafetySharded(se, nil)
	if res.Violations != 0 || res.Uncovered != 0 {
		return nil, fmt.Errorf("algorithms: sharded Cole–Vishkin: clean run not an MIS (%d violations, %d uncovered)",
			res.Violations, res.Uncovered)
	}
	return res, nil
}

// ColeVishkinMISShardedFaulty is ColeVishkinMISSharded under a fault
// schedule: the run degrades instead of failing, and the result
// reports the survivor-safety counts (see ColeVishkinMISFaulty).
func ColeVishkinMISShardedFaulty(se *model.ShardedEngine, ids model.IDFunc, maxID int, sched model.Schedule) (*ShardedCVResult, error) {
	if ids == nil {
		return nil, errNoShardedIDs
	}
	steps, last, err := cvPlan(se.Source(), maxID)
	if err != nil {
		return nil, err
	}
	rounds, rep, err := se.RunFaulty(ids, coleVishkinWordAlgo(steps, last), last+2+faultSlack, sched)
	if err != nil {
		return nil, fmt.Errorf("algorithms: sharded faulty Cole–Vishkin: %w", err)
	}
	res := &ShardedCVResult{Rounds: rounds, Report: rep}
	se.VisitStates(func(v int64, w uint64) {
		if rep.CrashedNode(int(v)) {
			return
		}
		c, member := CVState(w)
		if c >= 0 && c <= 2 {
			res.Colors[c]++
		}
		if member {
			res.MISSize++
		}
	})
	res.Violations, res.Uncovered = CVSurvivorSafetySharded(se, func(v int64) bool {
		return rep.CrashedNode(int(v))
	})
	return res, nil
}

// errNoShardedIDs rejects a sharded Cole–Vishkin run without
// identifiers.
var errNoShardedIDs = errors.New("algorithms: sharded Cole–Vishkin needs identifiers (see model.SeededIDs)")

// CVSurvivorSafetySharded is CVSurvivorSafety streaming over a shard
// source: violations counts surviving adjacent member pairs,
// uncovered counts surviving non-members with no surviving member
// neighbour. A nil crashed predicate means every node survived.
func CVSurvivorSafetySharded(se *model.ShardedEngine, crashed func(int64) bool) (violations, uncovered int64) {
	src := se.Source()
	var outS, inS []model.ShardArc
	for v, n := int64(0), src.N(); v < n; v++ {
		if crashed != nil && crashed(v) {
			continue
		}
		_, member := CVState(se.StateAt(v))
		outS, inS = src.AppendArcs(v, outS[:0], inS[:0])
		covered := false
		for _, arcs := range [2][]model.ShardArc{outS, inS} {
			for _, a := range arcs {
				u := a.To
				if crashed != nil && crashed(u) {
					continue
				}
				if _, um := CVState(se.StateAt(u)); um {
					covered = true
					if member && u > v {
						violations++
					}
				}
			}
		}
		if !member && !covered {
			uncovered++
		}
	}
	return violations, uncovered
}

// ShardedMatchingResult reports a randomized-matching run on the
// sharded plane. The selected edges stay inside the engine (stream
// them with VisitShardedMatching); the result carries the aggregates.
type ShardedMatchingResult struct {
	// Proposals counts nodes that drew a proposal (non-isolated).
	Proposals int64
	// Matched counts distinct selected edges among survivors.
	Matched int64
	// Conflicts counts surviving vertices incident to more than one
	// selected edge — verified 0 under every schedule, not assumed.
	Conflicts int64
	// Report summarises injected faults (nil on clean runs).
	Report *model.FaultReport
}

// RandomizedMatchingSharded runs the one-round mutual-proposal
// matching on a sharded engine. It runs proposalAlgo, as the flat
// entries do, whose Init draws from rng in global node order, so for
// the same seed the selected edge set equals the flat run's. The host
// must be simple (at most one arc between any node pair).
func RandomizedMatchingSharded(se *model.ShardedEngine, rng *rand.Rand) (*ShardedMatchingResult, error) {
	if _, err := se.Run(nil, proposalAlgo(se.Source(), rng), 3); err != nil {
		return nil, fmt.Errorf("algorithms: sharded randomized matching: %w", err)
	}
	res := &ShardedMatchingResult{}
	res.Proposals, res.Matched, res.Conflicts = shardedMatchingTally(se, nil, nil)
	return res, nil
}

// RandomizedMatchingShardedFaulty is RandomizedMatchingSharded under
// a fault schedule: losses shrink the matching, never corrupt it, and
// edges with a crashed endpoint are excluded (see
// RandomizedMatchingFaulty).
func RandomizedMatchingShardedFaulty(se *model.ShardedEngine, rng *rand.Rand, sched model.Schedule) (*ShardedMatchingResult, error) {
	_, rep, err := se.RunFaulty(nil, proposalAlgo(se.Source(), rng), 3+faultSlack, sched)
	if err != nil {
		return nil, fmt.Errorf("algorithms: sharded faulty randomized matching: %w", err)
	}
	res := &ShardedMatchingResult{Report: rep}
	res.Proposals, res.Matched, res.Conflicts = shardedMatchingTally(se, func(v int64) bool {
		return rep.CrashedNode(int(v))
	}, nil)
	return res, nil
}

// VisitShardedMatching streams the selected matching edges as (u, v)
// pairs with u < v, each exactly once, excluding edges with a crashed
// endpoint (nil crashed means every node survived).
func VisitShardedMatching(se *model.ShardedEngine, crashed func(int64) bool, visit func(u, v int64)) {
	shardedMatchingTally(se, crashed, visit)
}

// shardedMatchingTally streams the matching out of the engine state:
// proposals, distinct surviving selected edges (each counted at its
// smaller endpoint; the larger endpoint defers when its partner
// already selected the same edge) and the per-vertex conflict check.
// Per node it re-derives the slot-order peer row from the source —
// the price of never materialising an n-length proposal table.
func shardedMatchingTally(se *model.ShardedEngine, crashed func(int64) bool, visit func(u, v int64)) (proposals, matched, conflicts int64) {
	src := se.Source()
	var outS, inS []model.ShardArc
	var ts []int64
	peer := func(v int64, slot int32) int64 {
		outS, inS = src.AppendArcs(v, outS[:0], inS[:0])
		ts = mergeTargets(ts[:0], outS, inS)
		return ts[slot]
	}
	// selected reports whether u selected the edge {u, w}: u proposed
	// and matched on an arc whose peer is w.
	selected := func(u, w int64) bool {
		s := se.StateAt(u)
		return s&mMatched != 0 && peer(u, int32(s&mSlotMask)) == w
	}
	var outV, inV []model.ShardArc
	var tsV []int64
	se.VisitStates(func(v int64, s uint64) {
		if s&mPropose != 0 {
			proposals++
		}
		dead := crashed != nil && crashed(v)
		if dead {
			return
		}
		outV, inV = src.AppendArcs(v, outV[:0], inV[:0])
		tsV = mergeTargets(tsV[:0], outV, inV)
		// Incident selected edges of v: its own selection plus any
		// neighbour's selection of v. The protocol keeps this at most
		// one edge; count to verify rather than assume.
		incident := int64(0)
		var own int64 = -1
		if s&mMatched != 0 {
			own = tsV[s&mSlotMask]
			if crashed == nil || !crashed(own) {
				incident++
				if v < own {
					matched++
					if visit != nil {
						visit(v, own)
					}
				} else if !selected(own, v) {
					// The partner never selected this edge (its own
					// direction was lost), so the smaller endpoint did
					// not count it — count it here.
					matched++
					if visit != nil {
						visit(own, v)
					}
				}
			}
		}
		for _, u := range tsV {
			if u == own || (crashed != nil && crashed(u)) {
				continue
			}
			if selected(u, v) {
				incident++
			}
		}
		if incident > 1 {
			conflicts++
		}
	})
	return proposals, matched, conflicts
}
