package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/algorithms"
	"repro/internal/model"
	"repro/internal/view"
)

// This file holds each workload's run functions and report text. A
// faulty run (r.sched != nil) reports survivor-safety counts in place
// of the clean run's guarantees.

// gatherSlack is gather's headroom beyond its clean horizon for nodes
// transiently down at their halting round (the algorithms package
// grants its word-lane workloads the same).
const gatherSlack = 256

func coleVishkinFlat(r *run, res *Result) error {
	ids, e := r.ids(), r.wordEngine()
	if r.sched == nil {
		out, err := algorithms.ColeVishkinMISOn(e, r.h, ids)
		if err != nil {
			return err
		}
		res.Rounds, res.Size, res.Solution = out.Rounds, out.MIS.Size(), out.MIS
		return nil
	}
	out, err := algorithms.ColeVishkinMISFaultyOn(e, r.h, ids, r.sched)
	if err != nil {
		return err
	}
	res.Rounds, res.Size, res.Faults = out.Rounds, out.MIS.Size(), out.Report
	res.Violations, res.Uncovered = out.Violations, out.Uncovered
	return nil
}

// coleVishkinSharded draws identifiers from model.SeededIDs, which
// needs no table at 10^8 nodes and bounds the id space by n-1.
func coleVishkinSharded(r *run, res *Result) error {
	n := r.se.Source().N()
	ids := model.SeededIDs(n, r.spec.Seed)
	var out *algorithms.ShardedCVResult
	var err error
	if r.sched == nil {
		out, err = algorithms.ColeVishkinMISSharded(r.se, ids, int(n-1))
	} else {
		out, err = algorithms.ColeVishkinMISShardedFaulty(r.se, ids, int(n-1), r.sched)
	}
	if err != nil {
		return err
	}
	res.Rounds, res.Size, res.Faults = out.Rounds, int(out.MISSize), out.Report
	res.Violations, res.Uncovered = int(out.Violations), int(out.Uncovered)
	return nil
}

func coleVishkinText(res *Result) string {
	// The sharded run checks its MIS itself.
	return sizeText("|MIS|", res, fmt.Sprintf("   violations: %d   uncovered: %d", res.Violations, res.Uncovered), "   feasible: yes")
}

func matchingFlat(r *run, res *Result) error {
	e := r.wordEngine()
	res.Rounds = 2
	if r.sched == nil {
		sol, err := algorithms.RandomizedMatchingOn(e, r.h, r.rng)
		if err != nil {
			return err
		}
		res.Size, res.Solution = sol.Size(), sol
		return nil
	}
	out, err := algorithms.RandomizedMatchingFaultyOn(e, r.h, r.rng, r.sched)
	if err != nil {
		return err
	}
	res.Size, res.Conflicts, res.Faults = out.Matching.Size(), out.Conflicts, out.Report
	return nil
}

func matchingSharded(r *run, res *Result) error {
	rng := rand.New(rand.NewSource(r.spec.Seed))
	var out *algorithms.ShardedMatchingResult
	var err error
	if r.sched == nil {
		out, err = algorithms.RandomizedMatchingSharded(r.se, rng)
	} else {
		out, err = algorithms.RandomizedMatchingShardedFaulty(r.se, rng, r.sched)
	}
	if err != nil {
		return err
	}
	res.Rounds, res.Size, res.Conflicts, res.Faults = 2, int(out.Matched), int(out.Conflicts), out.Report
	return nil
}

func matchingText(res *Result) string {
	conflicts := fmt.Sprintf("   conflicts: %d", res.Conflicts)
	return sizeText("|M|", res, conflicts, conflicts)
}

// sizeText is the text of a workload that returns a solution: its
// size, then a faulty run's tallies and safety counts, or a clean
// run's size per node and, sharded, what the sharded run checked.
func sizeText(unit string, res *Result, safety, sharded string) string {
	if res.Faults != nil {
		return fmt.Sprintf("%s = %d%s%s", unit, res.Size, faultText(res), safety)
	}
	s := fmt.Sprintf("%s = %d   %s/n = %.4f", unit, res.Size, unit, float64(res.Size)/float64(res.N))
	if res.Sharded != nil {
		s += sharded
	}
	return s
}

// gatherFlat counts the distinct radius-r views, leaving out those of
// crashed nodes.
func gatherFlat(r *run, res *Result) error {
	res.Radius = r.spec.Rmax
	if res.Radius < 1 {
		res.Radius = 2
	}
	maxRounds := res.Radius + 2
	if r.sched != nil {
		maxRounds += gatherSlack
	}
	trees, rounds, rep, err := model.RunGather(r.ctx, r.h, res.Radius, maxRounds, r.sched)
	if err != nil {
		return err
	}
	types := map[*view.Tree]bool{}
	for v, t := range trees {
		if !rep.CrashedNode(v) {
			types[t] = true
		}
	}
	res.Rounds, res.Size, res.Faults = rounds, len(types), rep
	return nil
}

func gatherText(res *Result) string {
	return fmt.Sprintf("radius-%d view types: %d%s", res.Radius, res.Size, faultText(res))
}

// floodFlat floods for the spec's horizon, or n rounds when it is 0.
func floodFlat(r *run, res *Result) error {
	rounds := r.spec.Rounds
	if rounds < 1 {
		rounds = r.h.G.N()
	}
	ids, e := r.ids(), r.wordEngine()
	var out *algorithms.FloodMaxResult
	var err error
	if r.sched == nil {
		out, err = algorithms.FloodMaxOn(e, r.h, ids, rounds)
	} else {
		out, err = algorithms.FloodMaxFaultyOn(e, r.h, ids, rounds, r.sched)
	}
	if err != nil {
		return err
	}
	res.Rounds, res.Leader, res.Size, res.Faults = out.Rounds, out.Leader, out.Converged, out.Report
	return nil
}

func floodText(res *Result) string {
	return fmt.Sprintf("leader: %d   converged@: %d%s", res.Leader, res.Size, faultText(res))
}

// faultText is the fault tally of a faulty run's report line.
func faultText(res *Result) string {
	if res.Faults == nil {
		return ""
	}
	f := res.Faults
	return fmt.Sprintf("   crashed: %d   dropped: %d   duplicated: %d   reordered: %d   down-steps: %d",
		f.NumCrashed, f.Dropped, f.Duplicated, f.Reordered, f.DownSteps)
}
