package algorithms

import (
	"fmt"

	"repro/internal/model"
)

// FloodMax is the long-horizon workload of the job subsystem: every
// node floods the largest identifier it has heard for a caller-chosen
// number of rounds and reports whether the flood converged (every
// surviving node knows the global maximum). Unlike Cole–Vishkin's
// O(log* n) schedule, the horizon here is a free parameter, which is
// what makes FloodMax the natural subject for checkpoint/resume and
// crash-recovery drills: a run can be made arbitrarily long on any
// host, its state is one uint64 per node (checkpointed as it is),
// and its result is a deterministic function of (host, ids,
// rounds, profile, seed).

// floodFaultSlack mirrors the gather workloads: headroom beyond the
// clean horizon for nodes transiently down at their halting round.
const floodFaultSlack = 256

// FloodMaxResult reports a FloodMax run.
type FloodMaxResult struct {
	// Rounds is the number of communication rounds executed.
	Rounds int
	// Leader is the global maximum identifier (the value a complete
	// flood converges to).
	Leader int
	// Converged counts surviving nodes that learned the leader.
	Converged int
	// Report is the fault report; nil on clean runs.
	Report *model.FaultReport
}

// floodMaxWordAlgo floods the max-id word for the given horizon.
// Halting is round >= rounds (not ==) so a node transiently down at
// its halting round halts at its next up round, like the other word
// workloads.
//
// It is kept out of line: inlined into a caller, its step closure
// would be compiled again as a copy in which the cursor methods are
// called instead of inlined (tools/inlinecheck.sh).
//
//go:noinline
func floodMaxWordAlgo(rounds int) model.WordAlgo {
	return model.WordAlgo{
		Init: func(v int64, info model.NodeInfo) uint64 { return uint64(info.ID) },
		Step: func(c *model.Chunk, states []uint64) {
			halt := c.Round >= rounds
			for c.Next() {
				s := states[c.Node]
				for _, w := range c.Inbox {
					s = max(s, w)
				}
				states[c.Node] = s
				if halt {
					c.Halt()
					continue
				}
				c.Broadcast(s)
			}
		},
		Out: func(state *uint64) model.Output { return model.Output{} },
	}
}

// floodPlan validates a FloodMax instance and returns the leader.
func floodPlan(h *model.Host, ids []int, rounds int) (leader int, err error) {
	if len(ids) != h.G.N() {
		return 0, fmt.Errorf("algorithms: FloodMax: %d ids for %d nodes", len(ids), h.G.N())
	}
	if rounds < 1 {
		return 0, fmt.Errorf("algorithms: FloodMax: rounds must be >= 1 (got %d)", rounds)
	}
	for _, id := range ids {
		if id < 0 {
			return 0, fmt.Errorf("algorithms: FloodMax: negative id %d", id)
		}
		if id > leader {
			leader = id
		}
	}
	return leader, nil
}

// FloodMax runs the flood on a fresh engine. See FloodMaxOn.
func FloodMax(h *model.Host, ids []int, rounds int) (*FloodMaxResult, error) {
	return FloodMaxOn(model.NewWordEngine(h), h, ids, rounds)
}

// FloodMaxOn runs the flood on a caller-provided engine, so the caller
// (internal/workload) can arm it with a cancellation context, a
// Checkpointer and a resume snapshot before handing it over.
func FloodMaxOn(e *model.WordEngine, h *model.Host, ids []int, rounds int) (*FloodMaxResult, error) {
	leader, err := floodPlan(h, ids, rounds)
	if err != nil {
		return nil, err
	}
	col, executed, err := e.RunStates(ids, floodMaxWordAlgo(rounds), rounds+2)
	if err != nil {
		return nil, fmt.Errorf("algorithms: FloodMax: %w", err)
	}
	res := &FloodMaxResult{Rounds: executed, Leader: leader}
	for _, w := range col {
		if int(w) == leader {
			res.Converged++
		}
	}
	return res, nil
}

// FloodMaxFaultyOn is FloodMaxOn under a fault schedule: crashed
// nodes are excluded from the convergence count, and the horizon gets
// the standard slack so transiently down nodes can still halt.
func FloodMaxFaultyOn(e *model.WordEngine, h *model.Host, ids []int, rounds int, sched model.Schedule) (*FloodMaxResult, error) {
	leader, err := floodPlan(h, ids, rounds)
	if err != nil {
		return nil, err
	}
	col, executed, rep, err := e.RunStatesFaulty(ids, floodMaxWordAlgo(rounds), rounds+2+floodFaultSlack, sched)
	if err != nil {
		return nil, fmt.Errorf("algorithms: FloodMax: %w", err)
	}
	res := &FloodMaxResult{Rounds: executed, Leader: leader, Report: rep}
	for v, w := range col {
		if rep.CrashedNode(v) {
			continue
		}
		if int(w) == leader {
			res.Converged++
		}
	}
	return res, nil
}
