package model

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/view"
)

// Msg is a message travelling along one incident arc, addressed by the
// letter naming the arc at the sending/receiving node.
type Msg struct {
	// L names the arc: at the sender it is the arc the message leaves
	// on; in an inbox it is the arc the message arrived on.
	L view.Letter
	// Data is the payload.
	Data any
}

// NodeInfo is the initial knowledge of a node.
type NodeInfo struct {
	// ID is the node's unique identifier, or -1 in anonymous models.
	ID int
	// Letters names the node's incident arcs: one letter per out-arc
	// (In=false) and per in-arc (In=true).
	Letters []view.Letter
}

// RoundAlgo is a synchronous message-passing algorithm: the classical
// operational formulation of the LOCAL/PO models. Each round every
// node updates its state on the messages received, emits messages for
// the next round, and may halt. A halted node keeps its state and
// sends nothing further.
type RoundAlgo struct {
	// Init returns the initial state.
	Init func(info NodeInfo) any
	// Step consumes the inbox and returns the new state, the outbox,
	// and whether the node halts.
	Step func(state any, round int, inbox []Msg) (any, []Msg, bool)
	// Out extracts the final output from a state.
	Out func(state any) Output
}

// RunRounds executes a round algorithm on the host. In the ID model
// pass per-node identifiers; pass nil for anonymous (PO) execution.
// It returns the per-node outputs and the number of rounds executed,
// failing if some node has not halted after maxRounds.
//
// Execution goes through the batched message-plane Engine (worker-
// parallel, active-set worklist); outputs and round counts are
// byte-identical to RunRoundsReference, which the differential tests
// pin down. Two engine-contract differences from the reference loop:
// the inbox slice handed to Step is only valid during the call, and a
// node may send at most one message per letter per round.
func RunRounds(h *Host, ids []int, algo RoundAlgo, maxRounds int) ([]Output, int, error) {
	states, rounds, err := RunRoundsStates(h, ids, algo, maxRounds)
	if err != nil {
		return nil, 0, err
	}
	outs := make([]Output, len(states))
	for v, st := range states {
		outs[v] = algo.Out(st)
	}
	return outs, rounds, nil
}

// RunRoundsStates is RunRounds exposing the final per-node states
// instead of outputs.
func RunRoundsStates(h *Host, ids []int, algo RoundAlgo, maxRounds int) ([]any, int, error) {
	return NewEngine(h).RunStates(ids, algo.engine(), maxRounds)
}

// RunRoundsStatesCtx is RunRoundsStates under cooperative
// cancellation (Engine.WithContext): the run aborts between rounds
// once ctx is cancelled or past its deadline, returning an error that
// wraps ctx.Err() and handing every reserved worker back to the
// par budget. The gather workload (internal/workload) runs through it.
func RunRoundsStatesCtx(ctx context.Context, h *Host, ids []int, algo RoundAlgo, maxRounds int) ([]any, int, error) {
	return NewEngine(h).WithContext(ctx).RunStates(ids, algo.engine(), maxRounds)
}

// RunRoundsStatesFaultyCtx is RunRoundsFaulty exposing the final
// per-node states, under cooperative cancellation (see
// RunRoundsStatesCtx).
func RunRoundsStatesFaultyCtx(ctx context.Context, h *Host, ids []int, algo RoundAlgo, maxRounds int, sched Schedule) ([]any, int, *FaultReport, error) {
	return NewEngine(h).WithContext(ctx).RunStatesFaulty(ids, algo.engine(), maxRounds, sched)
}

// RunRoundsFaulty is RunRounds executing under a fault schedule (see
// Schedule and ParseProfile): messages are dropped, duplicated and
// reordered and nodes crashed or churned exactly as the schedule
// decides, deterministically in (host, algo, seed, profile). The
// FaultReport summarises the injected faults; crashed nodes'
// outputs are extracted from the last state they reached, and
// FaultReport.CrashedNode says which those are. A nil schedule runs
// clean.
func RunRoundsFaulty(h *Host, ids []int, algo RoundAlgo, maxRounds int, sched Schedule) ([]Output, int, *FaultReport, error) {
	states, rounds, rep, err := NewEngine(h).RunStatesFaulty(ids, algo.engine(), maxRounds, sched)
	if err != nil {
		return nil, 0, nil, err
	}
	outs := make([]Output, len(states))
	for v, st := range states {
		outs[v] = algo.Out(st)
	}
	return outs, rounds, rep, nil
}

// RunRoundsReference is the retained sequential reference loop: per-
// round append-built inboxes, every node visited every round. It is
// the executable specification the Engine is differentially tested
// against (and, unlike the engine, it permits duplicate sends on one
// letter and hands out retainable inbox slices).
func RunRoundsReference(h *Host, ids []int, algo RoundAlgo, maxRounds int) ([]any, int, error) {
	n := h.G.N()
	if ids != nil && len(ids) != n {
		return nil, 0, fmt.Errorf("model: RunRounds: %d ids for %d nodes", len(ids), n)
	}
	states := make([]any, n)
	halted := make([]bool, n)
	for v := 0; v < n; v++ {
		info := NodeInfo{ID: -1, Letters: lettersOf(h, v)}
		if ids != nil {
			info.ID = ids[v]
		}
		states[v] = algo.Init(info)
	}
	inboxes := make([][]Msg, n)
	outboxes := make([][]Msg, n)
	round := 0
	for ; round < maxRounds; round++ {
		allHalted := true
		for v := 0; v < n; v++ {
			if halted[v] {
				continue
			}
			allHalted = false
			st, out, done := algo.Step(states[v], round, inboxes[v])
			states[v] = st
			outboxes[v] = out
			halted[v] = done
		}
		if allHalted {
			break
		}
		for v := range inboxes {
			inboxes[v] = nil
		}
		for v := 0; v < n; v++ {
			for _, m := range outboxes[v] {
				to, ok := resolveLetter(h, v, m.L)
				if !ok {
					return nil, 0, fmt.Errorf("model: round %d: node %d sent on absent letter %v", round, v, m.L)
				}
				// The receiver names the same arc by the inverse letter.
				inboxes[to] = append(inboxes[to], Msg{L: m.L.Inv(), Data: m.Data})
			}
			outboxes[v] = nil
		}
	}
	for v := 0; v < n; v++ {
		if !halted[v] {
			return nil, 0, fmt.Errorf("model: node %d did not halt within %d rounds", v, maxRounds)
		}
	}
	return states, round, nil
}

// lettersOf enumerates the letters naming v's incident arcs.
func lettersOf(h *Host, v int) []view.Letter {
	var ls []view.Letter
	for _, a := range h.D.Out(v) {
		ls = append(ls, view.Letter{Label: a.Label})
	}
	for _, a := range h.D.In(v) {
		ls = append(ls, view.Letter{Label: a.Label, In: true})
	}
	return ls
}

// GatherState is the state of the GatherViews full-information
// algorithm; after t rounds Tree is the node's depth-t view.
type GatherState struct {
	letters []view.Letter
	// Tree is the view gathered so far.
	Tree *view.Tree
}

// GatherViews is the canonical full-information algorithm: after r
// rounds each node's state holds exactly its radius-r view tree. It
// witnesses the equivalence of the round-based formulation with the
// ball/view formulation of Section 2.2 (equation (1)): any r-round
// message-passing algorithm can be simulated by gathering the view and
// post-processing it locally.
func GatherViews(r int) RoundAlgo {
	return RoundAlgo{
		Init: func(info NodeInfo) any {
			return &GatherState{letters: info.Letters, Tree: view.Leaf()}
		},
		Step: func(state any, round int, inbox []Msg) (any, []Msg, bool) {
			s := state.(*GatherState)
			if round > 0 && len(inbox) > 0 {
				// Assemble the depth-(round) view from the neighbours'
				// depth-(round-1) views. A message that arrived on the
				// arc we name L was sent by a neighbour that names the
				// same arc L.Inv(); the neighbour's walk back across
				// this arc starts with letter L.Inv() at the
				// neighbour, so that child is pruned (non-backtracking).
				// Faulty schedules may duplicate deliveries, so repeat
				// letters keep only their first message (NewTree
				// requires distinct letters); a fully starved inbox
				// keeps the stale view instead of collapsing to a leaf.
				// On a clean run neither case arises and the assembly
				// is the classical one.
				children := make([]view.Child, 0, len(inbox))
				for _, m := range inbox {
					dup := false
					for _, c := range children {
						if c.L == m.L {
							dup = true
							break
						}
					}
					if dup {
						continue
					}
					children = append(children, view.Child{L: m.L, T: pruneChild(m.Data.(*view.Tree), m.L.Inv())})
				}
				s.Tree = view.NewTree(children)
			}
			if round >= r {
				return s, nil, true
			}
			out := make([]Msg, 0, len(s.letters))
			for _, l := range s.letters {
				out = append(out, Msg{L: l, Data: s.Tree})
			}
			return s, out, false
		},
		Out: func(state any) Output { return Output{} },
	}
}

// pruneChild returns t without its child labelled drop (t itself when
// the letter is absent).
func pruneChild(t *view.Tree, drop view.Letter) *view.Tree {
	if _, ok := t.Child(drop); !ok {
		return t
	}
	kids := make([]view.Child, 0, t.NumChildren()-1)
	for _, c := range t.Children() {
		if c.L == drop {
			continue
		}
		kids = append(kids, c)
	}
	return view.NewTree(kids)
}

// gatherScratch is the worker-local assembly state of GatheredTrees:
// one buffer for the node under assembly and one for the pruned
// neighbour views, both interned copy-on-miss so repeated view types
// cost no allocation.
type gatherScratch struct {
	kids   []view.Child
	pruned []view.Child
}

// GatheredTrees returns each node's radius-r view tree, computed by
// the level-synchronous assembly that GatherViews performs by message
// passing: after round t every node's tree is assembled from its
// neighbours' round-(t-1) trees with the backtracking child pruned.
// Rounds are barriers; within a round the per-node assembly is
// data-parallel with worker-local scratch (each node writes only its
// own slot, and the interned constructors are concurrency-safe), so
// the result is byte-identical to the sequential simulation — a
// property the differential tests pin down against both
// RunRoundsStates and per-node view.Build.
func GatheredTrees(h *Host, r int) ([]*view.Tree, error) {
	levels, err := GatheredTreesAll(h, r)
	if err != nil {
		return nil, err
	}
	return levels[r], nil
}

// GatheredTreesAll is the layered form of GatheredTrees: every node's
// view tree at every radius t = 0..rmax (result[t][v]), from the one
// level-synchronous pass. The per-round levels are exactly the
// intermediate states of the gathering algorithm, so the multi-radius
// gather costs the same single pass the deepest radius alone does —
// the view-side analogue of order.SweepMeasureAll.
func GatheredTreesAll(h *Host, rmax int) ([][]*view.Tree, error) {
	n := h.G.N()
	cur := make([]*view.Tree, n)
	for v := range cur {
		cur[v] = view.Leaf()
	}
	levels := make([][]*view.Tree, rmax+1)
	levels[0] = cur
	for round := 1; round <= rmax; round++ {
		nxt := make([]*view.Tree, n)
		par.ForScratch(n,
			func() *gatherScratch { return &gatherScratch{} },
			func(v int, s *gatherScratch) {
				kids := s.kids[:0]
				for _, a := range h.D.Out(v) {
					l := view.Letter{Label: a.Label}
					kids = append(kids, view.Child{L: l, T: pruneChildWith(s, cur[a.To], l.Inv())})
				}
				for _, a := range h.D.In(v) {
					l := view.Letter{Label: a.Label, In: true}
					kids = append(kids, view.Child{L: l, T: pruneChildWith(s, cur[a.To], l.Inv())})
				}
				s.kids = kids
				nxt[v] = view.NewTreeScratch(kids)
			})
		levels[round] = nxt
		cur = nxt
	}
	return levels, nil
}

// pruneChildWith is pruneChild assembling into the worker's scratch
// buffer (interned copy-on-miss).
func pruneChildWith(s *gatherScratch, t *view.Tree, drop view.Letter) *view.Tree {
	if _, ok := t.Child(drop); !ok {
		return t
	}
	kids := s.pruned[:0]
	for _, c := range t.Children() {
		if c.L != drop {
			kids = append(kids, c)
		}
	}
	s.pruned = kids
	return view.NewTreeScratch(kids)
}

// SimulatePO runs any PO algorithm operationally: gather the radius-r
// view by message passing, then apply the algorithm's view function.
// By equation (1) this is semantically identical to RunPO.
func SimulatePO(h *Host, alg PO, kind Kind) (*Solution, error) {
	trees, err := GatheredTrees(h, alg.Radius())
	if err != nil {
		return nil, err
	}
	sol := NewSolution(kind, h.G.N())
	for v, t := range trees {
		if err := applyPOOut(sol, h, v, alg.EvalPO(t)); err != nil {
			return nil, err
		}
	}
	return sol, nil
}

// SimulatePORounds is SimulatePO driven end-to-end through the round
// engine: the radius-r view is gathered by actual message passing
// (GatherViews executing on the Engine's message plane) and the
// algorithm's view function is applied to the final states. By
// equation (1) the result coincides with RunPO and SimulatePO — the
// operational PO path at engine speed, differentially tested against
// both.
func SimulatePORounds(h *Host, alg PO, kind Kind) (*Solution, error) {
	r := alg.Radius()
	states, _, err := RunRoundsStates(h, nil, GatherViews(r), r+2)
	if err != nil {
		return nil, err
	}
	sol := NewSolution(kind, h.G.N())
	for v, st := range states {
		if err := applyPOOut(sol, h, v, alg.EvalPO(st.(*GatherState).Tree)); err != nil {
			return nil, err
		}
	}
	return sol, nil
}

// SimulatePORoundsFaulty is SimulatePORounds under a fault schedule:
// the gathering rounds run on the faulty message plane, so each
// node's "view" is whatever fragments survived the schedule, and the
// algorithm's view function is applied to those degraded views.
// Crashed nodes produce no output (their vertices and incident-edge
// selections are simply absent from the solution). maxRounds bounds
// the run — pass slack beyond Radius()+2 when the schedule can keep
// nodes transiently down, since a down node halts only at its first
// up round at or after the gathering radius.
func SimulatePORoundsFaulty(h *Host, alg PO, kind Kind, sched Schedule, maxRounds int) (*Solution, *FaultReport, error) {
	r := alg.Radius()
	states, _, rep, err := NewEngine(h).RunStatesFaulty(nil, GatherViews(r).engine(), maxRounds, sched)
	if err != nil {
		return nil, nil, err
	}
	sol := NewSolution(kind, h.G.N())
	for v, st := range states {
		if rep.CrashedNode(v) {
			continue
		}
		if err := applyPOOut(sol, h, v, alg.EvalPO(st.(*GatherState).Tree)); err != nil {
			return nil, nil, err
		}
	}
	return sol, rep, nil
}

// applyPOOut merges one node's PO output into the solution.
func applyPOOut(sol *Solution, h *Host, v int, out Output) error {
	if sol.Kind == VertexKind {
		sol.Vertices[v] = out.Member
		return nil
	}
	for _, l := range out.Letters {
		to, ok := resolveLetter(h, v, l)
		if !ok {
			return fmt.Errorf("model: node %d selected absent letter %v", v, l)
		}
		sol.Edges[graph.NewEdge(v, to)] = true
	}
	return nil
}
