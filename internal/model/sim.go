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
	// (In=false) and per in-arc (In=true). The round engines hand
	// WordAlgo.Init the letter-sorted slot row, so local slot i is
	// Letters[i].
	Letters []view.Letter
	// Peers is the far endpoint of each slot, in slot order: the
	// global index of the node a send on slot i reaches. Only the
	// round engines set it. Like Letters there, it is scratch the
	// engine rebuilds per node, valid only during Init.
	Peers []int64
}

// RoundAlgo is a synchronous message-passing algorithm: the classical
// operational formulation of the LOCAL/PO models. Each round every
// node updates its state on the messages received, emits messages for
// the next round, and may halt. A halted node keeps its state and
// sends nothing further. RunRoundsStates executes it; it is the
// specification the round engines' WordAlgo runs are differentially
// tested against.
type RoundAlgo struct {
	// Init returns the initial state.
	Init func(info NodeInfo) any
	// Step consumes the inbox and returns the new state, the outbox,
	// and whether the node halts.
	Step func(state any, round int, inbox []Msg) (any, []Msg, bool)
	// Out extracts the final output from a state.
	Out func(state any) Output
}

// RunRoundsStates executes a round algorithm on the host with the
// sequential specification loop: per-round append-built inboxes
// filled in increasing sender order, every node visited every round.
// In the ID model pass per-node identifiers; pass nil for anonymous
// (PO) execution. It returns the final per-node states and the number
// of rounds executed, failing if some node has not halted after
// maxRounds. It is the executable specification the round engines
// are differentially tested against (and, unlike them, it permits
// duplicate sends on one letter and hands out retainable inbox
// slices).
func RunRoundsStates(h *Host, ids []int, algo RoundAlgo, maxRounds int) ([]any, int, error) {
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

// gatherAlgo is GatherViews on the engine's word lane, for the flat
// engine e: the lane carries column handles — each message word is the
// sender's node index — and the hash-consed trees live in two
// round-parity columns (the round-r assembly reads trees[r&1], which
// round r-1's senders wrote, and publishes into trees[(r+1)&1];
// distinct parities keep same-round reads and writes on different
// arrays, so workers never race). final[v] tracks node v's latest
// assembled view for extraction after the run. Init copies each
// node's slot letters into a table of the gather's own, 16 B per slot
// that only gather runs pay; the step reads them there and indexes the
// tree columns by c.Node, so the state word is unused. Assembly order,
// duplicate-letter dedup and the starved-inbox stale-view rule mirror
// GatherViews exactly, which the differential tests pin down.
//
// It is kept out of line: inlined into a caller, its step closure
// would be compiled again as a copy in which the cursor methods are
// called instead of inlined (tools/inlinecheck.sh).
//
//go:noinline
func gatherAlgo(e *WordEngine, r int) (WordAlgo, []*view.Tree) {
	var trees [2][]*view.Tree
	trees[0] = make([]*view.Tree, e.n)
	trees[1] = make([]*view.Tree, e.n)
	final := make([]*view.Tree, e.n)
	off, letters := e.off, make([]view.Letter, e.off[e.n])
	algo := WordAlgo{
		Init: func(v int64, info NodeInfo) uint64 {
			copy(letters[off[v]:], info.Letters)
			final[v] = view.Leaf()
			return 0
		},
		Step: func(c *Chunk, _ []uint64) {
			round := c.Round
			cur, nxt := trees[round&1], trees[(round+1)&1]
			for c.Next() {
				v := c.Node
				t := final[v]
				if round > 0 {
					row := letters[off[v]:off[v+1]]
					var children []view.Child
					for slot, w := range c.Inbox {
						// Duplicated deliveries repeat a slot; keep the first.
						l := row[slot]
						dup := false
						for _, ch := range children {
							if ch.L == l {
								dup = true
								break
							}
						}
						if dup {
							continue
						}
						if children == nil {
							children = make([]view.Child, 0, len(row))
						}
						children = append(children, view.Child{L: l, T: pruneChild(cur[w], l.Inv())})
					}
					if children != nil {
						t = view.NewTree(children)
						final[v] = t
					}
				}
				if round >= r {
					c.Halt()
					continue
				}
				nxt[v] = t
				c.Broadcast(uint64(v))
			}
		},
	}
	return algo, final
}

// RunGather gathers every node's radius-r view tree by message passing
// on the word lane (GatherViews' rounds, with tree payloads carried as
// column handles) and returns the trees, the number of rounds run and,
// when sched is non-nil, the fault report. Under a schedule each tree
// is whatever fragments survived it; crashed nodes keep the tree they
// had assembled when they crashed. maxRounds bounds the run: r+2
// suffices on a clean run, and a schedule that keeps nodes transiently
// down needs slack beyond it, since a down node halts only at its
// first up round at or after r. The run polls ctx at every round
// barrier.
func RunGather(ctx context.Context, h *Host, r, maxRounds int, sched Schedule) ([]*view.Tree, int, *FaultReport, error) {
	e := NewWordEngine(h).WithContext(ctx)
	algo, final := gatherAlgo(e, r)
	_, rounds, rep, err := e.run(nil, algo, maxRounds, sched)
	if err != nil {
		return nil, 0, nil, err
	}
	return final, rounds, rep, nil
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
// (RunGather on the engine's word lane) and the algorithm's view
// function is applied to the gathered trees. By equation (1) the
// result coincides with RunPO and SimulatePO — the operational PO
// path at engine speed, differentially tested against both.
func SimulatePORounds(h *Host, alg PO, kind Kind) (*Solution, error) {
	sol, _, err := SimulatePORoundsFaulty(h, alg, kind, nil, alg.Radius()+2)
	return sol, err
}

// SimulatePORoundsFaulty is SimulatePORounds under a fault schedule:
// the gathering rounds run on the faulty message plane, so each
// node's "view" is whatever fragments survived the schedule, and the
// algorithm's view function is applied to those degraded views.
// Crashed nodes produce no output (their vertices and incident-edge
// selections are simply absent from the solution). maxRounds bounds
// the run — pass slack beyond Radius()+2 when the schedule can keep
// nodes transiently down, since a down node halts only at its first
// up round at or after the gathering radius. A nil schedule runs
// clean, with the all-zero "clean" report.
func SimulatePORoundsFaulty(h *Host, alg PO, kind Kind, sched Schedule, maxRounds int) (*Solution, *FaultReport, error) {
	trees, _, rep, err := RunGather(context.TODO(), h, alg.Radius(), maxRounds, sched)
	if err != nil {
		return nil, nil, err
	}
	if rep == nil {
		rep = &FaultReport{Profile: "clean"}
	}
	sol := NewSolution(kind, h.G.N())
	for v, t := range trees {
		if rep.CrashedNode(v) {
			continue
		}
		if err := applyPOOut(sol, h, v, alg.EvalPO(t)); err != nil {
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
