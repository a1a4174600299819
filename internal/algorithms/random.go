package algorithms

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/view"
)

// RandomizedMatching is the Section 6.5 demonstration: equipping nodes
// with private randomness strictly increases the power of local
// algorithms. Deterministically, no constant-factor matching
// approximation exists in any of ID/OI/PO (Section 1.4, certified by
// the lower-bound engine on symmetric cycles, where every feasible
// deterministic behaviour outputs the empty matching). With
// randomness, one round of mutual proposals already finds a matching
// of expected size Ω(m/Δ²): each node proposes to a uniformly random
// neighbour, and an edge joins the matching when its endpoints propose
// to each other.
//
// The execution is genuinely operational: the proposals are drawn
// sequentially up front (so the rng stream is schedule-independent)
// and then exchanged in one synchronous round on the typed word lane
// of the message-plane Engine — each node sends along the arc to its
// chosen neighbour and an edge is matched exactly when both endpoints
// hear a proposal on the arc they proposed along.
//
// The returned solution is a valid matching. Each edge {u, v} is
// matched with probability 1/(deg(u)·deg(v)), so the expected size is
// at least m/Δ²; on d-regular graphs E|M| >= n/(2d) against
// ν(G) <= n/2 — expected ratio at most d, a constant for bounded
// degree, which no deterministic local algorithm can achieve.
func RandomizedMatching(h *model.Host, rng *rand.Rand) *model.Solution {
	return randomizedMatchingOn(model.NewWordEngine(h), h, rng)
}

// proposeState is a node's pre-drawn proposal; the protocol state
// proper (chosen slot, sent, matched) is packed into the engine's
// uint64 state column, see the m* layout below.
type proposeState struct {
	// letter names the arc to the proposed neighbour.
	letter view.Letter
	// propose is false on isolated nodes.
	propose bool
}

// Word layout of the proposal protocol's packed state:
//
//	bits 0..31  the proposed arc's local slot index
//	bit 32      propose (unset on isolated nodes: state stays 0)
//	bit 33      sent — the proposal actually left the node (a node
//	            transiently down in round 0 never sends, so it
//	            cannot match)
//	bit 34      matched — a mutual proposal
const (
	mSlotMask = uint64(1)<<32 - 1
	mPropose  = uint64(1) << 32
	mSent     = uint64(1) << 33
	mMatched  = uint64(1) << 34
)

// drawProposals pre-draws every node's proposal sequentially, keeping
// the rng stream off the parallel rounds (and off the fault schedule:
// the same seed proposes identically under every profile).
func drawProposals(h *model.Host, rng *rand.Rand) ([]int, []proposeState) {
	g := h.G
	n := g.N()
	proposal := make([]int, n)
	states := make([]proposeState, n)
	for v := 0; v < n; v++ {
		proposal[v] = -1
		if d := g.Degree(v); d > 0 {
			proposal[v] = int(g.Neighbors(v)[rng.Intn(d)])
			states[v] = proposeState{letter: letterTo(h, v, proposal[v]), propose: true}
		}
	}
	return proposal, states
}

// proposalWordAlgo is the one-round mutual-proposal exchange over
// pre-drawn proposals, on the typed word lane. A node matches when a
// proposal arrives on the slot it itself proposed (and sent) along;
// on a faulty plane one or both directions may be lost, but the
// selected edge set stays a matching because each node only ever
// selects the single edge it proposed. The payload word is
// irrelevant — arrival alone carries "I propose to you".
func proposalWordAlgo(states []proposeState) model.WordAlgo {
	return model.WordAlgo{
		// Init indexes the pre-drawn table by node, keeping every
		// random bit off the parallel rounds, and converts the drawn
		// letter to its local slot in the letter-sorted row.
		Init: func(v int, info model.NodeInfo) uint64 {
			if !states[v].propose {
				return 0
			}
			return uint64(slotOf(info.Letters, states[v].letter)) | mPropose
		},
		Step: proposalStep,
		Out:  func(*uint64) model.Output { return model.Output{} },
	}
}

// proposalStep is the exchange round's chunk step — shared by the flat
// WordAlgo above and the sharded port. Round 0 sends the proposals;
// round 1 matches and halts every node.
func proposalStep(c *model.Chunk, states []uint64) {
	round := c.Round
	for c.Next() {
		s := states[c.Node]
		if round == 0 {
			if s&mPropose != 0 {
				c.Send(int(s&mSlotMask), 1)
				states[c.Node] = s | mSent
			}
			continue
		}
		if s&mPropose != 0 && s&mSent != 0 {
			want := int(s & mSlotMask)
			for slot := range c.Inbox {
				if slot == want {
					states[c.Node] = s | mMatched
				}
			}
		}
		c.Halt()
	}
}

// slotOf locates l in a letter-sorted slot row (the typed NodeInfo
// letter order). The caller guarantees presence: every proposal
// letter was resolved from a real arc.
func slotOf(letters []view.Letter, l view.Letter) int {
	lo, hi := 0, len(letters)
	for lo < hi {
		mid := (lo + hi) >> 1
		if letters[mid].Less(l) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// randomizedMatchingOn is RandomizedMatching on a caller-provided
// engine, so repeated trials reuse one message plane.
func randomizedMatchingOn(e *model.WordEngine, h *model.Host, rng *rand.Rand) *model.Solution {
	sol, err := randomizedMatchingErr(e, h, rng)
	if err != nil {
		// Unreachable on an uncancellable engine: every slot was
		// resolved from a real arc and each node sends at most once.
		panic(fmt.Sprintf("algorithms: randomized matching round: %v", err))
	}
	return sol
}

// randomizedMatchingErr is the error-returning core of the one-round
// proposal matching: on a context-armed engine a run can legitimately
// fail mid-protocol (cancellation), which the service layer must see
// as an error rather than a panic.
func randomizedMatchingErr(e *model.WordEngine, h *model.Host, rng *rand.Rand) (*model.Solution, error) {
	n := h.G.N()
	proposal, states := drawProposals(h, rng)
	col, _, err := e.RunStates(nil, proposalWordAlgo(states), 3)
	if err != nil {
		return nil, fmt.Errorf("algorithms: randomized matching: %w", err)
	}
	sol := model.NewSolution(model.EdgeKind, n)
	for v := 0; v < n; v++ {
		if col[v]&mMatched != 0 {
			sol.Edges[graph.NewEdge(v, proposal[v])] = true
		}
	}
	return sol, nil
}

// letterTo returns the letter naming the arc between v and its
// neighbour u at v.
func letterTo(h *model.Host, v, u int) view.Letter {
	for _, a := range h.D.Out(v) {
		if a.To == u {
			return view.Letter{Label: a.Label}
		}
	}
	for _, a := range h.D.In(v) {
		if a.To == u {
			return view.Letter{Label: a.Label, In: true}
		}
	}
	panic(fmt.Sprintf("algorithms: no arc between neighbours %d and %d", v, u))
}

// RandomizedMatchingTrials runs the one-round proposal matching many
// times and reports the average matching size — the in-expectation
// guarantee made measurable. All trials share one engine, so only the
// first pays for the message plane.
func RandomizedMatchingTrials(h *model.Host, trials int, rng *rand.Rand) float64 {
	e := model.NewWordEngine(h)
	total := 0
	for i := 0; i < trials; i++ {
		total += randomizedMatchingOn(e, h, rng).Size()
	}
	return float64(total) / float64(trials)
}
