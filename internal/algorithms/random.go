package algorithms

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/model"
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
// sequentially in the engine's Init pass (so the rng stream is
// schedule-independent) and then exchanged in one synchronous round on
// the word lane — each node sends along the arc to its chosen
// neighbour and an edge is matched exactly when both endpoints hear a
// proposal on the arc they proposed along.
//
// The returned solution is a valid matching. Each edge {u, v} is
// matched with probability 1/(deg(u)·deg(v)), so the expected size is
// at least m/Δ²; on d-regular graphs E|M| >= n/(2d) against
// ν(G) <= n/2 — expected ratio at most d, a constant for bounded
// degree, which no deterministic local algorithm can achieve.
func RandomizedMatching(h *model.Host, rng *rand.Rand) *model.Solution {
	return randomizedMatchingOn(model.NewWordEngine(h), h, rng)
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

// proposalAlgo is the one-round mutual-proposal exchange, one value
// for both engines. Init draws each node's proposal from rng: the
// engines call it sequentially in increasing global node order, so
// the rng stream is independent of the schedule, the plane and the
// shard count. A node of degree d draws the rng.Intn(d)-th of its
// neighbours in ascending-id order, the order of sorted CSR adjacency,
// and its state keeps the local slot of the arc to it. A node matches
// when a proposal arrives on the slot it itself proposed (and sent)
// along; on a faulty plane one or both directions may be lost, but the
// selected edge set stays a matching because each node only ever
// selects the single edge it proposed. The payload word is irrelevant
// — arrival alone carries "I propose to you". The host must be simple
// (at most one arc between any node pair).
func proposalAlgo(src model.ShardSource, rng *rand.Rand) model.WordAlgo {
	var outS, inS []model.ShardArc
	var ts, sorted []int64
	return model.WordAlgo{
		Init: func(v int64, info model.NodeInfo) uint64 {
			outS, inS = src.AppendArcs(v, outS[:0], inS[:0])
			ts = mergeTargets(ts[:0], outS, inS)
			if len(ts) == 0 {
				return 0
			}
			sorted = append(sorted[:0], ts...)
			slices.Sort(sorted)
			u := sorted[rng.Intn(len(ts))]
			return uint64(slices.Index(ts, u)) | mPropose
		},
		Step: proposalStep,
		Out:  func(*uint64) model.Output { return model.Output{} },
	}
}

// proposalStep is the exchange round's chunk step. Round 0 sends the
// proposals; round 1 matches and halts every node.
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

// mergeTargets merges label-sorted out- and in-arc rows into slot
// (letter) order — the engine's merge, out before in on equal labels
// — recording each slot's peer.
func mergeTargets(ts []int64, out, in []model.ShardArc) []int64 {
	i, j := 0, 0
	for i < len(out) || j < len(in) {
		if i < len(out) && (j >= len(in) || out[i].Label <= in[j].Label) {
			ts = append(ts, out[i].To)
			i++
		} else {
			ts = append(ts, in[j].To)
			j++
		}
	}
	return ts
}

// RandomizedMatchingOn is RandomizedMatching on a caller-provided
// engine (see ColeVishkinMISOn), error-returning: an armed context can
// abort the run mid-protocol, which the service layer must see as an
// error rather than a panic.
func RandomizedMatchingOn(e *model.WordEngine, h *model.Host, rng *rand.Rand) (*model.Solution, error) {
	sol, _, err := flatMatching(e, h, rng, 3, nil)
	if err != nil {
		return nil, fmt.Errorf("algorithms: randomized matching: %w", err)
	}
	return sol, nil
}

// randomizedMatchingOn is RandomizedMatchingOn on an uncancellable
// engine, where the round cannot fail: every proposal slot was
// resolved from a real arc and each node sends at most once.
func randomizedMatchingOn(e *model.WordEngine, h *model.Host, rng *rand.Rand) *model.Solution {
	sol, err := RandomizedMatchingOn(e, h, rng)
	if err != nil {
		panic(err)
	}
	return sol
}

// flatMatching runs the proposal exchange on the flat engine, clean
// when sched is nil, and returns the selected edges whose endpoints
// both survived, with the run's report.
func flatMatching(e *model.WordEngine, h *model.Host, rng *rand.Rand, maxRounds int, sched model.Schedule) (*model.Solution, *model.FaultReport, error) {
	src := model.SourceOf(h)
	col, _, rep, err := e.RunStatesFaulty(nil, proposalAlgo(src, rng), maxRounds, sched)
	if err != nil {
		return nil, nil, err
	}
	sol := model.NewSolution(model.EdgeKind, h.G.N())
	var outS, inS []model.ShardArc
	var ts []int64
	for v, s := range col {
		if s&mMatched == 0 || rep.CrashedNode(v) {
			continue
		}
		outS, inS = src.AppendArcs(int64(v), outS[:0], inS[:0])
		ts = mergeTargets(ts[:0], outS, inS)
		if u := int(ts[s&mSlotMask]); !rep.CrashedNode(u) {
			sol.Edges[graph.NewEdge(v, u)] = true
		}
	}
	return sol, rep, nil
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
