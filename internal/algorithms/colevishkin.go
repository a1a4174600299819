package algorithms

import (
	"fmt"
	"math/bits"

	"repro/internal/model"
)

// ColeVishkinResult reports a Cole–Vishkin MIS computation on a
// directed cycle.
type ColeVishkinResult struct {
	// MIS is the computed maximal independent set.
	MIS *model.Solution
	// Rounds is the total number of communication rounds used: the
	// O(log* n) colour-reduction phase plus O(1) cleanup.
	Rounds int
	// Colors is the final 3-colouring (values 0..2).
	Colors []int
}

// The Cole–Vishkin pipeline runs on the word lane: the whole node
// state is one packed uint64 and every broadcast is the state
// word with the node-local bit masked off. Layout:
//
//	bits 0..61  colour (initially the identifier)
//	bit 62      state only: the local slot index of the in-arc
//	bit 63      inMIS
//
// Colour and membership travel in one word, so a Step is pure integer
// arithmetic on two uint64 columns — no boxing, no pointer chase.
const (
	cvColorBits = 62
	cvColorMask = uint64(1)<<cvColorBits - 1
	cvPredSlot1 = uint64(1) << 62
	cvMISBit    = uint64(1) << 63
)

// ColeVishkinMIS computes a maximal independent set on a directed
// cycle in the ID model in O(log* id) + O(1) rounds: the classical
// Cole–Vishkin [1986] colour reduction from identifiers to 6 colours,
// the shift-down reduction from 6 to 3 colours, and a 3-round greedy
// sweep turning the colouring into an MIS. This is the algorithm
// behind Fig. 2's separation: it is fast in the ID model, needs Θ(n)
// time in OI, and is impossible in PO.
//
// The host must be a consistently oriented cycle (every node with out-
// and in-degree 1) with unique non-negative identifiers. As is
// standard in the LOCAL model, the nodes know the identifier space
// bound (poly(n)) and hence the reduction-step horizon S.
//
// Execution goes through the word engine; the RoundAlgo formulation
// survives as the specification the differential tests pin this path
// against, byte for byte.
func ColeVishkinMIS(h *model.Host, ids []int) (*ColeVishkinResult, error) {
	return ColeVishkinMISOn(model.NewWordEngine(h), h, ids)
}

// ColeVishkinMISOn is ColeVishkinMIS on a caller-provided engine, so
// the caller controls how the engine is armed — WithContext for
// cancellation, WithCheckpoints for barrier snapshots and Resume to
// continue an interrupted run (the workload registry in
// internal/workload does all three) — and repeated trials can reuse
// one message plane.
func ColeVishkinMISOn(e *model.WordEngine, h *model.Host, ids []int) (*ColeVishkinResult, error) {
	steps, last, err := cvPlanFlat(h, ids)
	if err != nil {
		return nil, err
	}
	col, rounds, err := e.RunStates(ids, coleVishkinWordAlgo(steps, last), last+2)
	if err != nil {
		return nil, fmt.Errorf("algorithms: Cole–Vishkin: %w", err)
	}
	res := &ColeVishkinResult{
		MIS:    model.NewSolution(model.VertexKind, h.G.N()),
		Rounds: rounds,
		Colors: make([]int, h.G.N()),
	}
	for v, w := range col {
		c, member := CVState(w)
		res.MIS.Vertices[v] = member
		res.Colors[v] = c
		if c < 0 || c > 2 {
			return nil, fmt.Errorf("algorithms: node %d ended with colour %d", v, c)
		}
	}
	return res, nil
}

// cvPlanFlat is cvPlan for an id table: the table must name every
// node of h with a non-negative id, and its largest id is the bound.
func cvPlanFlat(h *model.Host, ids []int) (steps, last int, err error) {
	if len(ids) != h.G.N() {
		return 0, 0, fmt.Errorf("algorithms: %d ids for %d nodes", len(ids), h.G.N())
	}
	maxID := 0
	for _, id := range ids {
		if id < 0 {
			return 0, 0, fmt.Errorf("algorithms: negative id %d", id)
		}
		maxID = max(maxID, id)
	}
	return cvPlan(model.SourceOf(h), maxID)
}

// cvPlan validates a Cole–Vishkin instance — the source must be a
// consistently oriented cycle (out- and in-degree 1 everywhere) and
// the id bound must fit the colour lane — and returns the reduction
// horizon (steps) and the halting round (last).
func cvPlan(src model.ShardSource, maxID int) (steps, last int, err error) {
	if maxID < 0 {
		return 0, 0, fmt.Errorf("algorithms: negative id bound %d", maxID)
	}
	if uint64(maxID) > cvColorMask {
		return 0, 0, fmt.Errorf("algorithms: id %d exceeds the %d-bit colour lane", maxID, cvColorBits)
	}
	for v, n := int64(0), src.N(); v < n; v++ {
		if out, in := src.Degree(v); out != 1 || in != 1 {
			return 0, 0, fmt.Errorf("algorithms: Cole–Vishkin needs a consistently oriented cycle")
		}
	}
	steps = cvSteps(maxID)
	return steps, steps + 6, nil
}

// coleVishkinWordAlgo is the word-lane Cole–Vishkin pipeline, one
// value for both engines and for the clean and the fault-schedule
// runs. Round schedule (every
// live node broadcasts its colour and membership every round):
//
//	rounds 1..steps          — CV recolour on the predecessor's colour
//	rounds steps+1..steps+3  — shift down colour 5, then 4, then 3
//	rounds steps+4..steps+6  — MIS sweep for colour 0, then 1, then 2
//
// The recolour step is bit-parallel: the lowest differing bit against
// the predecessor comes from one XOR and one trailing-zero count
// (guarded to 0 on equal colours, which on a clean run never happens
// but under faults — a dropped colour replaced by the zero word — is
// exactly the RoundAlgo specification's behaviour). A dropped message
// leaves the zero word in its place and a node transiently down
// resumes mid-schedule — both degrade the colouring rather than crash
// it, which is what the fault experiments measure. Halting is
// round >= last so a node that was down at the scheduled halting
// round still halts at its next up round (identical to == on clean
// runs).
func coleVishkinWordAlgo(steps, last int) model.WordAlgo {
	return model.WordAlgo{
		Init: func(v int64, info model.NodeInfo) uint64 {
			// The identifier in the colour lane plus the in-arc slot
			// marker: exactly one of the two letter-sorted slots is the
			// in-arc (the predecessor on the oriented cycle). Fields are
			// read in place: copying the seven-word info costs more
			// than the rest of Init.
			w := uint64(info.ID)
			if info.Letters[1].In {
				w |= cvPredSlot1
			}
			return w
		},
		Step: cvStep(steps, last),
		Out: func(state *uint64) model.Output {
			return model.Output{Member: *state&cvMISBit != 0}
		},
	}
}

// cvStep is the pipeline's chunk step.
//
// It is kept out of line: inlined into a caller, its step closure
// would be compiled again as a copy in which the cursor methods are
// called instead of inlined (tools/inlinecheck.sh).
//
//go:noinline
func cvStep(steps, last int) func(c *model.Chunk, states []uint64) {
	return func(c *model.Chunk, states []uint64) {
		round := c.Round
		for c.Next() {
			s := states[c.Node]
			predSlot := 0
			if s&cvPredSlot1 != 0 {
				predSlot = 1
			}
			// An undelivered direction leaves the zero word: colour 0,
			// not in the MIS — the typed image of the zero cvMsg.
			var pred, succ uint64
			for slot, w := range c.Inbox {
				if slot == predSlot {
					pred = w
				} else {
					succ = w
				}
			}
			color := s & cvColorMask
			switch {
			case round == 0:
				// Nothing received yet; just broadcast below.
			case round <= steps:
				// Bit-parallel Cole–Vishkin reduction against the
				// predecessor.
				i := uint64(0)
				if x := color ^ pred&cvColorMask; x != 0 {
					i = uint64(bits.TrailingZeros64(x))
				}
				color = 2*i | color>>i&1
			case round <= steps+3:
				// Shift down 5 -> then 4 -> then 3.
				target := uint64(5 - (round - steps - 1))
				if color == target {
					color = cvFreeColor(pred&cvColorMask, succ&cvColorMask)
				}
			default:
				// MIS sweep for colour classes 0, 1, 2.
				class := uint64(round - steps - 4)
				if color == class && pred&cvMISBit == 0 && succ&cvMISBit == 0 {
					s |= cvMISBit
				}
			}
			s = s&^cvColorMask | color
			states[c.Node] = s
			if round >= last {
				c.Halt()
				continue
			}
			c.Broadcast(s &^ cvPredSlot1)
		}
	}
}

// CVRounds predicts the number of rounds ColeVishkinMIS uses for a
// given maximum identifier: the Θ(log* id) separation curve of the
// Fig. 2 experiment.
func CVRounds(maxID int) int { return cvSteps(maxID) + 6 }

// cvSteps returns a safe number of Cole–Vishkin reduction steps to
// bring colours from {0..maxID} into {0..5}: iterate
// bits -> ceil(log2 bits) + 1 until bits <= 3, plus one extra step to
// settle inside {0..5}.
func cvSteps(maxID int) int {
	bits := 1
	for 1<<bits <= maxID {
		bits++
	}
	steps := 0
	for bits > 3 {
		nb := 1
		for 1<<nb < bits {
			nb++
		}
		bits = nb + 1
		steps++
	}
	return steps + 2
}

// cvFreeColor returns the smallest colour in {0,1,2} unused by the
// two arguments.
func cvFreeColor(a, b uint64) uint64 {
	for c := uint64(0); c <= 2; c++ {
		if c != a && c != b {
			return c
		}
	}
	return 0 // unreachable: two values cannot block three colours
}

// freeColor is cvFreeColor on ints, retained for the RoundAlgo
// specification exercised by the differential tests.
func freeColor(a, b int) int {
	for c := 0; c <= 2; c++ {
		if c != a && c != b {
			return c
		}
	}
	return 0 // unreachable: two values cannot block three colours
}

// lowestDifferingBit is the per-bit reference of the bit-parallel
// XOR/trailing-zeros reduction above (0 on equal arguments).
func lowestDifferingBit(a, b int) int {
	x := a ^ b
	if x == 0 {
		return 0
	}
	i := 0
	for x&1 == 0 {
		x >>= 1
		i++
	}
	return i
}

func bitOf(x, i int) int { return (x >> i) & 1 }
