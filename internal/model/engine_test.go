package model

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/host"
	"repro/internal/par"
	"repro/internal/view"
)

// engineHosts is the differential host set: the fixed hosts of the
// paper plus a registry Cayley host (which carries its own labelling).
func engineHosts(t *testing.T) map[string]*Host {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	hosts := map[string]*Host{
		"petersen":      HostFromGraph(graph.Petersen()),
		"torus6x6":      HostFromGraph(graph.Torus(6, 6)),
		"randomregular": HostFromGraph(graph.RandomRegular(18, 3, rng)),
	}
	ch := host.MustParse("cayley:H,level=2,m=4,k=2,seed=1")
	hosts["cayley"] = &Host{D: ch.D, G: ch.G}
	return hosts
}

// floodMaxAlgo is a multi-round RoundAlgo exercising ids, letters and
// staggered halting: every node floods the largest id it has heard for
// a node-dependent number of rounds, then reports whether it ever
// heard an id larger than its own. The engine tests run its word-lane
// twins (floodSlotAlgo, floodTypedAlgo) against it on the
// specification loop.
func floodMaxAlgo() RoundAlgo {
	type st struct {
		letters []view.Letter
		id      int
		best    int
		ticks   int
	}
	return RoundAlgo{
		Init: func(info NodeInfo) any {
			return &st{letters: info.Letters, id: info.ID, best: info.ID, ticks: 1 + info.ID%4}
		},
		Step: func(state any, round int, inbox []Msg) (any, []Msg, bool) {
			s := state.(*st)
			for _, m := range inbox {
				if v := m.Data.(int); v > s.best {
					s.best = v
				}
			}
			if s.ticks == 0 {
				return s, nil, true
			}
			s.ticks--
			out := make([]Msg, 0, len(s.letters))
			for _, l := range s.letters {
				out = append(out, Msg{L: l, Data: s.best})
			}
			return s, out, false
		},
		Out: func(state any) Output {
			s := state.(*st)
			return Output{Member: s.best > s.id}
		},
	}
}

// referenceOutputs runs a round algorithm on the specification loop
// and extracts its outputs.
func referenceOutputs(t *testing.T, h *Host, ids []int, algo RoundAlgo, maxRounds int) ([]Output, int) {
	t.Helper()
	states, rounds, err := RunRoundsStates(h, ids, algo, maxRounds)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	outs := make([]Output, len(states))
	for v, st := range states {
		outs[v] = algo.Out(st)
	}
	return outs, rounds
}

// floodSlotState is floodMaxAlgo's state on the word lane, with the
// node's slot count for per-slot sends.
type floodSlotState struct {
	id, best, ticks, slots int32
}

// floodSlotAlgo is floodMaxAlgo on the word lane with one checked
// Send per slot, where floodTypedAlgo broadcasts: the slot-indexed
// send must reach exactly the neighbour the letter-addressed send of
// the specification reaches.
func floodSlotAlgo() TypedAlgo[floodSlotState] {
	return TypedAlgo[floodSlotState]{
		Init: func(v int, info NodeInfo) floodSlotState {
			id := int32(info.ID)
			return floodSlotState{id: id, best: id, ticks: 1 + id%4, slots: int32(len(info.Letters))}
		},
		Step: chunkStep(func(s *floodSlotState, round int, inbox []wordMsg, out sends) bool {
			for _, m := range inbox {
				if v := int32(m.W); v > s.best {
					s.best = v
				}
			}
			if s.ticks == 0 {
				return true
			}
			s.ticks--
			for i := 0; i < int(s.slots); i++ {
				out.Send(i, uint64(s.best))
			}
			return false
		}),
		Out: func(s *floodSlotState) Output { return Output{Member: s.best > s.id} },
	}
}

// TestEngineDifferentialFlood pins the engine's slot-addressed sends
// against the specification loop: outputs and round counts
// byte-identical on every differential host, at parallelism 1 and 8.
func TestEngineDifferentialFlood(t *testing.T) {
	for name, h := range engineHosts(t) {
		n := h.G.N()
		rng := rand.New(rand.NewSource(int64(n)))
		ids := rng.Perm(4 * n)[:n]
		refOuts, refRounds := referenceOutputs(t, h, ids, floodMaxAlgo(), 16)
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			outs, rounds, err := RunRoundsTyped(h, ids, floodSlotAlgo(), 16)
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: engine: %v", name, p, err)
			}
			if rounds != refRounds {
				t.Fatalf("%s p=%d: %d rounds, reference %d", name, p, rounds, refRounds)
			}
			if !reflect.DeepEqual(outs, refOuts) {
				t.Fatalf("%s p=%d: outputs differ from reference", name, p)
			}
		}
	}
}

// TestEngineDifferentialGather pins the word-lane gather against
// GatherViews on the specification loop: identical interned trees
// (pointer equality) and identical round counts, across radii and
// parallelism.
func TestEngineDifferentialGather(t *testing.T) {
	for name, h := range engineHosts(t) {
		for r := 0; r <= 2; r++ {
			refStates, refRounds, err := RunRoundsStates(h, nil, GatherViews(r), r+2)
			if err != nil {
				t.Fatalf("%s r=%d: reference: %v", name, r, err)
			}
			for _, p := range []int{1, 8} {
				old := par.Set(p)
				trees, rounds, rep, err := RunGather(context.Background(), h, r, r+2, nil)
				par.Set(old)
				if err != nil {
					t.Fatalf("%s r=%d p=%d: engine: %v", name, r, p, err)
				}
				if rounds != refRounds || rep != nil {
					t.Fatalf("%s r=%d p=%d: %d rounds, report %v; reference %d rounds", name, r, p, rounds, rep, refRounds)
				}
				for v := range trees {
					if trees[v] != refStates[v].(*GatherState).Tree {
						t.Fatalf("%s r=%d p=%d node %d: gathered tree differs", name, r, p, v)
					}
				}
			}
		}
	}
}

// TestSimulatePORoundsDifferential: the engine-driven operational PO
// path coincides with SimulatePO and RunPO on every differential host.
func TestSimulatePORoundsDifferential(t *testing.T) {
	alg := FuncPO{R: 1, Fn: func(tr *view.Tree) Output {
		return Output{Member: tr.NumChildren()%2 == 0, Letters: tr.Letters()}
	}}
	for name, h := range engineHosts(t) {
		direct, err := RunPO(h, alg, EdgeKind)
		if err != nil {
			t.Fatalf("%s: RunPO: %v", name, err)
		}
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			sim, err := SimulatePORounds(h, alg, EdgeKind)
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: SimulatePORounds: %v", name, p, err)
			}
			a, b := direct.EdgeSet(), sim.EdgeSet()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s p=%d: edge sets differ", name, p)
			}
		}
	}
}

// TestEngineInboxLetterOrder: inboxes arrive sorted by the receiver's
// letter order whatever the worker schedule.
func TestEngineInboxLetterOrder(t *testing.T) {
	defer par.Set(par.Set(8))
	h := HostFromGraph(graph.Torus(6, 6))
	ordered := TypedAlgo[[]view.Letter]{
		Init: func(v int, info NodeInfo) []view.Letter { return info.Letters },
		Step: chunkStep(func(ls *[]view.Letter, round int, inbox []wordMsg, out sends) bool {
			if round == 1 {
				for i := 1; i < len(inbox); i++ {
					if prev, cur := (*ls)[inbox[i-1].Slot], (*ls)[inbox[i].Slot]; !prev.Less(cur) {
						panic(fmt.Sprintf("inbox out of letter order: %v after %v", cur, prev))
					}
				}
				return true
			}
			out.Broadcast(uint64(round))
			return false
		}),
		Out: func(*[]view.Letter) Output { return Output{} },
	}
	if _, _, err := RunRoundsTyped(h, nil, ordered, 4); err != nil {
		t.Fatal(err)
	}
}

// TestEngineErrorsMatchReference: the error paths the engine shares
// with the specification loop produce its exact messages.
func TestEngineErrorsMatchReference(t *testing.T) {
	h := HostFromGraph(graph.Cycle(5))
	never := RoundAlgo{
		Init: func(NodeInfo) any { return nil },
		Step: func(st any, round int, inbox []Msg) (any, []Msg, bool) { return st, nil, false },
		Out:  func(any) Output { return Output{} },
	}
	neverWord := WordAlgo{
		Init: func(int, NodeInfo) uint64 { return 0 },
		Step: chunkStep(func(*uint64, int, []wordMsg, sends) bool { return false }),
		Out:  func(*uint64) Output { return Output{} },
	}
	for _, ids := range [][]int{nil, {1, 2}} {
		_, _, errE := RunRoundsTyped(h, ids, neverWord, 4)
		_, _, errR := RunRoundsStates(h, ids, never, 4)
		if errE == nil || errR == nil || errE.Error() != errR.Error() {
			t.Errorf("ids %v: errors differ: %v vs %v", ids, errE, errR)
		}
	}
}

// TestEngineDuplicateSend: the engine's one-message-per-slot contract
// is enforced with a clear error, clean and faulty.
func TestEngineDuplicateSend(t *testing.T) {
	h := HostFromGraph(graph.Cycle(4))
	dup := WordAlgo{
		Init: func(int, NodeInfo) uint64 { return 0 },
		Step: chunkStep(func(st *uint64, round int, inbox []wordMsg, out sends) bool {
			out.Send(1, 1)
			out.Send(1, 2)
			return false
		}),
		Out: func(*uint64) Output { return Output{} },
	}
	for _, sched := range []Schedule{nil, MustParseProfile("lossy:p=0.5").New(h, 1)} {
		_, _, _, err := RunRoundsTypedFaulty(h, nil, dup, 3, sched)
		if err == nil || !strings.Contains(err.Error(), "sent twice on slot 1") {
			t.Errorf("schedule %v: duplicate send error = %v", sched, err)
		}
	}
}

// slotPulse is the zero-allocation steady-state workload on the
// checked send path: every node sends its remaining round count on
// each of its slots with Send for a fixed number of rounds.
type slotPulse struct {
	left, slots int32
}

func slotPulseAlgo(rounds int) TypedAlgo[slotPulse] {
	return TypedAlgo[slotPulse]{
		Init: func(v int, info NodeInfo) slotPulse {
			return slotPulse{left: int32(rounds), slots: int32(len(info.Letters))}
		},
		Step: func(c *Chunk, states []slotPulse) {
			for c.Next() {
				s := &states[c.Node]
				if s.left == 0 {
					c.Halt()
					continue
				}
				s.left--
				for i := 0; i < int(s.slots); i++ {
					c.Send(i, uint64(s.left))
				}
			}
		},
		Out: func(*slotPulse) Output { return Output{} },
	}
}

// TestEngineSteadyStateAllocs: after arena warm-up, a steady-state
// round of checked per-slot sends allocates nothing. Measured as the
// allocation difference between a long run and a short run on one
// engine (per-run setup — closures, worker scratch — cancels exactly).
func TestEngineSteadyStateAllocs(t *testing.T) {
	defer par.Set(par.Set(1))
	te := NewTypedEngine[slotPulse](HostFromGraph(graph.Cycle(512)))
	runFor := func(rounds int) func() {
		return func() {
			if _, _, err := te.RunStates(nil, slotPulseAlgo(rounds), rounds+2); err != nil {
				t.Fatal(err)
			}
		}
	}
	runFor(8)() // warm-up
	short := testing.AllocsPerRun(3, runFor(8))
	long := testing.AllocsPerRun(3, runFor(264))
	if perRound := (long - short) / 256; perRound > 0.01 {
		t.Errorf("steady-state round allocates: %.3f allocs/round (short run %.0f, long run %.0f)", perRound, short, long)
	}
}

// TestEngineReuseAfterError: a run that fails mid-way (absent slot,
// non-halt) must not poison the plane — the tick advances past every
// stamp the failed run wrote, so the next run on the same engine, here
// by a typed engine of another state type, reads no stale messages.
func TestEngineReuseAfterError(t *testing.T) {
	h := HostFromGraph(graph.Cycle(6))
	e := NewEngine(h)
	bad := WordAlgo{
		Init: func(int, NodeInfo) uint64 { return 0 },
		Step: chunkStep(func(st *uint64, round int, inbox []wordMsg, out sends) bool {
			out.Send(99, 1)
			return false
		}),
		Out: func(*uint64) Output { return Output{} },
	}
	never := WordAlgo{
		Init: func(int, NodeInfo) uint64 { return 0 },
		Step: chunkStep(func(st *uint64, round int, inbox []wordMsg, out sends) bool {
			out.Send(0, uint64(round))
			return false
		}),
		Out: func(*uint64) Output { return Output{} },
	}
	rng := rand.New(rand.NewSource(9))
	ids := rng.Perm(24)[:6]
	want, wantRounds := referenceOutputs(t, h, ids, floodMaxAlgo(), 16)
	words, flood := TypedOn[uint64](e), TypedOn[floodSlotState](e)
	for i := 0; i < 3; i++ {
		if _, _, err := words.RunStates(ids, bad, 4); err == nil {
			t.Fatal("absent slot accepted")
		}
		if _, _, err := words.RunStates(ids, never, 4); err == nil {
			t.Fatal("non-halting run accepted")
		}
		outs, rounds, err := flood.Run(ids, floodSlotAlgo(), 16)
		if err != nil {
			t.Fatalf("run after errors: %v", err)
		}
		if rounds != wantRounds || !reflect.DeepEqual(outs, want) {
			t.Fatalf("iteration %d: results diverge after failed runs", i)
		}
	}
}

// TestEngineReuse: one engine executes many runs (stamps are monotone,
// arenas are never cleared) with results identical to fresh engines,
// also when a typed engine of another state type runs on the same
// plane between them.
func TestEngineReuse(t *testing.T) {
	h := HostFromGraph(graph.Petersen())
	e := NewEngine(h)
	flood, pulse := TypedOn[floodTypedState](e), TypedOn[uint64](e)
	rng := rand.New(rand.NewSource(3))
	ids := rng.Perm(40)[:10]
	var first []Output
	for i := 0; i < 5; i++ {
		outs, rounds, err := flood.Run(ids, floodTypedAlgo(), 16)
		if err != nil {
			t.Fatal(err)
		}
		fresh, freshRounds, err := RunRoundsTyped(h, ids, floodTypedAlgo(), 16)
		if err != nil {
			t.Fatal(err)
		}
		if rounds != freshRounds || !reflect.DeepEqual(outs, fresh) {
			t.Fatalf("run %d on reused engine differs from fresh engine", i)
		}
		if i == 0 {
			first = append([]Output(nil), outs...)
		} else if !reflect.DeepEqual(outs, first) {
			t.Fatalf("run %d differs from run 0", i)
		}
		if _, _, err := pulse.RunStates(nil, typedPulseAlgo(i+1), i+3); err != nil {
			t.Fatalf("interleaved run %d: %v", i, err)
		}
	}
}
