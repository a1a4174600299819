package model

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/view"
)

// floodTypedState mirrors floodMaxAlgo's boxed state as a typed
// column entry (a non-trivial S exercising the generic path).
type floodTypedState struct {
	id    int32
	best  int32
	ticks int32
}

// floodTypedAlgo is floodMaxAlgo on the typed plane: same staggered
// halting, same flood-the-best-id traffic, with the id riding the
// word lane. Outputs must match the untyped algorithm byte for byte.
func floodTypedAlgo() TypedAlgo[floodTypedState] {
	return TypedAlgo[floodTypedState]{
		Init: func(v int, info NodeInfo) floodTypedState {
			id := int32(info.ID)
			return floodTypedState{id: id, best: id, ticks: 1 + id%4}
		},
		Step: func(s *floodTypedState, round int, inbox []WordMsg, out *Outbox) bool {
			for _, m := range inbox {
				if v := int32(m.W); v > s.best {
					s.best = v
				}
			}
			if s.ticks == 0 {
				return true
			}
			s.ticks--
			out.BroadcastWord(uint64(s.best))
			return false
		},
		Out: func(s *floodTypedState) Output {
			return Output{Member: s.best > s.id}
		},
	}
}

// TestTypedDifferentialFlood pins the typed engine against both the
// untyped engine and the sequential reference: identical outputs and
// round counts on every differential host, at parallelism 1 and 8.
func TestTypedDifferentialFlood(t *testing.T) {
	for name, h := range engineHosts(t) {
		n := h.G.N()
		ids := rand.New(rand.NewSource(int64(n))).Perm(4 * n)[:n]
		refStates, refRounds, err := RunRoundsReference(h, ids, floodMaxAlgo(), 16)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		refOuts := make([]Output, n)
		for v, st := range refStates {
			refOuts[v] = floodMaxAlgo().Out(st)
		}
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			outs, rounds, err := RunRoundsTyped(h, ids, floodTypedAlgo(), 16)
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: typed: %v", name, p, err)
			}
			if rounds != refRounds {
				t.Fatalf("%s p=%d: %d rounds, reference %d", name, p, rounds, refRounds)
			}
			if !reflect.DeepEqual(outs, refOuts) {
				t.Fatalf("%s p=%d: typed outputs differ from reference", name, p)
			}
		}
	}
}

// TestTypedFaultyMatchesUntyped: under every profile family, the typed
// run degrades exactly like the untyped run of the same algorithm —
// same outputs, same round count, same fault report — because fates
// are hashes of (seed, round, slot) coordinates shared by both lanes.
func TestTypedFaultyMatchesUntyped(t *testing.T) {
	for _, desc := range []string{"lossy:p=0.2", "dup+reorder", "crash:f=6,by=4", "churn:p=0.3,window=2", "adversarial:p=0.1,f=3"} {
		h := HostFromGraph(graph.Torus(8, 8))
		n := h.G.N()
		ids := rand.New(rand.NewSource(1)).Perm(4 * n)[:n]
		sched := MustParseProfile(desc).New(h, 99)
		uOuts, uRounds, uRep, err := RunRoundsFaulty(h, ids, floodMaxAlgo(), 300, sched)
		if err != nil {
			t.Fatalf("%s: untyped: %v", desc, err)
		}
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			tOuts, tRounds, tRep, err := RunRoundsTypedFaulty(h, ids, floodTypedAlgo(), 300, sched)
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: typed: %v", desc, p, err)
			}
			if tRounds != uRounds || !reflect.DeepEqual(tOuts, uOuts) {
				t.Errorf("%s p=%d: typed faulty run differs from untyped (reproducer: seed=99)", desc, p)
			}
			if !reflect.DeepEqual(tRep, uRep) {
				t.Errorf("%s p=%d: reports differ: typed %+v untyped %+v", desc, p, tRep, uRep)
			}
		}
	}
}

// TestTypedCleanFaultyPins: a nil schedule through the typed faulty
// entry takes the exact clean path, with the all-zero "clean" report.
func TestTypedCleanFaultyPins(t *testing.T) {
	h := HostFromGraph(graph.Torus(6, 6))
	n := h.G.N()
	ids := rand.New(rand.NewSource(2)).Perm(4 * n)[:n]
	want, wantRounds, err := RunRoundsTyped(h, ids, floodTypedAlgo(), 16)
	if err != nil {
		t.Fatal(err)
	}
	outs, rounds, rep, err := RunRoundsTypedFaulty(h, ids, floodTypedAlgo(), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != wantRounds || !reflect.DeepEqual(outs, want) {
		t.Fatal("clean typed faulty run differs from typed clean run")
	}
	if rep.Profile != "clean" || rep.Dropped != 0 || rep.Duplicated != 0 ||
		rep.Reordered != 0 || rep.DownSteps != 0 || rep.NumCrashed != 0 || rep.Crashed != nil {
		t.Fatalf("clean report not all-zero: %+v", rep)
	}
}

// TestTypedInboxSlotRouting: typed inboxes arrive in strictly
// increasing slot order whatever the worker schedule, every slot
// index names the letter the typed Init contract promises, and the
// payload proves the routing — each word is the sender's index, and
// the slot's letter at the receiver must resolve back to exactly that
// sender.
func TestTypedInboxSlotRouting(t *testing.T) {
	defer par.Set(par.Set(8))
	h := HostFromGraph(graph.Torus(6, 6))
	type st struct {
		v       int32
		letters []view.Letter
	}
	algo := TypedAlgo[st]{
		Init: func(v int, info NodeInfo) st {
			for i := 1; i < len(info.Letters); i++ {
				if !info.Letters[i-1].Less(info.Letters[i]) {
					t.Errorf("node %d: typed info letters not letter-sorted at %d", v, i)
				}
			}
			return st{v: int32(v), letters: info.Letters}
		},
		Step: func(s *st, round int, inbox []WordMsg, out *Outbox) bool {
			if round == 1 {
				for i, m := range inbox {
					if i > 0 && inbox[i-1].Slot >= m.Slot {
						t.Errorf("node %d: inbox out of slot order", s.v)
					}
					from, ok := resolveLetter(h, int(s.v), s.letters[m.Slot])
					if !ok || uint64(from) != m.W {
						t.Errorf("node %d slot %d: word %d, letter resolves to %d", s.v, m.Slot, m.W, from)
					}
				}
				return true
			}
			out.BroadcastWord(uint64(s.v))
			return false
		},
		Out: func(*st) Output { return Output{} },
	}
	if _, _, err := RunRoundsTyped(h, nil, algo, 4); err != nil {
		t.Fatal(err)
	}
}

// TestTypedErrorFormats: the typed send contract fails with the same
// shaped errors as the untyped one — round-stamped, profile-suffixed
// on faulty runs — plus the ids-length check.
func TestTypedErrorFormats(t *testing.T) {
	h := HostFromGraph(graph.Cycle(5))
	badAt := func(round int) WordAlgo {
		return WordAlgo{
			Init: func(int, NodeInfo) uint64 { return 0 },
			Step: func(st *uint64, r int, inbox []WordMsg, out *Outbox) bool {
				if r == round {
					out.SendWord(99, 7)
					return false
				}
				out.BroadcastWord(uint64(r))
				return false
			},
			Out: func(*uint64) Output { return Output{} },
		}
	}
	_, _, err := RunRoundsTyped(h, nil, badAt(2), 6)
	want := "model: round 2: node 0 sent on absent slot 99 (node has 2)"
	if err == nil || err.Error() != want {
		t.Errorf("clean absent-slot error = %v, want %q", err, want)
	}
	sched := MustParseProfile("lossy:p=0").New(h, 1)
	_, _, _, err = RunRoundsTypedFaulty(h, nil, badAt(2), 6, sched)
	want = "model: round 2 [lossy:p=0]: node 0 sent on absent slot 99 (node has 2)"
	if err == nil || err.Error() != want {
		t.Errorf("faulty absent-slot error = %v, want %q", err, want)
	}

	dup := WordAlgo{
		Init: func(int, NodeInfo) uint64 { return 0 },
		Step: func(st *uint64, r int, inbox []WordMsg, out *Outbox) bool {
			out.SendWord(0, 1)
			out.SendWord(0, 2)
			return false
		},
		Out: func(*uint64) Output { return Output{} },
	}
	_, _, err = RunRoundsTyped(h, nil, dup, 3)
	if err == nil || !strings.HasPrefix(err.Error(), "model: round 0: node ") ||
		!strings.Contains(err.Error(), "sent twice on slot 0") {
		t.Errorf("typed double-send error lacks round prefix: %v", err)
	}

	never := WordAlgo{
		Init: func(int, NodeInfo) uint64 { return 0 },
		Step: func(*uint64, int, []WordMsg, *Outbox) bool { return false },
		Out:  func(*uint64) Output { return Output{} },
	}
	_, _, err = RunRoundsTyped(h, nil, never, 4)
	want = "model: node 0 did not halt within 4 rounds"
	if err == nil || err.Error() != want {
		t.Errorf("typed non-halt error = %v, want %q", err, want)
	}

	if _, _, err := RunRoundsTyped(h, []int{1, 2}, never, 4); err == nil ||
		!strings.Contains(err.Error(), "2 ids for 5 nodes") {
		t.Errorf("typed ids-length error = %v", err)
	}
}

// TestScratchPreSized: the per-worker compaction scratch bound. The
// plane's maxSlots must equal the widest slot row, and a schedule
// that duplicates every delivery (the worst case the 2x fault scratch
// is sized for) must run without growing anything — pinned both by
// the run completing and by the typed/untyped agreement under it.
func TestScratchPreSized(t *testing.T) {
	for name, h := range engineHosts(t) {
		e := NewEngine(h)
		want := int32(0)
		for v := 0; v < h.G.N(); v++ {
			if w := int32(len(h.D.Out(v)) + len(h.D.In(v))); w > want {
				want = w
			}
		}
		if e.maxSlots != want {
			t.Errorf("%s: maxSlots = %d, want %d", name, e.maxSlots, want)
		}
	}

	// dup+reorder:p=1 duplicates every delivered message: inboxes hit
	// exactly 2x the in-degree, the fault scratch's sized bound.
	h := HostFromGraph(graph.Torus(8, 8))
	n := h.G.N()
	ids := rand.New(rand.NewSource(4)).Perm(4 * n)[:n]
	sched := MustParseProfile("dup+reorder:p=1").New(h, 7)
	uOuts, _, uRep, err := RunRoundsFaulty(h, ids, floodMaxAlgo(), 300, sched)
	if err != nil {
		t.Fatalf("untyped all-duplicate run: %v", err)
	}
	if uRep.Duplicated == 0 {
		t.Fatal("p=1 duplication schedule duplicated nothing")
	}
	tOuts, _, tRep, err := RunRoundsTypedFaulty(h, ids, floodTypedAlgo(), 300, sched)
	if err != nil {
		t.Fatalf("typed all-duplicate run: %v", err)
	}
	if !reflect.DeepEqual(tOuts, uOuts) || !reflect.DeepEqual(tRep, uRep) {
		t.Fatal("typed and untyped all-duplicate runs disagree")
	}
}

// typedPulseAlgo is the typed steady-state workload: the remaining
// round count is the whole state.
func typedPulseAlgo(rounds int) WordAlgo {
	return WordAlgo{
		Init: func(int, NodeInfo) uint64 { return uint64(rounds) },
		Step: func(st *uint64, round int, inbox []WordMsg, out *Outbox) bool {
			if *st == 0 {
				return true
			}
			*st--
			out.BroadcastWord(*st)
			return false
		},
		Out: func(*uint64) Output { return Output{} },
	}
}

// TestTypedSteadyStateAllocs: a steady-state typed round allocates
// nothing, on the clean and the faulty path alike. Measured as the
// long-run minus short-run allocation difference on one engine
// (per-run setup — closures, per-worker scratch — cancels exactly).
func TestTypedSteadyStateAllocs(t *testing.T) {
	defer par.Set(par.Set(1))
	h := HostFromGraph(graph.Cycle(512))
	te := NewWordEngine(h)
	sched := MustParseProfile("lossy:p=0.05").New(h, 11)
	for _, c := range []struct {
		name   string
		runFor func(rounds int) func()
	}{
		{"clean", func(rounds int) func() {
			return func() {
				if _, _, err := te.RunStates(nil, typedPulseAlgo(rounds), rounds+2); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"faulty", func(rounds int) func() {
			return func() {
				if _, _, _, err := te.RunStatesFaulty(nil, typedPulseAlgo(rounds), rounds+2, sched); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		c.runFor(8)() // warm-up
		short := testing.AllocsPerRun(3, c.runFor(8))
		long := testing.AllocsPerRun(3, c.runFor(264))
		if perRound := (long - short) / 256; perRound > 0.01 {
			t.Errorf("%s: steady-state typed round allocates: %.3f allocs/round (short %.0f, long %.0f)", c.name, perRound, short, long)
		}
	}
}

// TestTypedUntypedPlaneSharing: typed and untyped runs alternate on
// ONE message plane — the monotone stamp discipline keeps the lanes
// from ever reading each other's leftovers, so every run matches a
// fresh engine byte for byte. Both orders are pinned: untyped first on
// a TypedOn-attached engine, and typed first on a fresh typed engine,
// whose first untyped run builds the boxed lane mid-life over stamps
// the typed run has already written.
func TestTypedUntypedPlaneSharing(t *testing.T) {
	h := HostFromGraph(graph.Petersen())
	rng := rand.New(rand.NewSource(3))
	ids := rng.Perm(40)[:10]
	wantU, wantRounds, err := RunRounds(h, ids, floodMaxAlgo(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, typedFirst := range []bool{false, true} {
		te := TypedOn[floodTypedState](NewEngine(h))
		if typedFirst {
			te = NewTypedEngine[floodTypedState](h)
		}
		e := te.Engine()
		lanes := []bool{false, true}
		if typedFirst {
			lanes = []bool{true, false}
		}
		for i := 0; i < 3; i++ {
			for _, typed := range lanes {
				var outs []Output
				var rounds int
				var err error
				if typed {
					outs, rounds, err = te.Run(ids, floodTypedAlgo(), 16)
				} else {
					outs, rounds, err = e.Run(ids, floodMaxAlgo().engine(), 16)
				}
				if err != nil {
					t.Fatalf("typedFirst=%v iteration %d typed=%v: %v", typedFirst, i, typed, err)
				}
				if rounds != wantRounds || !reflect.DeepEqual(outs, wantU) {
					t.Fatalf("typedFirst=%v iteration %d typed=%v: alternating lanes diverged from fresh run", typedFirst, i, typed)
				}
				if i == 0 && typed && typedFirst && e.buf[0] != nil {
					t.Fatalf("a typed run built the boxed lane")
				}
			}
		}
	}
}

// TestCrossLaneSendFails: a send on the lane the run does not use is a
// run error carrying the round, on faulty runs the profile, the node
// and the lane — on a plain engine (no word lane), on a TypedOn-attached
// engine (the untyped run builds the boxed lane beside a word lane) and
// on a typed engine whose boxed lane was never built — clean and
// faulty. The engine then runs both lanes correctly.
func TestCrossLaneSendFails(t *testing.T) {
	h := HostFromGraph(graph.Petersen())
	ids := rand.New(rand.NewSource(3)).Perm(40)[:10]
	wantOuts, wantRounds, err := RunRounds(h, ids, floodMaxAlgo(), 16)
	if err != nil {
		t.Fatal(err)
	}
	// Node 3 misuses a lane in round 1; every node halts after round 2.
	untyped := func(send func(*Outbox)) EngineAlgo {
		return EngineAlgo{
			Init: func(NodeInfo) any { return nil },
			Step: func(st any, r int, _ []Msg, out *Outbox) (any, bool) {
				if r == 1 && out.v == 3 {
					send(out)
				}
				return st, r >= 2
			},
			Out: func(any) Output { return Output{} },
		}
	}
	typed := func(send func(*Outbox)) WordAlgo {
		return WordAlgo{
			Init: func(int, NodeInfo) uint64 { return 0 },
			Step: func(_ *uint64, r int, _ []WordMsg, out *Outbox) bool {
				if r == 1 && out.v == 3 {
					send(out)
				}
				return r >= 2
			},
			Out: func(*uint64) Output { return Output{} },
		}
	}
	broadcast := func(ob *Outbox) { ob.BroadcastWord(7) }
	sendWord := func(ob *Outbox) { ob.SendWord(0, 7) }
	send := func(ob *Outbox) { ob.Send(ob.e.letters[ob.e.off[ob.v]], 7) }
	cases := []struct {
		name          string
		attach, typed bool
		send          func(*Outbox)
	}{
		{"untyped BroadcastWord", false, false, broadcast},
		{"untyped SendWord", false, false, sendWord},
		{"attached untyped BroadcastWord", true, false, broadcast},
		{"attached untyped SendWord", true, false, sendWord},
		{"typed Send", true, true, send},
	}
	for _, prof := range []string{"", "lossy:p=0"} {
		var sched Schedule
		prefix := "model: round 1: "
		if prof != "" {
			sched = MustParseProfile(prof).New(h, 1)
			prefix = "model: round 1 [" + prof + "]: "
		}
		for _, c := range cases {
			name := c.name + " " + prof
			e := NewEngine(h)
			if c.attach {
				TypedOn[uint64](e)
			}
			var err error
			want := prefix + "node 3 sent on the word lane during an untyped run"
			if c.typed {
				_, _, _, err = TypedOn[uint64](e).RunStatesFaulty(ids, typed(c.send), 8, sched)
				want = prefix + "node 3 sent on the boxed lane during a typed run"
			} else {
				_, _, _, err = e.RunStatesFaulty(ids, untyped(c.send), 8, sched)
			}
			if err == nil || err.Error() != want {
				t.Errorf("%s: error %v, want %q", name, err, want)
			}
			outs, rounds, err := e.Run(ids, floodMaxAlgo().engine(), 16)
			if err != nil || rounds != wantRounds || !reflect.DeepEqual(outs, wantOuts) {
				t.Errorf("%s: untyped run after the error diverged (err %v)", name, err)
			}
			outs, rounds, err = TypedOn[floodTypedState](e).Run(ids, floodTypedAlgo(), 16)
			if err != nil || rounds != wantRounds || !reflect.DeepEqual(outs, wantOuts) {
				t.Errorf("%s: typed run after the error diverged (err %v)", name, err)
			}
		}
	}
}

// TestWordEngineBytesPerSlot: a typed-only engine allocates the shared
// plane and the word lane's cell arenas, never the boxed lane or its
// stamps. On torus:64x64 (16,384 slots) that is 52 B per slot plus the
// per-node columns, about 61 B per slot in all; the boxed lane would
// add 128 B per slot and 16 B per node on top.
func TestWordEngineBytesPerSlot(t *testing.T) {
	h := HostFromGraph(graph.Torus(64, 64))
	slots := 0
	for v := 0; v < h.G.N(); v++ {
		slots += len(h.D.Out(v)) + len(h.D.In(v))
	}
	least := uint64(math.MaxUint64)
	var te *WordEngine
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		te = NewWordEngine(h)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	per := float64(least) / float64(slots)
	t.Logf("NewWordEngine: %.1f B per slot (%d B for %d slots)", per, least, slots)
	if per > 72 {
		t.Errorf("NewWordEngine allocates %.1f B per slot, want at most 72", per)
	}
	if e := te.Engine(); e.buf[0] != nil || e.dense != nil || e.info != nil || e.states != nil {
		t.Error("NewWordEngine built the boxed lane")
	}
	if e := te.Engine(); e.stamp[0] != nil || e.stamp[1] != nil {
		t.Error("NewWordEngine built the boxed lane's stamps")
	}
}

// TestTypedReuseAfterError: a typed run failing mid-way (absent slot,
// non-halt) must not poison the shared plane for later typed runs.
func TestTypedReuseAfterError(t *testing.T) {
	h := HostFromGraph(graph.Cycle(6))
	te := NewWordEngine(h)
	bad := WordAlgo{
		Init: func(int, NodeInfo) uint64 { return 0 },
		Step: func(st *uint64, r int, inbox []WordMsg, out *Outbox) bool {
			out.SendWord(99, 1)
			return false
		},
		Out: func(*uint64) Output { return Output{} },
	}
	never := WordAlgo{
		Init: func(int, NodeInfo) uint64 { return 0 },
		Step: func(st *uint64, r int, inbox []WordMsg, out *Outbox) bool {
			out.BroadcastWord(uint64(r))
			return false
		},
		Out: func(*uint64) Output { return Output{} },
	}
	h2 := HostFromGraph(graph.Cycle(6))
	want, _, err := NewWordEngine(h2).RunStates(nil, typedPulseAlgo(5), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := te.RunStates(nil, bad, 4); err == nil {
			t.Fatal("absent slot accepted")
		}
		if _, _, err := te.RunStates(nil, never, 4); err == nil {
			t.Fatal("non-halting typed run accepted")
		}
		col, _, err := te.RunStates(nil, typedPulseAlgo(5), 8)
		if err != nil {
			t.Fatalf("typed run after errors: %v", err)
		}
		if !reflect.DeepEqual(col, want) {
			t.Fatalf("iteration %d: typed results diverge after failed runs", i)
		}
	}
}

// TestSimulatePORoundsTypedDifferential: the typed word-lane gather
// coincides with RunPO and the untyped SimulatePORounds on every
// differential host — the column-handle encoding of tree payloads is
// semantically invisible.
func TestSimulatePORoundsTypedDifferential(t *testing.T) {
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
			sim, err := SimulatePORoundsTyped(h, alg, EdgeKind)
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: SimulatePORoundsTyped: %v", name, p, err)
			}
			if !reflect.DeepEqual(direct.EdgeSet(), sim.EdgeSet()) {
				t.Fatalf("%s p=%d: typed gather edge sets differ", name, p)
			}
		}
	}
}

// TestSimulatePORoundsTypedFaulty: under a fault schedule the typed
// gather degrades exactly like the untyped one — same solution, same
// report — at parallelism 1 and 8.
func TestSimulatePORoundsTypedFaulty(t *testing.T) {
	alg := FuncPO{R: 2, Fn: func(tr *view.Tree) Output {
		return Output{Member: tr.NumChildren()%2 == 0}
	}}
	for _, desc := range []string{"lossy:p=0.15", "crash:f=5,by=2", "dup+reorder:p=0.3"} {
		h := HostFromGraph(graph.Torus(6, 6))
		sched := MustParseProfile(desc).New(h, 13)
		uSol, uRep, err := SimulatePORoundsFaulty(h, alg, VertexKind, sched, 300)
		if err != nil {
			t.Fatalf("%s: untyped: %v", desc, err)
		}
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			tSol, tRep, err := SimulatePORoundsTypedFaulty(h, alg, VertexKind, sched, 300)
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: typed: %v", desc, p, err)
			}
			if !reflect.DeepEqual(tSol.Vertices, uSol.Vertices) {
				t.Errorf("%s p=%d: typed faulty gather solution differs (reproducer: seed=13)", desc, p)
			}
			if !reflect.DeepEqual(tRep, uRep) {
				t.Errorf("%s p=%d: reports differ", desc, p)
			}
		}
	}
}

// TestShuffleWordMsgsMatches: the typed reorder permutes a same-length
// inbox exactly like the untyped reorder for every seed.
func TestShuffleWordMsgsMatches(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		n := 1 + int(seed)%9
		ms := make([]Msg, n)
		ws := make([]WordMsg, n)
		for i := 0; i < n; i++ {
			ms[i] = Msg{Data: i}
			ws[i] = WordMsg{W: uint64(i)}
		}
		shuffleMsgs(ms, seed)
		shuffleWordMsgs(ws, seed)
		for i := range ms {
			if ms[i].Data.(int) != int(ws[i].W) {
				t.Fatalf("seed %d: permutations diverge at %d", seed, i)
			}
		}
	}
}
