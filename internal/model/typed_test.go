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

// floodTypedState mirrors floodMaxAlgo's state as a typed column
// entry (a non-trivial S exercising the generic path).
type floodTypedState struct {
	id    int32
	best  int32
	ticks int32
}

// floodTypedAlgo is floodMaxAlgo on the word lane: same staggered
// halting, same flood-the-best-id traffic, with the id riding the
// word lane. Outputs must match the specification byte for byte.
func floodTypedAlgo() TypedAlgo[floodTypedState] {
	return TypedAlgo[floodTypedState]{
		Init: func(v int, info NodeInfo) floodTypedState {
			id := int32(info.ID)
			return floodTypedState{id: id, best: id, ticks: 1 + id%4}
		},
		Step: chunkStep(floodTypedStep),
		Out: func(s *floodTypedState) Output {
			return Output{Member: s.best > s.id}
		},
	}
}

func floodTypedStep(s *floodTypedState, round int, inbox []wordMsg, out sends) bool {
	for _, m := range inbox {
		if v := int32(m.W); v > s.best {
			s.best = v
		}
	}
	if s.ticks == 0 {
		return true
	}
	s.ticks--
	out.Broadcast(uint64(s.best))
	return false
}

// floodWordInit and floodWordStep are floodTypedAlgo packed into one
// word: best in bits 32-63, id in bits 8-31 and the remaining ticks in
// bits 0-7.
func floodWordInit(id int) uint64 {
	w := uint64(id)
	return w<<32 | w<<8 | uint64(1+id%4)
}

func floodWordStep(s *uint64, round int, inbox []wordMsg, out sends) bool {
	best, id, ticks := *s>>32, *s>>8&0xffffff, *s&0xff
	for _, m := range inbox {
		best = max(best, m.W)
	}
	if ticks == 0 {
		*s = best<<32 | id<<8
		return true
	}
	*s = best<<32 | id<<8 | (ticks - 1)
	out.Broadcast(best)
	return false
}

// floodSpec runs floodTypedAlgo on the specification loop — the
// reference for faulty runs of the engines — and returns its outputs,
// round count and fault report.
func floodSpec(t *testing.T, h *Host, ids []int, maxRounds int, sched Schedule) ([]Output, int, *FaultReport) {
	t.Helper()
	algo := floodTypedAlgo()
	states, rounds, rep, err := specRun(h, ids, algo.Init, floodTypedStep, maxRounds, sched)
	if err != nil {
		t.Fatalf("specification loop: %v", err)
	}
	outs := make([]Output, len(states))
	for v := range states {
		outs[v] = algo.Out(&states[v])
	}
	return outs, rounds, rep
}

// TestTypedDifferentialFlood pins the typed engine against the
// specification loop: identical outputs and round counts on every
// differential host, at parallelism 1 and 8.
func TestTypedDifferentialFlood(t *testing.T) {
	for name, h := range engineHosts(t) {
		n := h.G.N()
		ids := rand.New(rand.NewSource(int64(n))).Perm(4 * n)[:n]
		refOuts, refRounds := referenceOutputs(t, h, ids, floodMaxAlgo(), 16)
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
// flat run degrades exactly like the same flood on the specification
// loop — same outputs, same round count, same fault report — because
// fates are hashes of (seed, round, slot) coordinates, whatever order
// and whichever engine asks them.
func TestTypedFaultyMatchesUntyped(t *testing.T) {
	for _, desc := range []string{"lossy:p=0.2", "dup+reorder", "crash:f=6,by=4", "churn:p=0.3,window=2", "adversarial:p=0.1,f=3"} {
		h := HostFromGraph(graph.Torus(8, 8))
		n := h.G.N()
		ids := rand.New(rand.NewSource(1)).Perm(4 * n)[:n]
		sched := MustParseProfile(desc).New(h, 99)
		uOuts, uRounds, uRep := floodSpec(t, h, ids, 300, sched)
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			tOuts, tRounds, tRep, err := RunRoundsTypedFaulty(h, ids, floodTypedAlgo(), 300, sched)
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: typed: %v", desc, p, err)
			}
			if tRounds != uRounds || !reflect.DeepEqual(tOuts, uOuts) {
				t.Errorf("%s p=%d: typed faulty run differs from the specification loop (reproducer: seed=99)", desc, p)
			}
			if !reflect.DeepEqual(tRep, uRep) {
				t.Errorf("%s p=%d: reports differ: typed %+v specification %+v", desc, p, tRep, uRep)
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
		Step: chunkStep(func(s *st, round int, inbox []wordMsg, out sends) bool {
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
			out.Broadcast(uint64(s.v))
			return false
		}),
		Out: func(*st) Output { return Output{} },
	}
	if _, _, err := RunRoundsTyped(h, nil, algo, 4); err != nil {
		t.Fatal(err)
	}
}

// TestTypedErrorFormats: the typed send contract fails with
// round-stamped errors, profile-suffixed on faulty runs, plus the
// ids-length check.
func TestTypedErrorFormats(t *testing.T) {
	h := HostFromGraph(graph.Cycle(5))
	badAt := func(round int) WordAlgo {
		return WordAlgo{
			Init: func(int, NodeInfo) uint64 { return 0 },
			Step: chunkStep(func(st *uint64, r int, inbox []wordMsg, out sends) bool {
				if r == round {
					out.Send(99, 7)
					return false
				}
				out.Broadcast(uint64(r))
				return false
			}),
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
		Step: chunkStep(func(st *uint64, r int, inbox []wordMsg, out sends) bool {
			out.Send(0, 1)
			out.Send(0, 2)
			return false
		}),
		Out: func(*uint64) Output { return Output{} },
	}
	_, _, err = RunRoundsTyped(h, nil, dup, 3)
	if err == nil || !strings.HasPrefix(err.Error(), "model: round 0: node ") ||
		!strings.Contains(err.Error(), "sent twice on slot 0") {
		t.Errorf("typed double-send error lacks round prefix: %v", err)
	}

	never := WordAlgo{
		Init: func(int, NodeInfo) uint64 { return 0 },
		Step: chunkStep(func(*uint64, int, []wordMsg, sends) bool { return false }),
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

// TestScratchPreSized: the per-worker fault scratch bound. The plane's
// maxSlots must equal the widest slot row, and a schedule that
// duplicates every delivery (the worst case the delivery-order map,
// at least twice the widest row, is sized for) must run without
// growing anything — pinned both by the run completing and by its
// agreement with the specification loop under it.
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
	uOuts, _, uRep := floodSpec(t, h, ids, 300, sched)
	if uRep.Duplicated == 0 {
		t.Fatal("p=1 duplication schedule duplicated nothing")
	}
	tOuts, _, tRep, err := RunRoundsTypedFaulty(h, ids, floodTypedAlgo(), 300, sched)
	if err != nil {
		t.Fatalf("typed all-duplicate run: %v", err)
	}
	if !reflect.DeepEqual(tOuts, uOuts) || !reflect.DeepEqual(tRep, uRep) {
		t.Fatal("flat all-duplicate run disagrees with the specification loop")
	}
}

// typedPulseAlgo is the typed steady-state workload: the remaining
// round count is the whole state. Its step walks the cursor itself
// (the per-node adapter allocates), and reads its inbox, so the
// allocation tests cover the in-place inbox too.
func typedPulseAlgo(rounds int) WordAlgo {
	return WordAlgo{
		Init: func(int, NodeInfo) uint64 { return uint64(rounds) },
		Step: func(c *Chunk, states []uint64) {
			for c.Next() {
				st := states[c.Node]
				for _, w := range c.Inbox {
					st = min(st, w+1)
				}
				if st == 0 {
					c.Halt()
					continue
				}
				states[c.Node] = st - 1
				c.Broadcast(st - 1)
			}
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

// TestWordEngineBytesPerSlot: a word engine allocates the plane —
// letters, routing and the two cell arenas — and its per-node
// columns: on torus:64x64 (16,384 slots) 52 B per slot plus the
// columns, about 61 B per slot in all.
func TestWordEngineBytesPerSlot(t *testing.T) {
	h := HostFromGraph(graph.Torus(64, 64))
	slots := 0
	for v := 0; v < h.G.N(); v++ {
		slots += len(h.D.Out(v)) + len(h.D.In(v))
	}
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		NewWordEngine(h)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	per := float64(least) / float64(slots)
	t.Logf("NewWordEngine: %.1f B per slot (%d B for %d slots)", per, least, slots)
	if per > 72 {
		t.Errorf("NewWordEngine allocates %.1f B per slot, want at most 72", per)
	}
}

// TestTypedReuseAfterError: a typed run failing mid-way (absent slot,
// non-halt) must not poison the shared plane for later typed runs.
func TestTypedReuseAfterError(t *testing.T) {
	h := HostFromGraph(graph.Cycle(6))
	te := NewWordEngine(h)
	bad := WordAlgo{
		Init: func(int, NodeInfo) uint64 { return 0 },
		Step: chunkStep(func(st *uint64, r int, inbox []wordMsg, out sends) bool {
			out.Send(99, 1)
			return false
		}),
		Out: func(*uint64) Output { return Output{} },
	}
	never := WordAlgo{
		Init: func(int, NodeInfo) uint64 { return 0 },
		Step: chunkStep(func(st *uint64, r int, inbox []wordMsg, out sends) bool {
			out.Broadcast(uint64(r))
			return false
		}),
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

// TestSimulatePORoundsTypedFaulty: under a fault schedule the
// word-lane gather degrades exactly as the boxed-payload gather it
// replaced did — same solution, same report — at parallelism 1 and 8.
// The expected values were recorded from that gather's runs (torus
// 6x6, seed 13); crashed nodes are absent from the solution.
func TestSimulatePORoundsTypedFaulty(t *testing.T) {
	alg := FuncPO{R: 2, Fn: func(tr *view.Tree) Output {
		return Output{Member: tr.NumChildren()%2 == 0}
	}}
	for _, c := range []struct {
		desc, members                   string
		dropped, duped, reordered, down int64
		crashed                         []int
	}{
		{"lossy:p=0.15", "111101010101001111111111101110010111", 43, 0, 0, 0, nil},
		{"crash:f=5,by=2", "000001001000001001011101101111000011", 0, 0, 0, 0, []int{3, 6, 12, 16, 31}},
		{"dup+reorder:p=0.3", "111111111111111111111111111111111111", 0, 88, 72, 0, nil},
	} {
		h := HostFromGraph(graph.Torus(6, 6))
		sched := MustParseProfile(c.desc).New(h, 13)
		want := &FaultReport{Profile: c.desc, Dropped: c.dropped, Duplicated: c.duped, Reordered: c.reordered,
			DownSteps: c.down, NumCrashed: len(c.crashed), Crashed: make([]bool, h.G.N())}
		for _, v := range c.crashed {
			want.Crashed[v] = true
		}
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			sol, rep, err := SimulatePORoundsFaulty(h, alg, VertexKind, sched, 300)
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: %v", c.desc, p, err)
			}
			members := make([]byte, len(sol.Vertices))
			for v, in := range sol.Vertices {
				members[v] = '0'
				if in {
					members[v] = '1'
				}
			}
			if string(members) != c.members {
				t.Errorf("%s p=%d: solution %s, want %s (reproducer: seed=13)", c.desc, p, members, c.members)
			}
			if !reflect.DeepEqual(rep, want) {
				t.Errorf("%s p=%d: report %+v, want %+v", c.desc, p, rep, want)
			}
		}
	}
}

// TestShuffleWordMsgsMatches pins the adversarial reorder: for every
// seed, shuffleOrder permutes an inbox of 1+seed%9 deliveries exactly
// as recorded (delivery i moved to the position of digit i), so faulty
// runs stay reproducible from their (seed, profile) reproducers.
func TestShuffleWordMsgsMatches(t *testing.T) {
	want := []string{
		"10", "210", "0321", "40321", "452310", "5631204", "61032475", "567803142",
		"0", "10", "120", "1320", "13024", "204513", "5642301", "04167352", "376145802",
		"0", "10", "012", "0231", "04123", "324105", "3145602", "06734521", "147620538",
		"0", "01", "120", "0132", "10423", "231504", "0435261", "12576034", "063284157",
		"0", "10", "210", "2310", "24013", "243015", "0423165", "61035724", "025473168",
		"0", "10", "102", "0231", "03241", "230154", "5160342", "01543267", "106382745",
		"0", "01", "021", "3102", "13402", "510243", "0342615", "25746130", "510387624",
		"0", "01",
	}
	for seed := uint64(1); seed <= 64; seed++ {
		n := 1 + int(seed)%9
		ws := make([]int32, n)
		for i := range ws {
			ws[i] = int32(i)
		}
		shuffleOrder(ws, seed)
		got := make([]byte, n)
		for i, m := range ws {
			got[i] = byte('0' + m)
		}
		if string(got) != want[seed-1] {
			t.Fatalf("seed %d: permutation %s, want %s", seed, got, want[seed-1])
		}
	}
}
