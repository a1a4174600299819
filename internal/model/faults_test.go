package model

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/view"
)

// TestParseProfile: the descriptor grammar accepts the canned
// families and rejects everything else with the full listing, exactly
// like the host registry.
func TestParseProfile(t *testing.T) {
	for _, desc := range []string{
		"clean",
		"lossy",
		"lossy:p=0.5",
		"dup+reorder",
		"dup+reorder:p=0.1",
		"crash:f=3",
		"crash:f=3,by=4,recover=2",
		"churn",
		"churn:p=0.2,window=2",
		"adversarial",
		"adversarial:p=0.1,f=2,by=4",
	} {
		p, err := ParseProfile(desc)
		if err != nil {
			t.Errorf("ParseProfile(%q): %v", desc, err)
			continue
		}
		if p.Desc != desc {
			t.Errorf("ParseProfile(%q).Desc = %q", desc, p.Desc)
		}
	}
	if s := MustParseProfile("clean").New(nil, 1); s != nil {
		t.Errorf("clean profile built a non-nil schedule %v", s)
	}

	for _, bad := range []string{
		"nosuch",
		"nosuch:p=0.1",
		"lossy:p=1.5",
		"lossy:p=x",
		"lossy:q=0.1",     // unused argument
		"lossy:p=0.1,p=1", // duplicate argument
		"crash",           // missing f
		"crash:f=-1",
		"churn:window=0",
		"lossy:p",
		"lossy:p=NaN",
		"churn:p=0.5,window=4294967296",     // window past the int32 round range
		"crash:f=2,by=2,recover=4294967296", // recover wraps to 0 in int32
		"crash:f=2,by=2,recover=2147483648", // recover wraps negative
		"crash:f=8,by=4294967297",           // crash rounds wrap past int32
	} {
		if _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) accepted", bad)
		}
	}
	_, err := ParseProfile("nosuch:p=0.1")
	if err == nil || !strings.Contains(err.Error(), "fault profiles:") ||
		!strings.Contains(err.Error(), "lossy[:p=<prob>]") {
		t.Errorf("unknown-profile error does not list the grammar: %v", err)
	}
}

// TestScheduleDeterminism: every Schedule decision is a pure function
// of (seed, coordinates) — two bindings of the same profile agree
// everywhere, and the crash/churn state is monotone where promised.
func TestScheduleDeterminism(t *testing.T) {
	h := HostFromGraph(graph.Torus(6, 6))
	for _, desc := range []string{"lossy:p=0.3", "dup+reorder", "crash:f=5,by=6", "churn:p=0.3,window=2", "adversarial:p=0.2,f=3"} {
		a := MustParseProfile(desc).New(h, 42)
		b := MustParseProfile(desc).New(h, 42)
		other := MustParseProfile(desc).New(h, 43)
		differs := false
		for round := 0; round < 8; round++ {
			for s := int32(0); s < 144; s++ {
				if a.Fate(round, s) != b.Fate(round, s) {
					t.Fatalf("%s: Fate(%d,%d) differs between identical bindings", desc, round, s)
				}
				if a.Fate(round, s) != other.Fate(round, s) {
					differs = true
				}
			}
			for v := int32(0); v < 36; v++ {
				if a.State(round, v) != b.State(round, v) {
					t.Fatalf("%s: State(%d,%d) differs between identical bindings", desc, round, v)
				}
				if a.Reorder(round, v) != b.Reorder(round, v) {
					t.Fatalf("%s: Reorder(%d,%d) differs between identical bindings", desc, round, v)
				}
			}
		}
		if desc == "lossy:p=0.3" && !differs {
			t.Errorf("%s: seeds 42 and 43 drew identical fates everywhere", desc)
		}
	}
	// Crash-stop is monotone: once crashed, crashed forever.
	s := MustParseProfile("crash:f=10,by=4").New(h, 7)
	for v := int32(0); v < 36; v++ {
		crashed := false
		for round := 0; round < 12; round++ {
			st := s.State(round, v)
			if crashed && st != StateCrashed {
				t.Fatalf("node %d un-crashed at round %d", v, round)
			}
			crashed = crashed || st == StateCrashed
		}
	}
}

// TestCrashRecoverLongWindow: a crash round and a recover window each
// within the round bound, whose sum is not, keep every victim down
// from its crash round on instead of wrapping to "up".
func TestCrashRecoverLongWindow(t *testing.T) {
	h := HostFromGraph(graph.Cycle(8))
	s := MustParseProfile("crash:f=8,by=2147483647,recover=2147483647").New(h, 1).(*schedule)
	for v := int32(0); v < 8; v++ {
		c := int(s.crashAt[v])
		if c < 0 {
			t.Fatalf("node %d: crash round %d", v, c)
		}
		if c > 0 && s.State(c-1, v) != StateUp {
			t.Errorf("node %d up to round %d: state %d, want up", v, c-1, s.State(c-1, v))
		}
		if st := s.State(c, v); st != StateDown {
			t.Errorf("node %d at its crash round %d: state %d, want down", v, c, st)
		}
	}
}

// TestCleanFaultyPinsReference is the differential pin of the clean
// schedule: a RunStatesFaulty run with a nil schedule produces
// outputs, round counts and error strings byte-identical to the
// specification loop, and its report is all-zero.
func TestCleanFaultyPinsReference(t *testing.T) {
	for name, h := range engineHosts(t) {
		n := h.G.N()
		ids := rand.New(rand.NewSource(int64(n))).Perm(4 * n)[:n]
		refOuts, refRounds := referenceOutputs(t, h, ids, floodMaxAlgo(), 16)
		outs, rounds, rep, err := runFaulty(h, ids, floodSlotAlgo(), 16, nil)
		if err != nil {
			t.Fatalf("%s: faulty-clean: %v", name, err)
		}
		if rounds != refRounds || !reflect.DeepEqual(outs, refOuts) {
			t.Fatalf("%s: clean faulty run differs from reference", name)
		}
		if rep.Profile != "clean" || rep.Dropped != 0 || rep.Duplicated != 0 ||
			rep.Reordered != 0 || rep.DownSteps != 0 || rep.NumCrashed != 0 || rep.Crashed != nil {
			t.Fatalf("%s: clean report not all-zero: %+v", name, rep)
		}
	}

	// Error strings: engine (clean schedule) == reference, byte for byte.
	h := HostFromGraph(graph.Cycle(5))
	never := RoundAlgo{
		Init: func(NodeInfo) any { return nil },
		Step: func(st any, round int, inbox []Msg) (any, []Msg, bool) { return st, nil, false },
		Out:  func(any) Output { return Output{} },
	}
	_, _, _, errF := runFaulty(h, nil, typedPulseAlgo(8), 3, nil)
	_, _, errR := RunRoundsStates(h, nil, never, 3)
	if errF == nil || errR == nil || errF.Error() != errR.Error() {
		t.Errorf("non-halt errors differ: %v vs %v", errF, errR)
	}
}

// TestErrorFormats asserts the exact error formats: every error of a
// round names the round, and faulty runs append the profile
// descriptor — on the specification loop and on the engine alike.
func TestErrorFormats(t *testing.T) {
	h := HostFromGraph(graph.Cycle(5))
	badAt := func(round int) RoundAlgo {
		return RoundAlgo{
			Init: func(info NodeInfo) any { ls := info.Letters; return &ls },
			Step: func(st any, r int, inbox []Msg) (any, []Msg, bool) {
				if r == round {
					return st, []Msg{{L: view.Letter{Label: 99}}}, false
				}
				return st, []Msg{{L: (*st.(*[]view.Letter))[0], Data: r}}, false
			},
			Out: func(any) Output { return Output{} },
		}
	}
	_, _, err := RunRoundsStates(h, nil, badAt(2), 6)
	want := "model: round 2: node 0 sent on absent letter 99"
	if err == nil || err.Error() != want {
		t.Errorf("reference absent-letter error = %v, want %q", err, want)
	}

	never := RoundAlgo{
		Init: func(NodeInfo) any { return nil },
		Step: func(st any, round int, inbox []Msg) (any, []Msg, bool) { return st, nil, false },
		Out:  func(any) Output { return Output{} },
	}
	_, _, err = RunRoundsStates(h, nil, never, 4)
	want = "model: node 0 did not halt within 4 rounds"
	if err == nil || err.Error() != want {
		t.Errorf("reference non-halt error = %v, want %q", err, want)
	}
	sched := MustParseProfile("lossy:p=0").New(h, 1)
	_, _, _, err = runFaulty(h, nil, typedPulseAlgo(8), 4, sched)
	want = "model: node 0 did not halt within 4 rounds [lossy:p=0]"
	if err == nil || err.Error() != want {
		t.Errorf("faulty non-halt error = %v, want %q", err, want)
	}
	dup := WordAlgo{
		Init: func(int64, NodeInfo) uint64 { return 0 },
		Step: chunkStep(func(st *uint64, r int, inbox []wordMsg, out sends) bool {
			out.Broadcast(1)
			out.Send(0, 2)
			return false
		}),
		Out: func(*uint64) Output { return Output{} },
	}
	_, _, _, err = runFaulty(h, nil, dup, 3, sched)
	if err == nil || !strings.HasPrefix(err.Error(), "model: round 0 [lossy:p=0]: node ") ||
		!strings.Contains(err.Error(), "sent twice on slot 0") {
		t.Errorf("faulty double-send error lacks round and profile: %v", err)
	}
}

// TestFaultyDeterministicAcrossWorkers: a faulty run is byte-identical
// at parallelism 1 and 8 — fates are hashes of coordinates, not draws
// from a shared stream.
func TestFaultyDeterministicAcrossWorkers(t *testing.T) {
	for _, desc := range []string{"lossy:p=0.2", "dup+reorder", "crash:f=6,by=4", "churn:p=0.3,window=2", "adversarial:p=0.1,f=3"} {
		h := HostFromGraph(graph.Torus(8, 8))
		n := h.G.N()
		ids := rand.New(rand.NewSource(1)).Perm(4 * n)[:n]
		sched := MustParseProfile(desc).New(h, 99)
		type result struct {
			outs   []Output
			rounds int
			rep    FaultReport
		}
		var results [2]result
		for i, p := range []int{1, 8} {
			old := par.Set(p)
			outs, rounds, rep, err := runFaulty(h, ids, floodWordAlgo(), 300, sched)
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: %v (reproducer: seed=99, profile=%s)", desc, p, err, desc)
			}
			results[i] = result{outs: append([]Output(nil), outs...), rounds: rounds, rep: *rep}
		}
		if results[0].rounds != results[1].rounds ||
			!reflect.DeepEqual(results[0].outs, results[1].outs) ||
			!reflect.DeepEqual(results[0].rep, results[1].rep) {
			t.Errorf("%s: parallel run differs from sequential (reproducer: seed=99, profile=%s)", desc, desc)
		}
	}
}

// TestCrashProfiles: crash-stop removes exactly f nodes permanently;
// crash-recover brings them back (no crashes, down-steps instead).
func TestCrashProfiles(t *testing.T) {
	h := HostFromGraph(graph.Cycle(64))
	ids := rand.New(rand.NewSource(5)).Perm(256)[:64]
	_, _, rep, err := runFaulty(h, ids, floodWordAlgo(), 300, MustParseProfile("crash:f=7,by=3").New(h, 3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumCrashed != 7 {
		t.Errorf("crash-stop crashed %d nodes, want 7", rep.NumCrashed)
	}
	count := 0
	for v := range rep.Crashed {
		if rep.CrashedNode(v) {
			count++
		}
	}
	if count != 7 {
		t.Errorf("Crashed marks %d nodes, want 7", count)
	}

	_, _, rep, err = runFaulty(h, ids, floodWordAlgo(), 300, MustParseProfile("crash:f=7,by=3,recover=2").New(h, 3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumCrashed != 0 {
		t.Errorf("crash-recover crashed %d nodes permanently", rep.NumCrashed)
	}
	if rep.DownSteps == 0 {
		t.Error("crash-recover run recorded no down-steps")
	}
	if rep.Survivors(64) != 64 {
		t.Errorf("Survivors = %d, want 64", rep.Survivors(64))
	}
}

// TestFaultCounters: each profile's report shows the faults it is
// supposed to inject — and only those.
func TestFaultCounters(t *testing.T) {
	h := HostFromGraph(graph.Torus(8, 8))
	run := func(desc string) *FaultReport {
		t.Helper()
		sched := MustParseProfile(desc).New(h, 11)
		_, _, rep, err := RunGather(context.Background(), h, 3, 300, sched)
		if err != nil {
			t.Fatalf("%s: %v (reproducer: seed=11, profile=%s)", desc, err, desc)
		}
		return rep
	}
	if rep := run("lossy:p=0.3"); rep.Dropped == 0 || rep.Duplicated != 0 || rep.Reordered != 0 {
		t.Errorf("lossy report: %+v", rep)
	}
	if rep := run("dup+reorder"); rep.Duplicated == 0 || rep.Reordered == 0 || rep.Dropped != 0 {
		t.Errorf("dup+reorder report: %+v", rep)
	}
	if rep := run("churn:p=0.4,window=1"); rep.DownSteps == 0 || rep.NumCrashed != 0 {
		t.Errorf("churn report: %+v", rep)
	}
	if rep := run("adversarial:p=0.3,f=4,by=2"); rep.Dropped == 0 || rep.NumCrashed != 4 {
		t.Errorf("adversarial report: %+v", rep)
	}
}

// TestSimulatePORoundsFaulty: the clean schedule reproduces
// SimulatePORounds exactly; dup+reorder survives the view assembly
// (duplicate letters deduplicated, permuted inboxes re-sorted by
// NewTree) and still reproduces the clean solution, because view
// assembly is order-insensitive and duplication-idempotent.
func TestSimulatePORoundsFaulty(t *testing.T) {
	alg := FuncPO{R: 2, Fn: func(tr *view.Tree) Output {
		return Output{Member: tr.NumChildren()%2 == 0}
	}}
	for name, h := range engineHosts(t) {
		want, err := SimulatePORounds(h, alg, VertexKind)
		if err != nil {
			t.Fatalf("%s: clean: %v", name, err)
		}
		got, rep, err := SimulatePORoundsFaulty(h, alg, VertexKind, nil, 300)
		if err != nil {
			t.Fatalf("%s: faulty-nil: %v", name, err)
		}
		if rep.Profile != "clean" || !reflect.DeepEqual(want.Vertices, got.Vertices) {
			t.Fatalf("%s: clean faulty PO differs from SimulatePORounds", name)
		}
		sched := MustParseProfile("dup+reorder").New(h, 21)
		got, rep, err = SimulatePORoundsFaulty(h, alg, VertexKind, sched, 300)
		if err != nil {
			t.Fatalf("%s: dup+reorder: %v (reproducer: seed=21)", name, err)
		}
		if rep.Duplicated == 0 {
			t.Errorf("%s: dup+reorder duplicated nothing", name)
		}
		if !reflect.DeepEqual(want.Vertices, got.Vertices) {
			t.Errorf("%s: dup+reorder changed the gathered views (assembly should be idempotent)", name)
		}
	}
}

// TestLossyGatherDegrades: under heavy loss the gathered views are
// degraded but the run still completes, deterministically in the
// seed.
func TestLossyGatherDegrades(t *testing.T) {
	h := HostFromGraph(graph.Torus(8, 8))
	gather := func() []*view.Tree {
		trees, _, _, err := RunGather(context.Background(), h, 2, 300, MustParseProfile("lossy:p=0.5").New(h, 2))
		if err != nil {
			t.Fatalf("lossy gather: %v", err)
		}
		return trees
	}
	trees := gather()
	clean, err := GatheredTrees(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for v := range trees {
		if trees[v] != clean[v] {
			degraded++
		}
	}
	if degraded == 0 {
		t.Error("p=0.5 loss degraded no view at all")
	}
	again := gather()
	for v := range trees {
		if trees[v] != again[v] {
			t.Fatalf("node %d: lossy gather not reproducible from seed", v)
		}
	}
}

// TestEngineSteadyStateAllocsFaultyClean: a clean-profile run through
// RunStatesFaulty still allocates nothing per steady-state round.
func TestEngineSteadyStateAllocsFaultyClean(t *testing.T) {
	defer par.Set(par.Set(1))
	te := NewWordEngine(HostFromGraph(graph.Cycle(512)))
	runFor := func(rounds int) func() {
		return func() {
			if _, _, _, err := te.RunStatesFaulty(nil, slotPulseAlgo(rounds), rounds+2, nil); err != nil {
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

// TestFaultyEngineReuse: one engine alternates clean and faulty runs
// without cross-contamination — the clean results stay byte-identical
// to the specification's.
func TestFaultyEngineReuse(t *testing.T) {
	h := HostFromGraph(graph.Petersen())
	te := NewWordEngine(h)
	ids := rand.New(rand.NewSource(3)).Perm(40)[:10]
	want, wantRounds := referenceOutputs(t, h, ids, floodMaxAlgo(), 16)
	sched := MustParseProfile("lossy:p=0.4").New(h, 8)
	for i := 0; i < 4; i++ {
		if _, _, _, err := te.RunStatesFaulty(ids, floodWordAlgo(), 300, sched); err != nil {
			t.Fatalf("faulty run %d: %v", i, err)
		}
		outs, rounds, err := te.Run(ids, floodWordAlgo(), 16)
		if err != nil {
			t.Fatalf("clean run %d: %v", i, err)
		}
		if rounds != wantRounds || !reflect.DeepEqual(outs, want) {
			t.Fatalf("clean run %d contaminated by interleaved faulty runs", i)
		}
	}
}

// TestShuffleMsgs: the seeded permutation is deterministic and
// actually permutes.
func TestShuffleMsgs(t *testing.T) {
	mk := func() []int32 {
		ms := make([]int32, 8)
		for i := range ms {
			ms[i] = int32(i)
		}
		return ms
	}
	a, b := mk(), mk()
	shuffleOrder(a, 12345)
	shuffleOrder(b, 12345)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed shuffled differently")
	}
	moved := false
	for i := range a {
		if a[i] != int32(i) {
			moved = true
		}
	}
	if !moved {
		t.Error("shuffle was the identity for seed 12345")
	}
	seen := map[int32]bool{}
	for _, m := range a {
		seen[m] = true
	}
	if len(seen) != 8 {
		t.Errorf("shuffle lost elements: %v", a)
	}
}

// FuzzParseProfile: for any descriptor, ParseProfile either fails or
// returns a profile whose schedule on torus:3x3 answers Fate, State
// and Reorder for rounds 0-40 at every slot and node without
// panicking, and two bindings with one seed decide alike everywhere.
func FuzzParseProfile(f *testing.F) {
	for _, desc := range []string{
		"clean",
		"lossy:p=0.05",
		"dup+reorder:p=0.25",
		"crash:f=8,by=16,recover=4",
		"churn:p=0.1,window=4",
		"adversarial:p=0.05,f=2,by=8",
		"churn:p=0.5,window=4294967296",
		"crash:f=2,by=2,recover=4294967296",
		"crash:f=2,by=2,recover=2147483648",
		"crash:f=8,by=4294967297",
		"crash:f=8,by=2147483647,recover=2147483647",
		"lossy:p=NaN",
	} {
		f.Add(desc)
	}
	h := HostFromGraph(graph.Torus(3, 3))
	n, slots := int32(h.G.N()), planeSlots(h)[h.G.N()]
	f.Fuzz(func(t *testing.T, desc string) {
		p, err := ParseProfile(desc)
		if err != nil {
			return
		}
		a, b := p.New(h, 7), p.New(h, 7)
		if (a == nil) != (b == nil) {
			t.Fatalf("%q: one binding is clean, the other not", desc)
		}
		if a == nil {
			return
		}
		for round := 0; round <= 40; round++ {
			for s := int32(0); s < slots; s++ {
				if fa, fb := a.Fate(round, s), b.Fate(round, s); fa != fb {
					t.Fatalf("%q: Fate(%d, %d) = %d and %d", desc, round, s, fa, fb)
				}
			}
			for v := int32(0); v < n; v++ {
				if sa, sb := a.State(round, v), b.State(round, v); sa != sb {
					t.Fatalf("%q: State(%d, %d) = %d and %d", desc, round, v, sa, sb)
				}
				if ra, rb := a.Reorder(round, v), b.Reorder(round, v); ra != rb {
					t.Fatalf("%q: Reorder(%d, %d) = %d and %d", desc, round, v, ra, rb)
				}
			}
		}
	})
}
