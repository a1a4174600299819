package workload

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/view"
)

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string // "" accepts
	}{
		{Spec{Algo: "cole-vishkin"}, ""},
		{Spec{Algo: "cole-vishkin", Shards: 4, Seed: -3}, ""},
		{Spec{Algo: "matching", Shards: 1, Faults: "lossy:p=0.1"}, ""},
		{Spec{Algo: "gather", Rmax: 3}, ""},
		{Spec{Algo: "gather", Rmax: -1}, ""},
		{Spec{Algo: "flood", Rounds: 7}, ""},
		{Spec{Algo: "flood"}, ""},
		{Spec{Algo: "nosuch"}, "unknown workload \"nosuch\"\nworkloads:\n  cole-vishkin"},
		{Spec{}, "unknown workload \"\""},
		{Spec{Algo: "flood", Rounds: -1}, "rounds -1 out of range"},
		{Spec{Algo: "matching", Rounds: 5}, "rounds only applies to the flood workload"},
		{Spec{Algo: "matching", Rmax: 2}, "rmax only applies to the gather workload"},
		{Spec{Algo: "flood", Rounds: 5, Rmax: 2}, "rmax only applies to the gather workload"},
		{Spec{Algo: "matching", Shards: -2}, "shards -2 out of range"},
		{Spec{Algo: "gather", Shards: 2}, "shards only applies to the cole-vishkin and matching workloads"},
		{Spec{Algo: "flood", Rounds: 5, Shards: 2}, "shards only applies to the cole-vishkin and matching workloads"},
	} {
		err := tc.spec.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v rejected: %v", tc.spec, err)
		case tc.want != "" && err == nil:
			t.Errorf("%+v accepted, want %q", tc.spec, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%+v: error %q lacks %q", tc.spec, err, tc.want)
		}
	}
}

// Run rejects what Validate rejects, plus descriptors that do not
// resolve and hosts the workload cannot run on, all as *Invalid.
func TestRunInvalid(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Algo: "nosuch", Host: "cycle:8"}, "workloads:"},
		{Spec{Algo: "matching", Host: "nosuch:8"}, "registered host families:"},
		{Spec{Algo: "matching", Host: ""}, "registered host families:"},
		{Spec{Algo: "matching", Host: "cycle:8", Faults: "nosuch:p=1"}, "fault profiles:"},
		{Spec{Algo: "cole-vishkin", Host: "cycle:8"}, "dcycle"},
		{Spec{Algo: "cole-vishkin", Host: "petersen"}, "dcycle"},
		{Spec{Algo: "matching", Host: "nosuch:8", Shards: 2}, "no implicit shard source either"},
		{Spec{Algo: "matching", Host: "cycle:3000000000", Shards: 2, Faults: "lossy:p=0.1"}, "materialisable"},
	} {
		_, err := Run(context.Background(), tc.spec, Arm{})
		var inv *Invalid
		if !errors.As(err, &inv) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: got %v, want an *Invalid containing %q", tc.spec, err, tc.want)
		}
	}
}

// flatHost resolves a descriptor the way Run does.
func flatHost(t *testing.T, desc string) *model.Host {
	t.Helper()
	h, err := ResolveHost(desc)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func schedule(t *testing.T, faults string, h *model.Host, seed int64) model.Schedule {
	t.Helper()
	if faults == "" {
		return nil
	}
	prof, err := model.ParseProfile(faults)
	if err != nil {
		t.Fatal(err)
	}
	return prof.New(h, seed)
}

func ids(h *model.Host, seed int64) []int {
	n := h.G.N()
	return rand.New(rand.NewSource(seed)).Perm(8 * n)[:n]
}

// direct computes a flat spec's Result fields with direct algorithms
// calls, independently of the registry's dispatch.
func direct(t *testing.T, s Spec) Result {
	t.Helper()
	h := flatHost(t, s.Host)
	sched := schedule(t, s.Faults, h, s.Seed)
	want := Result{N: h.G.N()}
	switch s.Algo {
	case "cole-vishkin":
		if sched == nil {
			res, err := algorithms.ColeVishkinMIS(h, ids(h, s.Seed))
			if err != nil {
				t.Fatal(err)
			}
			want.Rounds, want.Size = res.Rounds, res.MIS.Size()
			break
		}
		res, err := algorithms.ColeVishkinMISFaulty(h, ids(h, s.Seed), sched)
		if err != nil {
			t.Fatal(err)
		}
		want.Rounds, want.Size, want.Faults = res.Rounds, res.MIS.Size(), res.Report
		want.Violations, want.Uncovered = res.Violations, res.Uncovered
	case "matching":
		want.Rounds = 2
		rng := rand.New(rand.NewSource(s.Seed))
		if sched == nil {
			want.Size = algorithms.RandomizedMatching(h, rng).Size()
			break
		}
		res, err := algorithms.RandomizedMatchingFaulty(h, rng, sched)
		if err != nil {
			t.Fatal(err)
		}
		want.Size, want.Conflicts, want.Faults = res.Matching.Size(), res.Conflicts, res.Report
	case "gather":
		r := s.Rmax
		if r < 1 {
			r = 2
		}
		want.Radius = r
		types := map[*view.Tree]bool{}
		if sched == nil {
			states, rounds, err := model.RunRoundsStates(h, nil, model.GatherViews(r), r+2)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range states {
				types[st.(*model.GatherState).Tree] = true
			}
			want.Rounds, want.Size = rounds, len(types)
			break
		}
		trees, rounds, rep, err := model.RunGather(context.Background(), h, r, r+2+256, sched)
		if err != nil {
			t.Fatal(err)
		}
		for v, tr := range trees {
			if !rep.CrashedNode(v) {
				types[tr] = true
			}
		}
		want.Rounds, want.Size, want.Faults = rounds, len(types), rep
	case "flood":
		rounds := s.Rounds
		if rounds < 1 {
			rounds = h.G.N()
		}
		var res *algorithms.FloodMaxResult
		var err error
		if sched == nil {
			res, err = algorithms.FloodMax(h, ids(h, s.Seed), rounds)
		} else {
			res, err = algorithms.FloodMaxFaultyOn(model.NewWordEngine(h), h, ids(h, s.Seed), rounds, sched)
		}
		if err != nil {
			t.Fatal(err)
		}
		want.Rounds, want.Leader, want.Size, want.Faults = res.Rounds, res.Leader, res.Converged, res.Report
	default:
		t.Fatalf("no direct twin for %q", s.Algo)
	}
	return want
}

// directSharded is direct for Shards > 0: the implicit shard source,
// or the materialised host through model.SourceOf.
func directSharded(t *testing.T, s Spec) Result {
	t.Helper()
	src, err := host.ParseShard(s.Host)
	if err != nil {
		src = model.SourceOf(flatHost(t, s.Host))
	}
	var sched model.Schedule
	if s.Faults != "" {
		mh, err := model.MaterializeSource(src)
		if err != nil {
			t.Fatal(err)
		}
		sched = schedule(t, s.Faults, mh, s.Seed)
	}
	se, err := model.NewShardedEngine(src, s.Shards)
	if err != nil {
		t.Fatal(err)
	}
	n := src.N()
	want := Result{N: int(n), Sharded: &Sharded{P: s.Shards}}
	var rep *model.FaultReport
	switch s.Algo {
	case "cole-vishkin":
		var res *algorithms.ShardedCVResult
		if sched == nil {
			res, err = algorithms.ColeVishkinMISSharded(se, model.SeededIDs(n, s.Seed), int(n-1))
		} else {
			res, err = algorithms.ColeVishkinMISShardedFaulty(se, model.SeededIDs(n, s.Seed), int(n-1), sched)
		}
		if err != nil {
			t.Fatal(err)
		}
		want.Rounds, want.Size, rep = res.Rounds, int(res.MISSize), res.Report
		want.Violations, want.Uncovered = int(res.Violations), int(res.Uncovered)
	case "matching":
		rng := rand.New(rand.NewSource(s.Seed))
		var res *algorithms.ShardedMatchingResult
		if sched == nil {
			res, err = algorithms.RandomizedMatchingSharded(se, rng)
		} else {
			res, err = algorithms.RandomizedMatchingShardedFaulty(se, rng, sched)
		}
		if err != nil {
			t.Fatal(err)
		}
		want.Rounds, want.Size, want.Conflicts, rep = 2, int(res.Matched), int(res.Conflicts), res.Report
	default:
		t.Fatalf("no sharded twin for %q", s.Algo)
	}
	want.Faults = rep
	for _, st := range se.Stats() {
		want.Sharded.CrossArcs += st.ExchangeOut
		want.Sharded.ExchangedWords += st.Exchanged
	}
	return want
}

// sameReport compares the tallies the surfaces report.
func sameReport(a, b *model.FaultReport) bool {
	return a.Profile == b.Profile && a.NumCrashed == b.NumCrashed && a.Dropped == b.Dropped &&
		a.Duplicated == b.Duplicated && a.Reordered == b.Reordered
}

// equal compares the reported fields of two results.
func equal(got *Result, want Result) bool {
	g := *got
	g.Flat, g.Solution, want.Flat, want.Solution = nil, nil, nil, nil
	if (g.Faults == nil) != (want.Faults == nil) || (g.Sharded == nil) != (want.Sharded == nil) {
		return false
	}
	if g.Faults != nil && !sameReport(g.Faults, want.Faults) || g.Sharded != nil && *g.Sharded != *want.Sharded {
		return false
	}
	g.Faults, g.Sharded, want.Faults, want.Sharded = nil, nil, nil, nil
	return g == want
}

// Run is differentially equal to direct algorithms calls for every
// workload, clean and faulty, flat and sharded.
func TestRunMatchesDirectCalls(t *testing.T) {
	specs := []Spec{
		{Algo: "cole-vishkin", Host: "dcycle:500", Seed: 3},
		{Algo: "cole-vishkin", Host: "dcycle:500", Seed: 3, Faults: "lossy:p=0.05"},
		{Algo: "cole-vishkin", Host: "dcycle:500", Seed: 4, Faults: "crash:f=20,by=4"},
		{Algo: "matching", Host: "cycle:500", Seed: 5},
		{Algo: "matching", Host: "torus:12x12", Seed: 5, Faults: "lossy:p=0.1"},
		{Algo: "matching", Host: "petersen", Seed: 2, Faults: "crash:f=2,by=1"},
		{Algo: "gather", Host: "cycle:300"},
		{Algo: "gather", Host: "petersen", Rmax: 3},
		{Algo: "gather", Host: "torus:6x6", Rmax: -2, Faults: "lossy:p=0.2"},
		{Algo: "flood", Host: "cycle:64", Seed: 7, Rounds: 40},
		{Algo: "flood", Host: "torus:8x8", Seed: 7},
		{Algo: "flood", Host: "cycle:64", Seed: 7, Rounds: 80, Faults: "lossy:p=0.1"},
		{Algo: "cole-vishkin", Host: "dcycle:500", Seed: 3, Shards: 1},
		{Algo: "cole-vishkin", Host: "dcycle:500", Seed: 3, Shards: 3},
		{Algo: "cole-vishkin", Host: "dcycle:500", Seed: 3, Shards: 2, Faults: "lossy:p=0.05"},
		{Algo: "matching", Host: "cycle:500", Seed: 5, Shards: 2},
		{Algo: "matching", Host: "torus:12x12", Seed: 5, Shards: 4, Faults: "lossy:p=0.1"},
		{Algo: "matching", Host: "petersen", Seed: 2, Shards: 2},
	}
	for _, s := range specs {
		got, err := Run(context.Background(), s, Arm{})
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		var want Result
		if s.Shards > 0 {
			want = directSharded(t, s)
		} else {
			want = direct(t, s)
		}
		if !equal(got, want) {
			t.Errorf("%+v:\n got %+v (faults %+v, sharded %+v)\nwant %+v (faults %+v, sharded %+v)",
				s, *got, got.Faults, got.Sharded, want, want.Faults, want.Sharded)
		}
		if s.Shards == 0 && s.Faults == "" && (s.Algo == "cole-vishkin" || s.Algo == "matching") {
			w, _ := Lookup(s.Algo)
			if got.Solution == nil || w.Problem.Feasible(got.Flat.G, got.Solution) != nil {
				t.Errorf("%+v: clean flat run without a feasible solution", s)
			}
		} else if got.Solution != nil {
			t.Errorf("%+v: solution on a run that returns none", s)
		}
	}
}

// A run checkpointed and then resumed from a mid-run snapshot reports
// what the uninterrupted run reports.
func TestRunCheckpointResume(t *testing.T) {
	s := Spec{Algo: "flood", Host: "cycle:64", Seed: 9, Rounds: 50, Faults: "lossy:p=0.1"}
	var snaps []*model.Snapshot
	ck := &model.Checkpointer{Every: 16, Sink: func(snap *model.Snapshot) error {
		decoded, err := model.DecodeSnapshot(snap.Encode())
		snaps = append(snaps, decoded)
		return err
	}}
	full, err := Run(context.Background(), s, Arm{Checkpointer: ck})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("%d snapshots, want 3 (rounds 16, 32, 48)", len(snaps))
	}
	resumed, err := Run(context.Background(), s, Arm{Resume: snaps[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !equal(resumed, *full) {
		t.Fatalf("resumed %+v != uninterrupted %+v", *resumed, *full)
	}
	// Gather has no snapshot codec: its checkpointer stays idle.
	snaps = nil
	if _, err := Run(context.Background(), Spec{Algo: "gather", Host: "cycle:64"}, Arm{Checkpointer: ck}); err != nil || len(snaps) != 0 {
		t.Fatalf("gather with a checkpointer: err %v, %d snapshots", err, len(snaps))
	}
}

// The context reaches the round loop, flat and sharded.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range []Spec{
		{Algo: "flood", Host: "cycle:64", Rounds: 1000},
		{Algo: "gather", Host: "cycle:64"},
		{Algo: "cole-vishkin", Host: "dcycle:64", Shards: 2},
	} {
		var inv *Invalid
		if _, err := Run(ctx, s, Arm{}); !errors.Is(err, context.Canceled) || errors.As(err, &inv) {
			t.Errorf("%+v under a cancelled context: %v", s, err)
		}
	}
}

// Track sees every sharded engine and learns how its run ended.
func TestRunTrack(t *testing.T) {
	var tracked []string
	var completed []bool
	arm := Arm{Track: func(se *model.ShardedEngine, desc string) func(bool) {
		tracked = append(tracked, desc)
		return func(ok bool) { completed = append(completed, ok) }
	}}
	if _, err := Run(context.Background(), Spec{Algo: "matching", Host: "petersen", Shards: 2}, arm); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Spec{Algo: "cole-vishkin", Host: "dcycle:64", Shards: 2}, arm); err == nil {
		t.Fatal("cancelled sharded run succeeded")
	}
	if _, err := Run(context.Background(), Spec{Algo: "matching", Host: "cycle:64"}, arm); err != nil {
		t.Fatal(err)
	}
	if strings.Join(tracked, " ") != "petersen dcycle:64" || len(completed) != 2 || !completed[0] || completed[1] {
		t.Fatalf("tracked %v, completed %v", tracked, completed)
	}
}

// Text renders each workload's report line.
func TestText(t *testing.T) {
	f := &model.FaultReport{NumCrashed: 1, Dropped: 2, Duplicated: 5, Reordered: 6, DownSteps: 7}
	for _, tc := range []struct {
		algo string
		r    Result
		want string
	}{
		{"cole-vishkin", Result{Rounds: 12, Size: 5, N: 10}, "rounds: 12   |MIS| = 5   |MIS|/n = 0.5000"},
		{"cole-vishkin", Result{Rounds: 12, Size: 5, N: 10, Sharded: &Sharded{}}, "rounds: 12   |MIS| = 5   |MIS|/n = 0.5000   feasible: yes"},
		{"cole-vishkin", Result{Rounds: 12, Size: 5, Faults: f, Violations: 3, Uncovered: 4}, "rounds: 12   |MIS| = 5   crashed: 1   dropped: 2   duplicated: 5   reordered: 6   down-steps: 7   violations: 3   uncovered: 4"},
		{"matching", Result{Rounds: 2, Size: 3, N: 12}, "rounds: 2   |M| = 3   |M|/n = 0.2500"},
		{"matching", Result{Rounds: 2, Size: 3, N: 12, Sharded: &Sharded{}}, "rounds: 2   |M| = 3   |M|/n = 0.2500   conflicts: 0"},
		{"matching", Result{Rounds: 2, Size: 3, Faults: f}, "rounds: 2   |M| = 3   crashed: 1   dropped: 2   duplicated: 5   reordered: 6   down-steps: 7   conflicts: 0"},
		{"gather", Result{Rounds: 3, Radius: 2, Size: 7}, "rounds: 3   radius-2 view types: 7"},
		{"gather", Result{Rounds: 3, Radius: 2, Size: 7, Faults: f}, "rounds: 3   radius-2 view types: 7   crashed: 1   dropped: 2   duplicated: 5   reordered: 6   down-steps: 7"},
		{"flood", Result{Rounds: 9, Leader: 40, Size: 8}, "rounds: 9   leader: 40   converged@: 8"},
		{"flood", Result{Rounds: 9, Leader: 40, Size: 8, Faults: f}, "rounds: 9   leader: 40   converged@: 8   crashed: 1   dropped: 2   duplicated: 5   reordered: 6   down-steps: 7"},
	} {
		w, _ := Lookup(tc.algo)
		if got := w.Text(&tc.r); got != tc.want {
			t.Errorf("%s: Text = %q, want %q", tc.algo, got, tc.want)
		}
	}
}

// Every entry is complete, and the listing names each once.
func TestRegistry(t *testing.T) {
	listing := Describe()
	for _, w := range Registry() {
		if w.Doc == "" || w.Family == "" || w.flat == nil || w.text == nil || w.Sharded != (w.sharded != nil) {
			t.Errorf("%s: incomplete entry", w.Name)
		}
		if _, err := host.Parse(w.Family + ":12"); err != nil {
			t.Errorf("%s: family %q does not synthesize: %v", w.Name, w.Family, err)
		}
		if strings.Count(listing, "  "+w.Name+" ") != 1 {
			t.Errorf("%s listed %d times:\n%s", w.Name, strings.Count(listing, "  "+w.Name+" "), listing)
		}
	}
	if _, ok := Lookup("nosuch"); ok {
		t.Error("Lookup found an unregistered name")
	}
}
