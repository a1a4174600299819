package model_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/par"
)

// Both engines plan each faulty run from its schedule and skip the
// queries whose answers the profile fixes. These tests pin that plan
// against the full-query path: the same schedule behind a type the
// plan cannot see through must give byte-identical runs. The flood,
// written as a per-node step, is also pinned against the
// specification loop, which asks every query.

// fullQuery forwards String, Fate, State and Reorder to the embedded
// schedule. Its type is not the canned profiles', so the engine plans
// nothing and asks every query.
type fullQuery struct{ model.Schedule }

// planProfiles covers every profile family and every plan shape:
// uniform drops, duplicates with reordering, crash-stop,
// crash-recover, churn, and targeted ramped drops with crashes.
var planProfiles = []string{
	"lossy:p=0.2",
	"dup+reorder",
	"crash:f=8,by=6",
	"crash:f=8,by=6,recover=3",
	"churn:p=0.3,window=2",
	"adversarial:p=0.1,f=3",
}

// samePlanned runs run under every profile of planProfiles, at
// parallelism 1 and 8, once with the parsed schedule and once behind
// fullQuery, and requires the two results to be deeply equal, and
// equal to ref's result when ref is not nil.
func samePlanned(t *testing.T, h *model.Host, run, ref func(model.Schedule) (any, error)) {
	t.Helper()
	for _, desc := range planProfiles {
		sched := model.MustParseProfile(desc).New(h, 99)
		var want any
		if ref != nil {
			var err error
			if want, err = ref(sched); err != nil {
				t.Fatalf("%s: reference run: %v", desc, err)
			}
		}
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			planned, err := run(sched)
			if err != nil {
				par.Set(old)
				t.Fatalf("%s p=%d: planned run: %v", desc, p, err)
			}
			full, err := run(fullQuery{sched})
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: full-query run: %v", desc, p, err)
			}
			if !reflect.DeepEqual(planned, full) {
				t.Errorf("%s p=%d: planned run differs from the full-query run (reproducer: seed=99)", desc, p)
			}
			if ref != nil && !reflect.DeepEqual(planned, want) {
				t.Errorf("%s p=%d: planned run differs from the specification loop (reproducer: seed=99)", desc, p)
			}
		}
	}
}

// planFloodInit and planFloodStep flood the largest id with staggered
// halting: a node halts after 1+3*(id%4) rounds, so rounds without a
// halt lie between rounds with one. State and payload are
// best<<8 | ticks.
func planFloodInit(v int64, info model.NodeInfo) uint64 {
	return uint64(info.ID)<<8 | uint64(1+3*(info.ID%4))
}

func planFloodStep(s *uint64, round int, inbox []model.SpecMsg, out model.SpecSends) bool {
	best, ticks := *s>>8, *s&0xff
	for _, m := range inbox {
		best = max(best, m.W>>8)
	}
	if ticks == 0 {
		*s = best << 8
		return true
	}
	*s = best<<8 | (ticks - 1)
	out.Broadcast(*s)
	return false
}

func planFloodAlgo() model.WordAlgo {
	return model.WordAlgo{
		Init: planFloodInit,
		Step: model.SpecStep(planFloodStep),
		Out:  func(s *uint64) model.Output { return model.Output{} },
	}
}

// planRun is one flat run's whole observable result.
type planRun struct {
	Col    []uint64
	Rounds int
	Rep    *model.FaultReport
}

func planHosts() map[string]*model.Host {
	return map[string]*model.Host{
		"torus8x8":      model.HostFromGraph(graph.Torus(8, 8)),
		"randomregular": model.HostFromGraph(graph.RandomRegular(40, 3, rand.New(rand.NewSource(3)))),
	}
}

func planIDs(n int) []int { return rand.New(rand.NewSource(int64(n))).Perm(4 * n)[:n] }

func TestFaultPlanFlood(t *testing.T) {
	for name, h := range planHosts() {
		t.Run(name, func(t *testing.T) {
			ids := planIDs(h.G.N())
			samePlanned(t, h, func(sched model.Schedule) (any, error) {
				col, rounds, rep, err := model.NewWordEngine(h).RunStatesFaulty(ids, planFloodAlgo(), 300, sched)
				return planRun{col, rounds, rep}, err
			}, func(sched model.Schedule) (any, error) {
				col, rounds, rep, err := model.SpecRun(h, ids, planFloodInit, planFloodStep, 300, sched)
				return planRun{col, rounds, rep}, err
			})
		})
	}
}

func TestFaultPlanColeVishkin(t *testing.T) {
	const n = 512
	b := digraph.NewBuilder(n, 1)
	for i := 0; i < n; i++ {
		b.MustAddArc(i, (i+1)%n, 0)
	}
	h, err := model.NewHost(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	ids := planIDs(n)
	samePlanned(t, h, func(sched model.Schedule) (any, error) {
		return algorithms.ColeVishkinMISFaulty(h, ids, sched)
	}, nil)
}

func TestFaultPlanMatching(t *testing.T) {
	h := model.HostFromGraph(graph.Torus(16, 16))
	samePlanned(t, h, func(sched model.Schedule) (any, error) {
		return algorithms.RandomizedMatchingFaulty(h, rand.New(rand.NewSource(5)), sched)
	}, nil)
}

func TestFaultPlanGather(t *testing.T) {
	for name, h := range planHosts() {
		t.Run(name, func(t *testing.T) {
			samePlanned(t, h, func(sched model.Schedule) (any, error) {
				trees, rounds, rep, err := model.RunGather(context.Background(), h, 2, 2+2+64, sched)
				return []any{trees, rounds, rep}, err
			}, nil)
		})
	}
}

// TestFaultPlanCheckpointResume: a checkpointed lossy flood takes the
// same snapshots, byte for byte, planned and full-query, and resuming
// either path from a middle snapshot finishes the control run.
func TestFaultPlanCheckpointResume(t *testing.T) {
	h := model.HostFromGraph(graph.Torus(8, 8))
	ids := planIDs(h.G.N())
	sched := model.MustParseProfile("lossy:p=0.2").New(h, 99)
	for _, p := range []int{1, 8} {
		old := par.Set(p)
		run := func(s model.Schedule, from *model.Snapshot) (planRun, map[int][]byte) {
			t.Helper()
			snaps := map[int][]byte{}
			e := model.NewWordEngine(h).WithCheckpoints(&model.Checkpointer{Every: 2, Sink: func(sn *model.Snapshot) error {
				snaps[sn.Round] = sn.Encode()
				return nil
			}})
			if from != nil {
				e.Resume(from)
			}
			col, rounds, rep, err := e.RunStatesFaulty(ids, planFloodAlgo(), 300, s)
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			return planRun{col, rounds, rep}, snaps
		}
		planned, plannedSnaps := run(sched, nil)
		full, fullSnaps := run(fullQuery{sched}, nil)
		if !reflect.DeepEqual(planned, full) || !reflect.DeepEqual(plannedSnaps, fullSnaps) {
			t.Errorf("p=%d: planned checkpointed run differs from the full-query run", p)
		}
		mid := len(plannedSnaps) / 2 * 2
		if plannedSnaps[mid] == nil {
			t.Fatalf("p=%d: no snapshot at round %d (took %d)", p, mid, len(plannedSnaps))
		}
		for _, s := range []model.Schedule{sched, fullQuery{sched}} {
			snap, err := model.DecodeSnapshot(plannedSnaps[mid])
			if err != nil {
				t.Fatal(err)
			}
			resumed, snaps := run(s, snap)
			if !reflect.DeepEqual(resumed, planned) {
				t.Errorf("p=%d %T: resumed from round %d, run differs from the control", p, s, mid)
			}
			for r, b := range snaps {
				if string(b) != string(plannedSnaps[r]) {
					t.Errorf("p=%d %T: resumed from round %d, snapshot at round %d differs", p, s, mid, r)
				}
			}
		}
		par.Set(old)
	}
}
