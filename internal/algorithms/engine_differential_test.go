package algorithms

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/view"
)

// diffHosts is the engine-differential host set (Petersen, torus,
// random-regular, Cayley).
func diffHosts(t *testing.T) map[string]*model.Host {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	hosts := map[string]*model.Host{
		"petersen":      model.HostFromGraph(graph.Petersen()),
		"torus6x6":      model.HostFromGraph(graph.Torus(6, 6)),
		"randomregular": model.HostFromGraph(graph.RandomRegular(18, 3, rng)),
	}
	ch := host.MustParse("cayley:H,level=2,m=4,k=2,seed=1")
	hosts["cayley"] = &model.Host{D: ch.D, G: ch.G}
	return hosts
}

func dcycleHost(t testing.TB, n int) *model.Host {
	t.Helper()
	b := digraph.NewBuilder(n, 1)
	for i := 0; i < n; i++ {
		b.MustAddArc(i, (i+1)%n, 0)
	}
	h, err := model.NewHost(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// cvState and cvMsg are the boxed state and payload of the RoundAlgo
// specification: the production pipeline packs both into one
// uint64 on the word lane (see coleVishkinWordAlgo), and this
// pair is what the pinning below proves it equivalent to.
type cvState struct {
	letters []view.Letter
	color   int
	inMIS   bool
}

type cvMsg struct {
	color int
	inMIS bool
}

// cvRoundAlgo is the classical slice-returning form of the
// Cole–Vishkin pipeline, built from the same helpers as the engine
// form — the executable reference the word-lane port is pinned
// against.
func cvRoundAlgo(maxID int) (model.RoundAlgo, int) {
	steps := cvSteps(maxID)
	last := steps + 6
	return model.RoundAlgo{
		Init: func(info model.NodeInfo) any {
			return &cvState{letters: info.Letters, color: info.ID}
		},
		Step: func(state any, round int, inbox []model.Msg) (any, []model.Msg, bool) {
			s := state.(*cvState)
			var pred, succ cvMsg
			for _, m := range inbox {
				c := m.Data.(cvMsg)
				if m.L.In {
					pred = c
				} else {
					succ = c
				}
			}
			switch {
			case round == 0:
			case round <= steps:
				i := lowestDifferingBit(s.color, pred.color)
				s.color = 2*i + bitOf(s.color, i)
			case round <= steps+3:
				target := 5 - (round - steps - 1)
				if s.color == target {
					s.color = freeColor(pred.color, succ.color)
				}
			default:
				class := round - steps - 4
				if s.color == class && !pred.inMIS && !succ.inMIS {
					s.inMIS = true
				}
			}
			if round == last {
				return s, nil, true
			}
			out := make([]model.Msg, 0, len(s.letters))
			for _, l := range s.letters {
				out = append(out, model.Msg{L: l, Data: cvMsg{color: s.color, inMIS: s.inMIS}})
			}
			return s, out, false
		},
		Out: func(state any) model.Output {
			return model.Output{Member: state.(*cvState).inMIS}
		},
	}, last
}

// TestColeVishkinEngineVsReference pins the engine-native
// ColeVishkinMIS against the RoundAlgo reference executed by
// RunRoundsStates: identical MIS, colours and round counts, at
// parallelism 1 and 8.
func TestColeVishkinEngineVsReference(t *testing.T) {
	for _, n := range []int{12, 33, 128} {
		h := dcycleHost(t, n)
		rng := rand.New(rand.NewSource(int64(n)))
		ids := rng.Perm(8 * n)[:n]
		maxID := 0
		for _, id := range ids {
			if id > maxID {
				maxID = id
			}
		}
		algo, last := cvRoundAlgo(maxID)
		refStates, refRounds, err := model.RunRoundsStates(h, ids, algo, last+2)
		if err != nil {
			t.Fatalf("n=%d: reference: %v", n, err)
		}
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			res, err := ColeVishkinMIS(h, ids)
			par.Set(old)
			if err != nil {
				t.Fatalf("n=%d p=%d: %v", n, p, err)
			}
			if res.Rounds != refRounds {
				t.Fatalf("n=%d p=%d: %d rounds, reference %d", n, p, res.Rounds, refRounds)
			}
			for v, st := range refStates {
				s := st.(*cvState)
				if res.MIS.Vertices[v] != s.inMIS || res.Colors[v] != s.color {
					t.Fatalf("n=%d p=%d node %d: engine (%v,%d) vs reference (%v,%d)",
						n, p, v, res.MIS.Vertices[v], res.Colors[v], s.inMIS, s.color)
				}
			}
		}
	}
}

// TestRandomizedMatchingEngineVsReference: the engine-run proposal
// round produces exactly the matching the classical reference loop
// produces from the same rng stream, drawn here over each node's sorted
// neighbours, on every differential host, at parallelism 1 and 8.
func TestRandomizedMatchingEngineVsReference(t *testing.T) {
	const seed = 7
	for name, h := range diffHosts(t) {
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			sol := RandomizedMatching(h, rand.New(rand.NewSource(seed)))
			par.Set(old)

			// Reference: identical draw over sorted adjacency, classical
			// round loop. letterTo names the arc between v and its
			// neighbour u at v.
			letterTo := func(v, u int) view.Letter {
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
				t.Fatalf("%s: no arc between neighbours %d and %d", name, v, u)
				return view.Letter{}
			}
			g := h.G
			n := g.N()
			rng := rand.New(rand.NewSource(seed))
			proposal := make([]int, n)
			letters := make([]view.Letter, n)
			for v := 0; v < n; v++ {
				proposal[v] = -1
				if d := g.Degree(v); d > 0 {
					proposal[v] = int(g.Neighbors(v)[rng.Intn(d)])
					letters[v] = letterTo(v, proposal[v])
				}
			}
			type mst struct {
				v       int
				matched bool
			}
			next := 0
			algo := model.RoundAlgo{
				Init: func(model.NodeInfo) any { s := &mst{v: next}; next++; return s },
				Step: func(state any, round int, inbox []model.Msg) (any, []model.Msg, bool) {
					s := state.(*mst)
					if round == 0 {
						if proposal[s.v] >= 0 {
							return s, []model.Msg{{L: letters[s.v]}}, false
						}
						return s, nil, false
					}
					if proposal[s.v] >= 0 {
						for i := range inbox {
							if inbox[i].L == letters[s.v] {
								s.matched = true
							}
						}
					}
					return s, nil, true
				},
				Out: func(any) model.Output { return model.Output{} },
			}
			states, _, err := model.RunRoundsStates(h, nil, algo, 3)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			want := model.NewSolution(model.EdgeKind, n)
			for _, st := range states {
				s := st.(*mst)
				if s.matched {
					want.Edges[graph.NewEdge(s.v, proposal[s.v])] = true
				}
			}
			if !reflect.DeepEqual(sol.EdgeSet(), want.EdgeSet()) {
				t.Fatalf("%s p=%d: engine matching %v differs from reference %v",
					name, p, sol.EdgeSet(), want.EdgeSet())
			}
		}
	}
}

// BenchmarkColeVishkinReference1024 runs the RoundAlgo form of
// Cole–Vishkin through the retained reference loop — the pre-engine
// execution path, kept benchmarked so BenchmarkColeVishkin1024's win
// stays visible (see BENCH_pr5.json).
func BenchmarkColeVishkinReference1024(b *testing.B) {
	h := dcycleHost(b, 1024)
	rng := rand.New(rand.NewSource(6))
	ids := rng.Perm(8192)[:1024]
	maxID := 0
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	algo, last := cvRoundAlgo(maxID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := model.RunRoundsStates(h, ids, algo, last+2); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEDSOneOutOperationalDifferential: the EDSOneOut operational run
// through the engine (SimulatePORounds) coincides with the gathered
// simulation and the direct ball evaluation.
func TestEDSOneOutOperationalDifferential(t *testing.T) {
	alg := EDSOneOut()
	for name, h := range diffHosts(t) {
		direct, err := model.RunPO(h, alg, model.EdgeKind)
		if err != nil {
			t.Fatalf("%s: RunPO: %v", name, err)
		}
		sim, err := model.SimulatePO(h, alg, model.EdgeKind)
		if err != nil {
			t.Fatalf("%s: SimulatePO: %v", name, err)
		}
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			eng, err := model.SimulatePORounds(h, alg, model.EdgeKind)
			par.Set(old)
			if err != nil {
				t.Fatalf("%s p=%d: SimulatePORounds: %v", name, p, err)
			}
			if !reflect.DeepEqual(eng.EdgeSet(), direct.EdgeSet()) ||
				!reflect.DeepEqual(eng.EdgeSet(), sim.EdgeSet()) {
				t.Fatalf("%s p=%d: operational EDS run differs", name, p)
			}
		}
	}
}
