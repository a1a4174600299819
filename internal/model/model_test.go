package model

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/view"
)

// cycleHost returns the n-cycle with canonical ports.
func cycleHost(n int) *Host {
	return HostFromGraph(graph.Cycle(n))
}

// selectAllPO selects every incident arc of the root at radius r.
func selectAllPO(r int) PO {
	return FuncPO{R: r, Fn: func(t *view.Tree) Output {
		return Output{Member: true, Letters: t.Letters()}
	}}
}

func TestSolutionBasics(t *testing.T) {
	s := NewSolution(VertexKind, 4)
	s.Vertices[1] = true
	s.Vertices[3] = true
	if s.Size() != 2 {
		t.Errorf("size %d", s.Size())
	}
	vs := s.VertexSet()
	if len(vs) != 2 || vs[0] != 1 || vs[1] != 3 {
		t.Errorf("vertex set %v", vs)
	}
	e := NewSolution(EdgeKind, 4)
	e.Edges[graph.NewEdge(2, 0)] = true
	e.Edges[graph.NewEdge(0, 1)] = true
	es := e.EdgeSet()
	if len(es) != 2 || es[0] != (graph.Edge{U: 0, V: 1}) || es[1] != (graph.Edge{U: 0, V: 2}) {
		t.Errorf("edge set %v", es)
	}
}

func TestHostFromGraph(t *testing.T) {
	h := cycleHost(6)
	if h.G.N() != 6 || h.D.N() != 6 || h.D.Arcs() != 6 {
		t.Fatalf("host wrong: %v %v", h.G, h.D)
	}
	if _, err := NewHost(h.D); err != nil {
		t.Errorf("NewHost: %v", err)
	}
}

func TestRunPOVertex(t *testing.T) {
	h := cycleHost(5)
	sol, err := RunPO(h, selectAllPO(1), VertexKind)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Size() != 5 {
		t.Errorf("all nodes should be members, got %d", sol.Size())
	}
}

func TestRunPOEdges(t *testing.T) {
	h := cycleHost(7)
	sol, err := RunPO(h, selectAllPO(1), EdgeKind)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Size() != 7 {
		t.Errorf("selecting every letter should select every edge, got %d", sol.Size())
	}
}

func TestRunPOAbsentLetter(t *testing.T) {
	h := cycleHost(4)
	bad := FuncPO{R: 1, Fn: func(*view.Tree) Output {
		return Output{Letters: []view.Letter{{Label: 99}}}
	}}
	if _, err := RunPO(h, bad, EdgeKind); err == nil {
		t.Error("absent letter accepted")
	}
}

// localMinOI: member iff the root has the smallest order rank in its
// radius-1 ball.
var localMinOI = FuncOI{R: 1, Fn: func(b *order.Ball) Output {
	return Output{Member: b.Root == 0}
}}

func TestRunOILocalMinima(t *testing.T) {
	h := cycleHost(6)
	rank := order.Identity(6)
	sol, err := RunOI(h, rank, localMinOI, VertexKind)
	if err != nil {
		t.Fatal(err)
	}
	// On the identity-ordered cycle only vertex 0 is a local minimum.
	if sol.Size() != 1 || !sol.Vertices[0] {
		t.Errorf("local minima = %v", sol.VertexSet())
	}
}

func TestRunOIEdgeSelection(t *testing.T) {
	// Each node selects its smallest-ranked neighbour: on the cycle the
	// union has n-1 or so edges; just validate well-formedness and
	// determinism.
	alg := FuncOI{R: 1, Fn: func(b *order.Ball) Output {
		ns := RootNeighbors(b.G, b.Root)
		if len(ns) == 0 {
			return Output{}
		}
		return Output{Neighbors: ns[:1]}
	}}
	h := cycleHost(8)
	sol, err := RunOI(h, order.Identity(8), alg, EdgeKind)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Size() == 0 || sol.Size() > 8 {
		t.Errorf("unexpected edge count %d", sol.Size())
	}
	sol2, err := RunOI(h, order.Identity(8), alg, EdgeKind)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Size() != sol2.Size() {
		t.Error("nondeterministic")
	}
}

func TestRunOIBadNeighbor(t *testing.T) {
	bad := FuncOI{R: 1, Fn: func(b *order.Ball) Output {
		return Output{Neighbors: []int{b.Root}} // the root is not its own neighbour
	}}
	if _, err := RunOI(cycleHost(4), order.Identity(4), bad, EdgeKind); err == nil {
		t.Error("self-selection accepted")
	}
}

func TestRunID(t *testing.T) {
	h := cycleHost(5)
	ids := []int{10, 3, 77, 42, 8}
	evenID := FuncID{R: 0, Fn: func(b *IDBall) Output {
		return Output{Member: b.IDs[b.Root]%2 == 0}
	}}
	sol, err := RunID(h, ids, evenID, VertexKind)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, false, true, true}
	for v, w := range want {
		if sol.Vertices[v] != w {
			t.Errorf("vertex %d: got %v want %v", v, sol.Vertices[v], w)
		}
	}
	if _, err := RunID(h, []int{1, 2}, evenID, VertexKind); err == nil {
		t.Error("short id list accepted")
	}
	if _, err := RunID(h, []int{1, 1, 2, 3, 4}, evenID, VertexKind); err == nil {
		t.Error("duplicate ids accepted")
	}
}

func TestIDBallSeesSortedIDs(t *testing.T) {
	h := cycleHost(5)
	ids := []int{50, 10, 40, 20, 30}
	probe := FuncID{R: 1, Fn: func(b *IDBall) Output {
		for i := 1; i < len(b.IDs); i++ {
			if b.IDs[i-1] >= b.IDs[i] {
				return Output{Member: false}
			}
		}
		return Output{Member: true}
	}}
	sol, err := RunID(h, ids, probe, VertexKind)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Size() != 5 {
		t.Error("IDs should be strictly increasing in every ball")
	}
}

func TestAgreement(t *testing.T) {
	a := &LocalOutputs{Kind: VertexKind, Member: []bool{true, false, true, false}}
	b := &LocalOutputs{Kind: VertexKind, Member: []bool{true, true, true, false}}
	frac, err := Agreement(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 0.75 {
		t.Errorf("agreement %v, want 0.75", frac)
	}
	if _, err := Agreement(a, &LocalOutputs{Kind: EdgeKind}); err == nil {
		t.Error("kind mismatch accepted")
	}
	e1 := &LocalOutputs{Kind: EdgeKind, EdgeSel: []map[graph.Edge]bool{
		{graph.NewEdge(0, 1): true}, {},
	}}
	e2 := &LocalOutputs{Kind: EdgeKind, EdgeSel: []map[graph.Edge]bool{
		{graph.NewEdge(0, 1): true}, {graph.NewEdge(1, 2): true},
	}}
	frac, err = Agreement(e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 0.5 {
		t.Errorf("edge agreement %v, want 0.5", frac)
	}
}

func TestPOOutputsMatchesRunPO(t *testing.T) {
	h := cycleHost(9)
	alg := selectAllPO(1)
	lo, err := POOutputs(h, alg, EdgeKind)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := RunPO(h, alg, EdgeKind)
	if err != nil {
		t.Fatal(err)
	}
	union := make(map[graph.Edge]bool)
	for _, sel := range lo.EdgeSel {
		for e := range sel {
			union[e] = true
		}
	}
	if len(union) != sol.Size() {
		t.Errorf("per-node union %d != solution %d", len(union), sol.Size())
	}
}

// --- round simulator ---

func TestGatheredTreesMatchBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hosts := []*Host{
		cycleHost(8),
		HostFromGraph(graph.Petersen()),
		HostFromGraph(graph.RandomRegular(12, 3, rng)),
		HostFromGraph(graph.Star(4)),
	}
	for _, h := range hosts {
		for r := 0; r <= 3; r++ {
			trees, err := GatheredTrees(h, r)
			if err != nil {
				t.Fatalf("r=%d: %v", r, err)
			}
			for v := 0; v < h.G.N(); v++ {
				want := view.Build[int](h.D, v, r)
				if !view.Equal(trees[v], want) {
					t.Fatalf("r=%d node %d: gathered view differs from ball formulation", r, v)
				}
			}
		}
	}
}

// TestGatheredTreesAllLayers: every level of the one-pass layered
// gather is pointer-identical (default interner) to the single-radius
// gather at that radius.
func TestGatheredTreesAllLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	hosts := []*Host{
		cycleHost(9),
		HostFromGraph(graph.Petersen()),
		HostFromGraph(graph.RandomRegular(12, 3, rng)),
	}
	const rmax = 3
	for _, h := range hosts {
		levels, err := GatheredTreesAll(h, rmax)
		if err != nil {
			t.Fatal(err)
		}
		if len(levels) != rmax+1 {
			t.Fatalf("%d levels, want %d", len(levels), rmax+1)
		}
		for r := 0; r <= rmax; r++ {
			single, err := GatheredTrees(h, r)
			if err != nil {
				t.Fatalf("r=%d: %v", r, err)
			}
			for v := 0; v < h.G.N(); v++ {
				if levels[r][v] != single[v] {
					t.Fatalf("r=%d node %d: layered level differs from single-radius gather", r, v)
				}
			}
		}
	}
}

func TestSimulatePOMatchesRunPO(t *testing.T) {
	h := HostFromGraph(graph.Petersen())
	alg := selectAllPO(2)
	a, err := RunPO(h, alg, EdgeKind)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulatePO(h, alg, EdgeKind)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != b.Size() {
		t.Fatalf("solutions differ: %d vs %d", a.Size(), b.Size())
	}
	for e := range a.Edges {
		if !b.Edges[e] {
			t.Fatalf("edge %v missing from simulated run", e)
		}
	}
}

func TestRunRoundsHaltFailure(t *testing.T) {
	never := RoundAlgo{
		Init: func(NodeInfo) any { return nil },
		Step: func(st any, round int, inbox []Msg) (any, []Msg, bool) { return st, nil, false },
		Out:  func(any) Output { return Output{} },
	}
	if _, _, err := RunRoundsStates(cycleHost(3), nil, never, 5); err == nil {
		t.Error("non-halting algorithm accepted by the specification loop")
	}
	neverWord := WordAlgo{
		Init: func(int, NodeInfo) uint64 { return 0 },
		Step: chunkStep(func(*uint64, int, []wordMsg, sends) bool { return false }),
		Out:  func(*uint64) Output { return Output{} },
	}
	if _, _, err := RunRoundsTyped(cycleHost(3), nil, neverWord, 5); err == nil {
		t.Error("non-halting algorithm accepted by the engine")
	}
}

func TestRunRoundsIDsDelivered(t *testing.T) {
	// Each node learns its neighbours' ids in one round and reports
	// whether it is a local maximum.
	algo := RoundAlgo{
		Init: func(info NodeInfo) any {
			return map[string]any{"id": info.ID, "letters": info.Letters, "max": false}
		},
		Step: func(state any, round int, inbox []Msg) (any, []Msg, bool) {
			s := state.(map[string]any)
			if round == 0 {
				var out []Msg
				for _, l := range s["letters"].([]view.Letter) {
					out = append(out, Msg{L: l, Data: s["id"].(int)})
				}
				return s, out, false
			}
			mx := true
			for _, m := range inbox {
				if m.Data.(int) > s["id"].(int) {
					mx = false
				}
			}
			s["max"] = mx
			return s, nil, true
		},
		Out: func(state any) Output {
			return Output{Member: state.(map[string]any)["max"].(bool)}
		},
	}
	// The same on the engine: the state word is the id, with bit 32
	// set once the node knows it is a local maximum.
	word := WordAlgo{
		Init: func(v int, info NodeInfo) uint64 { return uint64(info.ID) },
		Step: chunkStep(func(s *uint64, round int, inbox []wordMsg, out sends) bool {
			if round == 0 {
				out.Broadcast(*s)
				return false
			}
			mx := uint64(1) << 32
			for _, m := range inbox {
				if m.W > *s {
					mx = 0
				}
			}
			*s |= mx
			return true
		}),
		Out: func(s *uint64) Output { return Output{Member: *s>>32 == 1} },
	}
	h := cycleHost(6)
	ids := []int{5, 9, 1, 7, 3, 8}
	states, rounds, err := RunRoundsStates(h, ids, algo, 10)
	if err != nil {
		t.Fatal(err)
	}
	outs, wordRounds, err := RunRoundsTyped(h, ids, word, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 1 || wordRounds != rounds {
		t.Errorf("rounds = %d, engine %d", rounds, wordRounds)
	}
	// Local maxima of 5,9,1,7,3,8 on the cycle: 9 (beats 5,1), 7
	// (beats 1,3), 8 (beats 3,5).
	want := []bool{false, true, false, true, false, true}
	for v := range want {
		if got := algo.Out(states[v]).Member; got != want[v] {
			t.Errorf("node %d: member=%v want %v", v, got, want[v])
		}
		if outs[v].Member != want[v] {
			t.Errorf("node %d on the engine: member=%v want %v", v, outs[v].Member, want[v])
		}
	}
}

// Property: OI algorithms are invariant under order-preserving
// relabelling of identifiers — running an OI algorithm via RunID with
// any ids inducing the same rank gives the same solution.
func TestQuickOIInvariantUnderIDs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(8)
		h := cycleHost(n)
		// ids: random strictly increasing transformation of a random permutation.
		perm := rng.Perm(n)
		ids1 := make([]int, n)
		ids2 := make([]int, n)
		for v := 0; v < n; v++ {
			ids1[v] = perm[v]*3 + 7
			ids2[v] = perm[v]*perm[v]*5 + perm[v] + 100
		}
		asID := FuncID{R: 1, Fn: func(b *IDBall) Output {
			return Output{Member: b.Root == 0} // order-invariant: uses position only
		}}
		s1, err1 := RunID(h, ids1, asID, VertexKind)
		s2, err2 := RunID(h, ids2, asID, VertexKind)
		if err1 != nil || err2 != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if s1.Vertices[v] != s2.Vertices[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: PO solutions are invariant under lifts (the fundamental
// invariance the whole paper rests on): running a PO algorithm on a
// 2-lift selects the lift of the base solution.
func TestQuickPOLiftInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		base := digraph.FromPorts(graph.Cycle(n), nil).D
		// Double cover: cyclic 2-lift with shift 1 on one arc.
		lifted := digraph.NewBuilder(2*n, base.Alphabet())
		for u := 0; u < n; u++ {
			for _, a := range base.Out(u) {
				s := 0
				if u == 0 && a.To == 1 {
					s = 1
				}
				for i := 0; i < 2; i++ {
					lifted.MustAddArc(u+i*n, a.To+((i+s)%2)*n, a.Label)
				}
			}
		}
		hBase, err := NewHost(base)
		if err != nil {
			return false
		}
		hLift, err := NewHost(lifted.Build())
		if err != nil {
			return false
		}
		alg := selectAllPO(2)
		sb, err1 := RunPO(hBase, alg, VertexKind)
		sl, err2 := RunPO(hLift, alg, VertexKind)
		if err1 != nil || err2 != nil {
			return false
		}
		for v := 0; v < 2*n; v++ {
			if sl.Vertices[v] != sb.Vertices[v%n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
