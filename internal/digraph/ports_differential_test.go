package digraph_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/host"
)

// fromPortsReference builds the ported digraph the direct way: list
// the edges, number the port pairs by first occurrence, then add every
// arc through the Builder's checked, sorted insertion. The
// counting-pass FromPorts must return the same digraph and label
// table.
func fromPortsReference(g *graph.Graph, orient digraph.Orientation) *digraph.Ported {
	if orient == nil {
		orient = digraph.OrientBySmaller
	}
	type arcRec struct {
		u, v int
		pl   digraph.PortLabel
	}
	arcs := make([]arcRec, 0, g.M())
	labelIdx := make(map[digraph.PortLabel]int)
	var labels []digraph.PortLabel
	for _, e := range g.Edges() {
		u, v := e.U, e.V
		if !orient(e) {
			u, v = v, u
		}
		pl := digraph.PortLabel{I: g.NeighborIndex(u, v) + 1, J: g.NeighborIndex(v, u) + 1}
		if _, ok := labelIdx[pl]; !ok {
			labelIdx[pl] = len(labels)
			labels = append(labels, pl)
		}
		arcs = append(arcs, arcRec{u: u, v: v, pl: pl})
	}
	b := digraph.NewBuilder(g.N(), len(labels))
	for _, a := range arcs {
		b.MustAddArc(a.u, a.v, labelIdx[a.pl])
	}
	return &digraph.Ported{D: b.Build(), Labels: labels, Host: g}
}

// portsHosts holds small descriptors of every registered host family;
// TestFromPortsMatchesReference fails when a family has none.
var portsHosts = map[string][]string{
	"cycle":             {"cycle:3", "cycle:12"},
	"dcycle":            {"dcycle:12"},
	"path":              {"path:1", "path:9"},
	"complete":          {"complete:5", "complete:6"},
	"petersen":          {"petersen"},
	"grid":              {"grid:4x4", "grid:1x7"},
	"grid3d":            {"grid3d:2x3x4"},
	"torus":             {"torus:6x6", "torus:3x4x5"},
	"hypercube":         {"hypercube:1", "hypercube:4"},
	"circulant":         {"circulant:16,1+2", "circulant:9,1"},
	"random-regular":    {"random-regular:d=3,n=16,seed=7", "random-regular:d=4,n=20,seed=3"},
	"shift-regular":     {"shift-regular:d=4,n=16,seed=7"},
	"margulis-expander": {"margulis-expander:n=8"},
	"cayley":            {"cayley:W,level=2,k=2,seed=1"},
	"lift":              {"lift:cycle:9,l=3", "lift:petersen,l=2,seed=5"},
}

// randomOrientation directs each edge by a coin drawn from seed, in
// edge order.
func randomOrientation(g *graph.Graph, seed int64) digraph.Orientation {
	rng := rand.New(rand.NewSource(seed))
	dir := make(map[graph.Edge]bool, g.M())
	for _, e := range g.Edges() {
		dir[e] = rng.Intn(2) == 0
	}
	return func(e graph.Edge) bool { return dir[e] }
}

func evenDegrees(g *graph.Graph) bool {
	for v := 0; v < g.N(); v++ {
		if g.Degree(v)%2 != 0 {
			return false
		}
	}
	return true
}

// TestFromPortsMatchesReference: on every host family, and on graphs
// without edges, under the default, smaller-first, seeded random and
// (on even-degree hosts) Eulerian orientations, FromPorts returns
// exactly the reference's digraph — offsets, label-sorted rows and
// alphabet — and label table.
func TestFromPortsMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"empty":    graph.NewBuilder(0).Build(),
		"edgeless": graph.NewBuilder(4).Build(),
	}
	for _, f := range host.Families() {
		if len(portsHosts[f.Name]) == 0 {
			t.Errorf("family %q has no descriptor in portsHosts", f.Name)
		}
		for _, desc := range portsHosts[f.Name] {
			graphs[desc] = host.MustParse(desc).G
		}
	}
	eulerian := 0
	for desc, g := range graphs {
		orients := map[string]digraph.Orientation{
			"default":  nil,
			"smaller":  digraph.OrientBySmaller,
			"random-1": randomOrientation(g, 1),
			"random-2": randomOrientation(g, 2),
		}
		if evenDegrees(g) && g.M() > 0 {
			o, err := digraph.EulerianOrientation(g)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			orients["eulerian"] = o
			eulerian++
		}
		for name, o := range orients {
			got, want := digraph.FromPorts(g, o), fromPortsReference(g, o)
			if !reflect.DeepEqual(got.D, want.D) {
				t.Errorf("%s/%s: digraph %v differs from reference %v", desc, name, got.D, want.D)
			}
			if !reflect.DeepEqual(got.Labels, want.Labels) {
				t.Errorf("%s/%s: labels %v, reference %v", desc, name, got.Labels, want.Labels)
			}
			if got.Host != g {
				t.Errorf("%s/%s: Host is not the input graph", desc, name)
			}
		}
	}
	if eulerian < 10 {
		t.Errorf("only %d even-degree hosts got the Eulerian orientation", eulerian)
	}
}
