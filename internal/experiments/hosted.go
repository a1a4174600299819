package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/algorithms"
	"repro/internal/digraph"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/order"
)

// HostExperiment is an experiment re-runnable on any registered host
// family (the -host flag of cmd/experiments). The host variants are
// summary tables — hosts can be large, so they aggregate per-type
// instead of printing one row per node like their fixed-host originals.
// Run receives the -rmax radius ceiling; experiments without a radius
// sweep ignore it, the homogeneity measurement (E5) emits one row per
// radius 1..rmax from a single layered pass.
type HostExperiment struct {
	ID   string
	Name string
	Run  func(h *host.Host, rmax int) (*Table, error)
}

// DefaultRmax is the radius ceiling the host experiments use when the
// caller does not pick one (-rmax of cmd/experiments).
const DefaultRmax = 2

// HostExperiments returns the host-parameterisable experiments: the
// model comparison (E1), homogeneity measurement (E5), ball growth
// (E12), PN-vs-PO symmetry breaking (E13) and operational round
// workloads (E16).
func HostExperiments() []HostExperiment {
	return []HostExperiment{
		{ID: "E1", Name: "three models", Run: ModelsOn},
		{ID: "E5", Name: "host homogeneity", Run: HomogeneityOn},
		{ID: "E12", Name: "ball growth", Run: GrowthOn},
		{ID: "E13", Name: "PO vs PN separation", Run: PNSeparationOn},
		{ID: "E16", Name: "operational rounds", Run: RoundsOn},
	}
}

// RunHosted runs one host experiment by id on the given host.
func RunHosted(id string, h *host.Host, rmax int) (*Table, error) {
	for _, e := range HostExperiments() {
		if e.ID == id {
			return e.Run(h, rmax)
		}
	}
	return nil, fmt.Errorf("experiment %q is not host-parameterisable (available: E1, E5, E12, E13, E16)", id)
}

// modelHost equips a registry host with ports when its family did not
// provide a labelling.
func modelHost(h *host.Host) *model.Host {
	if h.D != nil {
		return &model.Host{D: h.D, G: h.G}
	}
	return model.HostFromGraph(h.G)
}

// ModelsOn is E1 generalised to an arbitrary host: the "unique local
// minimum of the radius-1 neighbourhood" probe under identifiers drawn
// from a fixed seed, the same probe order-invariantly, and the number
// of PO view types (a PO algorithm cannot distinguish nodes of one
// type, so its outputs are constant on each class).
func ModelsOn(h *host.Host, _ int) (*Table, error) {
	mh := modelHost(h)
	n := mh.G.N()
	rng := rand.New(rand.NewSource(1))
	ids := model.PermPrefix(rng, 8*n, n)
	rank, err := order.FromIDs(ids)
	if err != nil {
		return nil, err
	}
	idAlg := model.FuncID{R: 1, Fn: func(b *model.IDBall) model.Output {
		return model.Output{Member: b.Root == 0}
	}}
	oiAlg := model.FuncOI{R: 1, Fn: func(b *order.Ball) model.Output {
		return model.Output{Member: b.Root == 0}
	}}
	solID, err := model.RunID(mh, ids, idAlg, model.VertexKind)
	if err != nil {
		return nil, err
	}
	solOI, err := model.RunOI(mh, rank, oiAlg, model.VertexKind)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E1",
		Title:   fmt.Sprintf("three models on %s (n=%d, m=%d)", h.Desc, n, mh.G.M()),
		Ref:     "Fig. 1 (host-parameterised)",
		Columns: []string{"model", "distinct local types", "local minima selected"},
	}
	t.AddRow("ID", fmt.Sprint(n), solID.Size())
	t.AddRow("OI", countBallTypes(mh, rank, 1), solOI.Size())
	t.AddRow("PO", countViewTypes(mh, 1), "constant per type")
	t.Notes = append(t.Notes,
		"identifiers are a seed-1 permutation; ID and OI agree on this order-invariant probe, PO outputs are constant on each view-type class",
	)
	return t, nil
}

// countBallTypes counts distinct canonical ordered ball types at
// radius r (interned: distinctness is pointer distinctness; one
// sweeper is reused across the whole scan).
func countBallTypes(mh *model.Host, rank order.Rank, r int) int {
	sw, in := order.NewSweeper(), order.NewInterner()
	types := map[*order.Ball]bool{}
	for v := 0; v < mh.G.N(); v++ {
		types[sw.CanonicalBall(mh.G, rank, v, r, in)] = true
	}
	return len(types)
}

// HomogeneityOn is E5 generalised: the homogeneity (Def. 3.1) of the
// host under the identity (vertex-index) order, at every radius
// 1..rmax (rmax <= 0 means DefaultRmax) from ONE layered sweep —
// SweepMeasureAll runs a single BFS per vertex and canonicalises at
// each layer boundary. This is a full scan — every vertex's ball is
// canonicalised — and is intended for hosts up to roughly 10^5
// vertices.
func HomogeneityOn(h *host.Host, rmax int) (*Table, error) {
	if rmax <= 0 {
		rmax = DefaultRmax
	}
	t := &Table{
		ID:      "E5",
		Title:   fmt.Sprintf("homogeneity of %s under the vertex-index order", h.Desc),
		Ref:     "Fig. 6(b), Def. 3.1 (host-parameterised)",
		Columns: []string{"host", "r", "measured max α", "types"},
	}
	rank := order.Identity(h.G.N())
	for r, hm := range order.SweepMeasureAll(h.G, rank, rmax) {
		t.AddRow(h.Desc, r+1, hm.Alpha, len(hm.Counts))
	}
	t.Notes = append(t.Notes,
		"α is the largest fraction of vertices sharing one ordered r-neighbourhood type; the paper's construction drives α → 1 with girth > 2r+1",
	)
	return t, nil
}

// GrowthOn is E12 generalised: measured ball growth of the host
// against the degree-Δ tree bound (the finite analogue of the free
// bound that motivates polynomial-growth groups in §5.2). All four
// radii come from one layered BFS per vertex (graph.BallSizes), not
// one traversal per (vertex, radius) pair.
func GrowthOn(h *host.Host, _ int) (*Table, error) {
	g := h.G
	t := &Table{
		ID:      "E12",
		Title:   fmt.Sprintf("ball growth on %s (n=%d, Δ=%d)", h.Desc, g.N(), g.MaxDegree()),
		Ref:     "§5.2 (host-parameterised)",
		Columns: []string{"r", "max |B(v,r)|", "mean |B(v,r)|", "Δ-regular tree bound"},
	}
	delta := g.MaxDegree()
	const rmax = 4
	maxB, sum := make([]int, rmax+1), make([]int, rmax+1)
	for v := 0; v < g.N(); v++ {
		for r, s := range g.BallSizes(v, rmax) {
			sum[r] += s
			if s > maxB[r] {
				maxB[r] = s
			}
		}
	}
	for r := 1; r <= rmax; r++ {
		mean := 0.0
		if g.N() > 0 {
			mean = float64(sum[r]) / float64(g.N())
		}
		t.AddRow(r, maxB[r], mean, treeBound(delta, r))
	}
	t.Notes = append(t.Notes,
		"hosts with polynomial ball growth (tori, grids) stay far below the tree bound; expanders and random regular graphs track it until they saturate at n",
	)
	return t, nil
}

// treeBound is the ball size of the infinite Δ-regular tree:
// 1 + Δ((Δ−1)^r − 1)/(Δ−2), degenerating to 2r+1 for Δ = 2.
func treeBound(delta, r int) int {
	switch {
	case delta <= 1:
		return delta + 1
	case delta == 2:
		return 2*r + 1
	default:
		pow := 1
		for i := 0; i < r; i++ {
			pow *= delta - 1
		}
		return 1 + delta*(pow-1)/(delta-2)
	}
}

// PNSeparationOn is E13 generalised: the host's radius-2 view types
// under PO (ported, oriented) against PN (the symmetrised digraph:
// each arc mirrored with the transposed port pair, which carries
// exactly the classical orientation-free PN view). Fewer PN types
// means less symmetry-breaking power — on vertex-transitive hosts PN
// collapses to a single type while an orientation keeps classes apart.
func PNSeparationOn(h *host.Host, _ int) (*Table, error) {
	// Both sides are built from the same canonical port numbering of
	// the underlying graph (not the family's own labelling, which the
	// PN side cannot reproduce): the comparison isolates the effect of
	// the orientation alone.
	po := model.HostFromGraph(h.G)
	pn, err := symmetrised(po)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E13",
		Title:   fmt.Sprintf("PO vs PN view types on %s", h.Desc),
		Ref:     "§6.1 (host-parameterised)",
		Columns: []string{"model", "radius-2 view types"},
	}
	pnTypes := countViewTypes(pn, 2)
	poTypes := countViewTypes(po, 2)
	t.AddRow("PN (no orientation)", pnTypes)
	t.AddRow("PO (oriented)", poTypes)
	if poTypes > pnTypes {
		t.Notes = append(t.Notes, "the orientation strictly refines the PN types: §6.1's extra symmetry-breaking power is visible on this host")
	} else {
		t.Notes = append(t.Notes, "the orientation does not refine the PN types on this host")
	}
	return t, nil
}

// RoundsOn is E16 generalised: the engine's operational workloads on
// an arbitrary registry host. The randomized mutual-proposal matching
// (§6.5) runs on every host; the Cole–Vishkin MIS additionally runs
// when the family's own labelling is a consistently oriented cycle
// (out- and in-degree 1 everywhere) — the shape the ID upper bound of
// Fig. 2 needs.
func RoundsOn(h *host.Host, _ int) (*Table, error) {
	mh := modelHost(h)
	n := mh.G.N()
	t := &Table{
		ID:      "E16",
		Title:   fmt.Sprintf("operational rounds on %s (n=%d)", h.Desc, n),
		Ref:     "Fig. 2, §6.5 (host-parameterised, engine)",
		Columns: []string{"workload", "rounds", "selected", "selected/n"},
	}
	rng := rand.New(rand.NewSource(16))
	if h.D != nil && h.D.IsRegularDigraph(1) {
		ids := model.PermPrefix(rng, 8*n, n)
		res, err := algorithms.ColeVishkinMIS(mh, ids)
		if err != nil {
			return nil, err
		}
		t.AddRow("Cole–Vishkin MIS (ID)", res.Rounds, res.MIS.Size(),
			float64(res.MIS.Size())/float64(n))
	}
	sol := algorithms.RandomizedMatching(mh, rng)
	t.AddRow("randomized matching", 2, sol.Size(), float64(sol.Size())/float64(n))
	t.Notes = append(t.Notes,
		"one seeded engine trial per workload; Cole–Vishkin appears only when the host's own labelling is a consistently oriented cycle",
	)
	return t, nil
}

// symmetrised models PN over a ported host: every arc u -> v with
// port pair (i, j) gains the mirror arc v -> u labelled (j, i).
func symmetrised(mh *model.Host) (*model.Host, error) {
	p := digraph.FromPorts(mh.G, nil)
	type pair struct{ i, j int }
	idx := map[pair]int{}
	for l, pl := range p.Labels {
		idx[pair{pl.I, pl.J}] = l
	}
	labels := append([]digraph.PortLabel(nil), p.Labels...)
	for _, pl := range p.Labels {
		if _, ok := idx[pair{pl.J, pl.I}]; !ok {
			idx[pair{pl.J, pl.I}] = len(labels)
			labels = append(labels, digraph.PortLabel{I: pl.J, J: pl.I})
		}
	}
	b := digraph.NewBuilder(mh.G.N(), len(labels))
	for v := 0; v < p.D.N(); v++ {
		for _, a := range p.D.Out(v) {
			pl := p.Labels[a.Label]
			if err := b.AddArc(v, a.To, idx[pair{pl.I, pl.J}]); err != nil {
				return nil, err
			}
			if err := b.AddArc(a.To, v, idx[pair{pl.J, pl.I}]); err != nil {
				return nil, err
			}
		}
	}
	return &model.Host{D: b.Build(), G: mh.G}, nil
}
