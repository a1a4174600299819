package experiments

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/view"
)

// Models regenerates Fig. 1: the same 4-cycle under the three
// information regimes. The probe question is "am I the unique local
// minimum of my radius-1 neighbourhood?" — answerable in ID and OI,
// and provably constant across nodes in PO (all views coincide).
func Models() (*Table, error) {
	g := graph.Cycle(4)
	ids := []int{3, 5, 2, 8} // the identifiers drawn in Fig. 1
	rank, err := order.FromIDs(ids)
	if err != nil {
		return nil, err
	}
	h := model.HostFromGraph(g)

	idAlg := model.FuncID{R: 1, Fn: func(b *model.IDBall) model.Output {
		return model.Output{Member: b.Root == 0}
	}}
	oiAlg := model.FuncOI{R: 1, Fn: func(b *order.Ball) model.Output {
		return model.Output{Member: b.Root == 0}
	}}

	solID, err := model.RunID(h, ids, idAlg, model.VertexKind)
	if err != nil {
		return nil, err
	}
	solOI, err := model.RunOI(h, rank, oiAlg, model.VertexKind)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "E1",
		Title:   "three models of distributed computing on C4",
		Ref:     "Fig. 1",
		Columns: []string{"node", "ID label", "OI rank", "PO view type", "ID: local min", "OI: local min", "PO possible?"},
	}
	bs := view.NewBuildScratch()
	types := map[*view.Tree]int{}
	for v := 0; v < g.N(); v++ {
		tree := view.BuildWith[int](bs, h.D, v, 1)
		if _, ok := types[tree]; !ok {
			types[tree] = len(types)
		}
		t.AddRow(v, ids[v], rank[v], fmt.Sprintf("t%d", types[tree]),
			yn(solID.Vertices[v]), yn(solOI.Vertices[v]), "no (symmetric)")
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("the PO host realises %d distinct view type(s); with the smaller-endpoint orientation the symmetry is broken only where the orientation breaks it", len(types)),
		"ID and OI agree here because the probe is order-invariant; E9 exhibits an ID algorithm that is not")
	return t, nil
}

// directedCycle resolves the consistently oriented n-cycle host
// (the registry's dcycle:<n>).
func directedCycle(n int) (*model.Host, error) {
	h, err := host.Parse(fmt.Sprintf("dcycle:%d", n))
	if err != nil {
		return nil, err
	}
	return &model.Host{D: h.D, G: h.G}, nil
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
