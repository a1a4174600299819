package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/problems"
)

// Separation regenerates Fig. 2 / Section 1.1: maximal independent set
// on cycles separates the three models once the run time may grow.
//
//   - ID: Cole–Vishkin finds an MIS in O(log* n) rounds — measured.
//   - OI: certified impossible at constant radius (enumeration over all
//     radius-r OI behaviours on the ordered cycle finds no MIS).
//   - PO: certified impossible at constant radius (same enumeration
//     over view types on the symmetric cycle).
func Separation() (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "MIS on cycles: ID in O(log* n); OI and PO impossible at r=O(1)",
		Ref:   "Fig. 2, §1.1",
		Columns: []string{
			"n", "CV rounds (measured)", "CV rounds (predicted)",
			"OI r=1 MIS?", "PO r=1 MIS?", "PO r=2 MIS?",
		},
	}
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{8, 16, 64, 256, 1024} {
		h, err := directedCycle(n)
		if err != nil {
			return nil, err
		}
		ids := model.PermPrefix(rng, 8*n, n)
		maxID := 0
		for _, id := range ids {
			if id > maxID {
				maxID = id
			}
		}
		res, err := algorithms.ColeVishkinMIS(h, ids)
		if err != nil {
			return nil, err
		}
		oiOK, err := misPossibleOI(n, 1)
		if err != nil {
			return nil, err
		}
		po1, err := misPossiblePO(n, 1)
		if err != nil {
			return nil, err
		}
		po2, err := misPossiblePO(n, 2)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, res.Rounds, algorithms.CVRounds(maxID), yn(oiOK), yn(po1), yn(po2))
	}
	t.Notes = append(t.Notes,
		"measured Cole–Vishkin rounds grow like log* of the identifier space: flat across three orders of magnitude of n",
		"OI/PO verdicts are certified by exhausting every radius-r behaviour on the instance (maximality ⟺ the independent set also dominates)",
	)
	return t, nil
}

// misPossiblePO reports whether any radius-r PO algorithm outputs a
// maximal independent set on the directed n-cycle, by exhausting all
// view-type-to-output assignments.
func misPossiblePO(n, r int) (bool, error) {
	h, err := directedCycle(n)
	if err != nil {
		return false, err
	}
	// On the symmetric directed cycle there is a single view type, so a
	// PO algorithm has exactly two behaviours.
	for _, member := range []bool{false, true} {
		sol := model.NewSolution(model.VertexKind, n)
		for v := range sol.Vertices {
			sol.Vertices[v] = member
		}
		if isMaximalIS(h, sol) {
			return true, nil
		}
	}
	return false, nil
}

// misPossibleOI reports whether any radius-r OI algorithm outputs a
// maximal independent set on the identity-ordered n-cycle: assignments
// of membership to the 2r+1 ordered ball types are exhausted.
func misPossibleOI(n, r int) (bool, error) {
	h, err := directedCycle(n)
	if err != nil {
		return false, err
	}
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i
	}
	cat := core.BallCatalogue(h, rank, r)
	types := len(cat)
	if types > 20 {
		return false, fmt.Errorf("experiments: too many types (%d)", types)
	}
	// Canonicalise the catalogue in an interner so the per-evaluation
	// type lookup is a hash probe on the interned pointer, not a string
	// encoding.
	in := order.NewInterner()
	typeIdx := make(map[*order.Ball]int, types)
	for i, b := range cat {
		typeIdx[in.Canon(b)] = i
	}
	for mask := 0; mask < 1<<types; mask++ {
		alg := model.FuncOI{R: r, Fn: func(b *order.Ball) model.Output {
			return model.Output{Member: mask&(1<<typeIdx[in.Canon(b)]) != 0}
		}}
		sol, err := model.RunOI(h, rank, alg, model.VertexKind)
		if err != nil {
			return false, err
		}
		if isMaximalIS(h, sol) {
			return true, nil
		}
	}
	return false, nil
}

// isMaximalIS checks independence and maximality (equivalently,
// independent + dominating).
func isMaximalIS(h *model.Host, sol *model.Solution) bool {
	if (problems.MaxIndependentSet{}).Feasible(h.G, sol) != nil {
		return false
	}
	return (problems.MinDominatingSet{}).Feasible(h.G, sol) == nil
}
