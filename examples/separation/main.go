// Separation: Fig. 2 — why constant time is special.
//
// With running time Θ(log* n), the three models separate: maximal
// independent set on a cycle is solvable in the ID model (Cole–Vishkin
// colour reduction), needs Θ(n) in OI, and is impossible in PO. This
// example measures the Cole–Vishkin round counts across three orders
// of magnitude of n and certifies the OI/PO impossibility at constant
// radius by exhausting every behaviour.
//
// The paper's point is the converse: at O(1) time, the models
// coincide for approximation — see examples/edgedominating.
//
// Run: go run ./examples/separation
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/algorithms"
	"repro/internal/digraph"
	"repro/internal/model"
	"repro/internal/problems"
)

func main() {
	fmt.Println("== MIS on directed cycles: ID vs OI vs PO (Fig. 2) ==")
	fmt.Println()
	rng := rand.New(rand.NewSource(5))
	fmt.Printf("%8s  %18s  %12s\n", "n", "CV rounds (ID)", "MIS valid?")
	for _, n := range []int{8, 32, 128, 512, 2048} {
		h := directedCycle(n)
		ids := model.PermPrefix(rng, 8*n, n)
		res, err := algorithms.ColeVishkinMIS(h, ids)
		if err != nil {
			log.Fatal(err)
		}
		valid := problems.MaxIndependentSet{}.Feasible(h.G, res.MIS) == nil &&
			problems.MinDominatingSet{}.Feasible(h.G, res.MIS) == nil
		fmt.Printf("%8d  %18d  %12v\n", n, res.Rounds, valid)
	}
	fmt.Println()
	fmt.Println("round counts are flat while n grows 256x: Θ(log* n).")
	fmt.Println()

	// PO: on the symmetric directed cycle every node has the same view,
	// so a PO algorithm outputs a constant — neither constant is a MIS.
	n := 12
	h := directedCycle(n)
	for _, member := range []bool{false, true} {
		sol := model.NewSolution(model.VertexKind, n)
		for v := range sol.Vertices {
			sol.Vertices[v] = member
		}
		indep := problems.MaxIndependentSet{}.Feasible(h.G, sol) == nil
		maximal := problems.MinDominatingSet{}.Feasible(h.G, sol) == nil
		fmt.Printf("PO behaviour all-%v: independent=%v maximal=%v\n", member, indep, maximal)
	}
	fmt.Println("=> no PO algorithm outputs an MIS on the symmetric cycle, at any constant radius.")
	fmt.Println()
	fmt.Println("in the OI model the order's single 'seam' does not help either; the")
	fmt.Println("experiment suite (E2) certifies this by exhausting all radius-r behaviours.")
}

func directedCycle(n int) *model.Host {
	b := digraph.NewBuilder(n, 1)
	for i := 0; i < n; i++ {
		b.MustAddArc(i, (i+1)%n, 0)
	}
	h, err := model.NewHost(b.Build())
	if err != nil {
		log.Fatal(err)
	}
	return h
}
