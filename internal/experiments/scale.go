package experiments

import (
	"math/rand"

	"repro/internal/algorithms"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/problems"
)

// ScaleRounds regenerates E16: the operational layer at production
// scale. The separations of the paper are claims about synchronous
// message-passing algorithms, so this experiment runs two of them
// end-to-end through the batched round engine on hosts up to 10^6
// nodes — Cole–Vishkin MIS on directed cycles (the ID upper bound of
// Fig. 2, whose round count stays log*-flat across five orders of
// magnitude) and the one-round randomized mutual-proposal matching of
// §6.5 across registry host families. Every solution is checked
// feasible; exact optima are skipped (they are the only super-linear
// step at this size).
func ScaleRounds() (*Table, error) {
	return scaleRounds([]int{10_000, 100_000, 1_000_000},
		[]string{"cycle:1000000", "torus:1000x1000", "random-regular:d=3,n=100000,seed=7"})
}

// scaleRounds is ScaleRounds with the Cole–Vishkin size ladder and the
// matching host descriptors pluggable, so tests run it small.
func scaleRounds(cvSizes []int, matchHosts []string) (*Table, error) {
	t := &Table{
		ID:    "E16",
		Title: "million-node operational rounds through the message-plane engine",
		Ref:   "Fig. 2, §6.5 (operational, at scale)",
		Columns: []string{
			"workload", "host", "n", "rounds", "selected", "selected/n", "feasible",
		},
	}
	rng := rand.New(rand.NewSource(16))
	for _, n := range cvSizes {
		h, err := directedCycle(n)
		if err != nil {
			return nil, err
		}
		ids := model.PermPrefix(rng, 8*n, n)
		res, err := algorithms.ColeVishkinMIS(h, ids)
		if err != nil {
			return nil, err
		}
		feas := problems.MaxIndependentSet{}.Feasible(h.G, res.MIS) == nil
		t.AddRow("Cole–Vishkin MIS (ID)", "dcycle", n, res.Rounds,
			res.MIS.Size(), float64(res.MIS.Size())/float64(n), yn(feas))
	}
	for _, desc := range matchHosts {
		rh, err := host.Parse(desc)
		if err != nil {
			return nil, err
		}
		mh := modelHost(rh)
		n := mh.G.N()
		sol := algorithms.RandomizedMatching(mh, rng)
		feas := problems.MaxMatching{}.Feasible(mh.G, sol) == nil
		t.AddRow("randomized matching", rh.Desc, n, 2,
			sol.Size(), float64(sol.Size())/float64(n), yn(feas))
	}
	t.Notes = append(t.Notes,
		"Cole–Vishkin rounds stay log*-flat while n grows 100x: the measured count is the colour-reduction horizon of the 8n identifier space plus the constant cleanup",
		"matching rows are one engine trial each (seeded); on d-regular hosts E[selected]/n = 1/(2d) — the §6.5 guarantee at 10^6 nodes",
		"both workloads execute worker-parallel on the batched message plane (model.WordEngine); exact optima are skipped at this scale, feasibility is verified in full",
	)
	return t, nil
}
