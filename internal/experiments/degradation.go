package experiments

import (
	"math/rand"

	"repro/internal/algorithms"
	"repro/internal/host"
	"repro/internal/model"
)

// Degradation regenerates E17: how the paper's operational algorithms
// degrade when the execution itself turns adversarial. The clean
// engine realises the synchronous schedule the theory assumes; this
// experiment re-runs Cole–Vishkin MIS and the §6.5 randomized
// matching under the canned fault profiles of internal/model — lossy,
// duplicating/reordering, crashing, churning and degree-targeted
// adversarial schedules — at engine scale, and reports the output
// quality curve as the fault rate rises. Every row is reproducible
// from the experiment seed and the profile descriptor in the row.
func Degradation() (*Table, error) {
	return degradation(
		100_000,
		[]string{
			"clean",
			"lossy:p=0.01",
			"lossy:p=0.05",
			"lossy:p=0.2",
			"crash:f=100,by=8",
			"adversarial:p=0.05,f=100,by=8",
		},
		[]string{"cycle:100000", "torus:400x250", "random-regular:d=3,n=100000,seed=7"},
		[]string{
			"clean",
			"lossy:p=0.05",
			"lossy:p=0.2",
			"dup+reorder",
			"churn:p=0.1,window=1",
		},
	)
}

// degradation is Degradation with the Cole–Vishkin cycle size and the
// host/profile grids pluggable, so tests run it small.
func degradation(cvN int, cvProfiles []string, matchHosts, matchProfiles []string) (*Table, error) {
	t := &Table{
		ID:    "E17",
		Title: "approximation degradation under fault schedules",
		Ref:   "Fig. 2, §6.5 (operational, adversarial schedules)",
		Columns: []string{
			"workload", "host", "profile", "n", "rounds",
			"crashed", "dropped", "selected", "selected/n", "safe",
		},
	}
	seed := int64(17)
	h, err := directedCycle(cvN)
	if err != nil {
		return nil, err
	}
	ids := model.PermPrefix(rand.New(rand.NewSource(seed)), 8*cvN, cvN)
	for _, desc := range cvProfiles {
		prof, err := model.ParseProfile(desc)
		if err != nil {
			return nil, err
		}
		res, err := algorithms.ColeVishkinMISFaulty(h, ids, prof.New(h, seed))
		if err != nil {
			return nil, err
		}
		rep := res.Report
		survivors := rep.Survivors(cvN)
		t.AddRow("Cole–Vishkin MIS (ID)", "dcycle", desc, cvN, res.Rounds,
			rep.NumCrashed, rep.Dropped, res.MIS.Size(),
			float64(res.MIS.Size())/float64(survivors),
			yn(res.Violations == 0 && res.Uncovered == 0))
	}
	for _, hostDesc := range matchHosts {
		rh, err := host.Parse(hostDesc)
		if err != nil {
			return nil, err
		}
		mh := modelHost(rh)
		n := mh.G.N()
		for _, desc := range matchProfiles {
			prof, err := model.ParseProfile(desc)
			if err != nil {
				return nil, err
			}
			// One rng per (host, profile) cell: the proposals are
			// identical across the profile column, so the degradation is
			// purely the schedule's doing.
			rng := rand.New(rand.NewSource(seed))
			res, err := algorithms.RandomizedMatchingFaulty(mh, rng, prof.New(mh, seed))
			if err != nil {
				return nil, err
			}
			rep := res.Report
			t.AddRow("randomized matching", rh.Desc, desc, n, 2,
				rep.NumCrashed, rep.Dropped, res.Matching.Size(),
				float64(res.Matching.Size())/float64(rep.Survivors(n)),
				yn(res.Conflicts == 0))
		}
	}
	t.Notes = append(t.Notes,
		"every row reproduces from (host, ids/rng seed, experiment seed 17, profile descriptor): fault decisions are pure hashes of (seed, round, slot/node), independent of worker schedule",
		"Cole–Vishkin 'safe' checks the survivor-induced MIS (independence + maximality among non-crashed nodes); under loss the desynchronised colour reduction loses both, which is the separation-relevant failure mode",
		"matching 'safe' checks the no-conflict matching property, which the mutual-proposal protocol keeps under every schedule — losses only shrink selected/n (each dropped direction costs at most one edge)",
		"selected/n is normalised by survivors, so crash rows measure quality on the nodes still present; the adversarial profile concentrates loss on the highest-degree, most recently active nodes",
	)
	return t, nil
}
