package homog

import (
	"math/big"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/order"
	"repro/internal/par"
)

// TestHomogeneityScansParallelInvariant pins the parallel homogeneity
// scans against the sequential fallback: identical reports at every
// parallelism level, including the RNG-driven sampler (samples are
// drawn before the fork, so the stream is schedule-independent).
func TestHomogeneityScansParallelInvariant(t *testing.T) {
	c, err := Search(1, 1, SearchOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	m := c.MForEpsilon(0.5)
	if m < 4 {
		m = 4
	}

	old := par.Set(1)
	defer par.Set(old)
	seqExact, err := c.HomogeneityExact(m, 5000)
	if err != nil {
		t.Fatal(err)
	}
	seqSample, err := c.HomogeneitySample(m, 40, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}

	par.Set(8)
	parExact, err := c.HomogeneityExact(m, 5000)
	if err != nil {
		t.Fatal(err)
	}
	parSample, err := c.HomogeneitySample(m, 40, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}

	if *seqExact != *parExact {
		t.Fatalf("exact scan diverged: seq %+v par %+v", seqExact, parExact)
	}
	if *seqSample != *parSample {
		t.Fatalf("sampler diverged: seq %+v par %+v", seqSample, parSample)
	}
}

// TestSearchParallelInvariant: the blocked-parallel generator search
// must return the same construction (level, generators, attempt count)
// as the sequential scan.
func TestSearchParallelInvariant(t *testing.T) {
	// searchUncached bypasses the memo so the parallel run really
	// re-executes the blocked scan.
	old := par.Set(1)
	defer par.Set(old)
	seq, err := searchUncached(2, 1, SearchOptions{Seed: 42}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	par.Set(8)
	parc, err := searchUncached(2, 1, SearchOptions{Seed: 42}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if seq.Level != parc.Level || seq.Attempts != parc.Attempts || len(seq.Gens) != len(parc.Gens) {
		t.Fatalf("search diverged: seq %+v par %+v", seq, parc)
	}
	for i := range seq.Gens {
		if !seq.Gens[i].Equal(parc.Gens[i]) {
			t.Fatalf("generator %d differs", i)
		}
	}
}

// exactReference is the string-keyed exact scan HomogeneityExact
// replaced, kept as the reference its integer build is pinned to: it
// enumerates H(m) as encoded nodes, materialises the Cayley digraph,
// takes its underlying graph, decodes every node and sorts the nodes
// with U.Less. It returns the host graph and rank it sweeps alongside
// the report.
func exactReference(c *Construction, m int) (*graph.Graph, order.Rank, *ExactReport, error) {
	fam, err := group.NewFamily(c.Level, m)
	if err != nil {
		return nil, nil, nil, err
	}
	n := int(fam.Order().Int64())
	tauBall, err := c.TauStarBall()
	if err != nil {
		return nil, nil, nil, err
	}
	cay, err := c.HCayley(m)
	if err != nil {
		return nil, nil, nil, err
	}
	in := order.NewInterner()
	tauBall = in.Canon(tauBall)
	md, mNodes, _, err := digraph.Materialize[string](cay, odometerNodes(cay), n)
	if err != nil {
		return nil, nil, nil, err
	}
	und, err := md.Underlying()
	if err != nil {
		return nil, nil, nil, err
	}
	mElems := make([]group.Elem, n)
	for i, s := range mNodes {
		mElems[i] = cay.Elem(s)
	}
	u := group.U(c.Level)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return u.Less(mElems[perm[a]], mElems[perm[b]]) })
	rank := make(order.Rank, n)
	for pos, v := range perm {
		rank[v] = pos
	}
	hm := order.SweepMeasureInto(in, und, rank, c.R)
	return und, rank, &ExactReport{
		M:          m,
		N:          n,
		TauCount:   hm.Counts[tauBall],
		Alpha:      float64(hm.Counts[tauBall]) / float64(n),
		InnerBound: c.InnerFraction(m),
		TypeCount:  len(hm.Counts),
		Girth:      digraph.UndirectedGirth[string](cay, []string{cay.Node(fam.Identity())}, 2*c.R+2),
	}, nil
}

// TestHomogeneityExactMatchesStringReference pins the integer build
// to the string-keyed reference: the same underlying graph, the same
// rank and the same report, for every even m with |H| <= 2^15.
func TestHomogeneityExactMatchesStringReference(t *testing.T) {
	for _, kr := range []struct{ k, r int }{{1, 1}, {2, 1}, {1, 2}} {
		c := mustSearch(t, kr.k, kr.r)
		for m := 2; group.H(c.Level, m).Order().Cmp(big.NewInt(1<<15)) <= 0; m += 2 {
			wantG, wantRank, wantRep, err := exactReference(c, m)
			if err != nil {
				t.Fatalf("k=%d r=%d m=%d: reference: %v", kr.k, kr.r, m, err)
			}
			cay, err := c.HCayley(m)
			if err != nil {
				t.Fatal(err)
			}
			g, rank, err := cay.OrderedHost()
			if err != nil {
				t.Fatalf("k=%d r=%d m=%d: OrderedHost: %v", kr.k, kr.r, m, err)
			}
			rep, err := c.HomogeneityExact(m, 1<<15)
			if err != nil {
				t.Fatalf("k=%d r=%d m=%d: HomogeneityExact: %v", kr.k, kr.r, m, err)
			}
			if !reflect.DeepEqual(g, wantG) {
				t.Errorf("k=%d r=%d m=%d: integer CSR graph differs from the materialised underlying graph", kr.k, kr.r, m)
			}
			if !reflect.DeepEqual(order.Rank(rank), wantRank) {
				t.Errorf("k=%d r=%d m=%d: closed-form rank differs from the U.Less sort", kr.k, kr.r, m)
			}
			if !reflect.DeepEqual(rep, wantRep) {
				t.Errorf("k=%d r=%d m=%d: report %+v, reference %+v", kr.k, kr.r, m, rep, wantRep)
			}
		}
	}
}

// TestTauCountMatchesClassifyTau holds TauCount to an oracle that
// shares neither the CSR build nor the sweep: ClassifyTau extracts
// every node's ball from the implicit string-keyed Cayley graph and
// orders it with U.Less.
func TestTauCountMatchesClassifyTau(t *testing.T) {
	for _, tc := range []struct{ k, r, m int }{{1, 1, 8}, {1, 1, 10}, {2, 1, 4}, {1, 2, 4}} {
		c := mustSearch(t, tc.k, tc.r)
		cay, err := c.HCayley(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		nodes := odometerNodes(cay)
		for _, p := range []int{1, 8} {
			old := par.Set(p)
			rep, err := c.HomogeneityExact(tc.m, len(nodes))
			var flags []bool
			if err == nil {
				flags, err = c.ClassifyTau(cay, nodes)
			}
			par.Set(old)
			if err != nil {
				t.Fatal(err)
			}
			tau := 0
			for _, f := range flags {
				if f {
					tau++
				}
			}
			if rep.TauCount != tau {
				t.Errorf("k=%d r=%d m=%d par %d: TauCount %d, ClassifyTau counts %d", tc.k, tc.r, tc.m, p, rep.TauCount, tau)
			}
		}
	}
}

// odometerNodes encodes every element of a finite Cayley graph's group
// in odometer order (coordinate 0 fastest).
func odometerNodes(cay *group.Cayley) []string {
	fam := cay.Family()
	nodes := make([]string, fam.Order().Int64())
	e := fam.Identity()
	for i := range nodes {
		nodes[i] = cay.Node(e)
		for j := range e {
			if e[j]++; e[j] < fam.Mod {
				break
			}
			e[j] = 0
		}
	}
	return nodes
}
