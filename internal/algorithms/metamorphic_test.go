package algorithms

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/order"
)

// oiAsID adapts an OI algorithm to the ID interface: the identified
// ball's vertices are already in increasing-identifier order, so
// forgetting the numeric values leaves exactly the ordered ball. Any
// output difference between two id assignments inducing the same rank
// is therefore a violation of order-invariance.
func oiAsID(alg model.OI) model.ID {
	return model.FuncID{R: alg.Radius(), Fn: func(b *model.IDBall) model.Output {
		return alg.EvalOI(&order.Ball{G: b.G, Root: b.Root})
	}}
}

// oiAlgos enumerates every OI algorithm the package ships, with its
// solution kind.
func oiAlgos() map[string]struct {
	alg  model.OI
	kind model.Kind
} {
	return map[string]struct {
		alg  model.OI
		kind model.Kind
	}{
		"oi-smallest-eds": {OISmallestNeighborEDS(), model.EdgeKind},
		"oi-nonmin-vc":    {OILocalMinJoinsVC(), model.VertexKind},
	}
}

// metamorphicHost draws a random host from a seeded generator.
func metamorphicHost(rng *rand.Rand) *model.Host {
	switch rng.Intn(3) {
	case 0:
		return model.HostFromGraph(graph.Cycle(5 + rng.Intn(20)))
	case 1:
		side := 3 + rng.Intn(3)
		return model.HostFromGraph(graph.Torus(side, side))
	default:
		n := 2 * (5 + rng.Intn(8))
		return model.HostFromGraph(graph.RandomRegular(n, 3, rng))
	}
}

// monotoneIDs maps a rank to identifiers through a random strictly
// increasing transformation: rank-preserving by construction.
func monotoneIDs(rank order.Rank, rng *rand.Rand) []int {
	n := len(rank)
	// gaps[k] >= 1, so position k maps to a strictly increasing value.
	val := make([]int, n)
	cur := rng.Intn(10)
	for k := 0; k < n; k++ {
		cur += 1 + rng.Intn(50)
		val[k] = cur
	}
	ids := make([]int, n)
	for v, k := range rank {
		ids[v] = val[k]
	}
	return ids
}

// solutionsEqual compares two solutions of one kind.
func solutionsEqual(a, b *model.Solution) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == model.VertexKind {
		return reflect.DeepEqual(a.Vertices, b.Vertices)
	}
	return reflect.DeepEqual(a.EdgeSet(), b.EdgeSet())
}

// TestMetamorphicOIInvariance: every OI algorithm's output is
// invariant under rank-preserving relabelings of the identifiers —
// RunOI on the rank and RunID under any two monotone id assignments
// all coincide. Hosts and relabelings are drawn from a seeded
// generator; a failure prints the reproducer seed.
func TestMetamorphicOIInvariance(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := metamorphicHost(rng)
		n := h.G.N()
		rank := order.Rank(rng.Perm(n))
		ids1 := monotoneIDs(rank, rng)
		ids2 := monotoneIDs(rank, rng)
		for name, a := range oiAlgos() {
			base, err := model.RunOI(h, rank, a.alg, a.kind)
			if err != nil {
				t.Fatalf("seed %d %s: RunOI: %v", seed, name, err)
			}
			s1, err := model.RunID(h, ids1, oiAsID(a.alg), a.kind)
			if err != nil {
				t.Fatalf("seed %d %s: RunID(ids1): %v", seed, name, err)
			}
			s2, err := model.RunID(h, ids2, oiAsID(a.alg), a.kind)
			if err != nil {
				t.Fatalf("seed %d %s: RunID(ids2): %v", seed, name, err)
			}
			if !solutionsEqual(base, s1) || !solutionsEqual(s1, s2) {
				t.Errorf("%s is not order-invariant on n=%d host — reproducer seed %d", name, n, seed)
			}
		}
	}
}

// TestMetamorphicCVRoundsMaxID: Cole–Vishkin's measured round count
// depends only on the maximum identifier, not on the assignment — two
// id sets sharing a maximum always use the same number of rounds, and
// the count matches the predicted horizon. Failures print the
// reproducer seed.
func TestMetamorphicCVRoundsMaxID(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(57)
		h := dcycleHost(t, n)
		ids1 := rng.Perm(8 * n)[:n]
		maxID := 0
		for _, id := range ids1 {
			if id > maxID {
				maxID = id
			}
		}
		// ids2: a different assignment with the same maximum — shuffle
		// ids1 and also remap all non-maximal values.
		ids2 := append([]int(nil), ids1...)
		rng.Shuffle(n, func(i, j int) { ids2[i], ids2[j] = ids2[j], ids2[i] })
		for i, id := range ids2 {
			if id != maxID {
				ids2[i] = id / 2
			}
		}
		// Halving may collide; fall back to a pure shuffle (still a
		// different assignment with the same maximum) when it does.
		if !uniqueInts(ids2) {
			ids2 = append([]int(nil), ids1...)
			rng.Shuffle(n, func(i, j int) { ids2[i], ids2[j] = ids2[j], ids2[i] })
		}
		r1, err := ColeVishkinMIS(h, ids1)
		if err != nil {
			t.Fatalf("seed %d: ids1: %v", seed, err)
		}
		r2, err := ColeVishkinMIS(h, ids2)
		if err != nil {
			t.Fatalf("seed %d: ids2: %v", seed, err)
		}
		if r1.Rounds != r2.Rounds {
			t.Errorf("rounds %d vs %d for the same max id %d — reproducer seed %d",
				r1.Rounds, r2.Rounds, maxID, seed)
		}
		if want := CVRounds(maxID) + 1; r1.Rounds != want {
			t.Errorf("measured %d rounds, predicted horizon %d — reproducer seed %d",
				r1.Rounds, want, seed)
		}
		// The same property under a seeded lossy schedule: loss degrades
		// colours, never the round count — no node is ever down, so the
		// max-id horizon still decides when every node halts, for either
		// id assignment.
		const profile = "lossy:p=0.1"
		sched := model.MustParseProfile(profile).New(h, seed)
		f1, err := ColeVishkinMISFaulty(h, ids1, sched)
		if err != nil {
			t.Fatalf("faulty ids1: %v — reproducer (seed %d, profile %q)", err, seed, profile)
		}
		f2, err := ColeVishkinMISFaulty(h, ids2, sched)
		if err != nil {
			t.Fatalf("faulty ids2: %v — reproducer (seed %d, profile %q)", err, seed, profile)
		}
		if f1.Rounds != r1.Rounds || f2.Rounds != r1.Rounds {
			t.Errorf("lossy rounds %d/%d differ from clean %d — reproducer (seed %d, profile %q)",
				f1.Rounds, f2.Rounds, r1.Rounds, seed, profile)
		}
		again, err := ColeVishkinMISFaulty(h, ids1, model.MustParseProfile(profile).New(h, seed))
		if err != nil {
			t.Fatalf("faulty rerun: %v — reproducer (seed %d, profile %q)", err, seed, profile)
		}
		if !solutionsEqual(f1.MIS, again.MIS) || f1.Violations != again.Violations || f1.Uncovered != again.Uncovered {
			t.Errorf("faulty Cole–Vishkin not reproducible — reproducer (seed %d, profile %q)", seed, profile)
		}
	}
}

// floodRankAlgo is an order-invariant engine workload for the faulty
// metamorphic legs, packed into one word and run on both engines:
// every node floods the largest identifier heard (bits 32-63;
// its own id in bits 0-31) for a fixed number of rounds and outputs
// whether it heard one larger than its own. Both the message pattern
// and the output depend on identifiers only through their relative
// order.
func floodRankAlgo(rounds int) model.WordAlgo {
	return model.WordAlgo{
		Init: func(v int64, info model.NodeInfo) uint64 {
			id := uint64(info.ID)
			return id<<32 | id
		},
		Step: func(c *model.Chunk, states []uint64) {
			for c.Next() {
				s := &states[c.Node]
				best := *s >> 32
				for _, w := range c.Inbox {
					best = max(best, w)
				}
				*s = best<<32 | *s&0xffffffff
				if c.Round >= rounds {
					c.Halt()
					continue
				}
				c.Broadcast(best)
			}
		},
		Out: func(s *uint64) model.Output { return model.Output{Member: *s>>32 > *s&0xffffffff} },
	}
}

// runSharded runs a word algorithm on the sharded engine at P=p and
// returns its outputs, round count and fault report.
func runSharded(h *model.Host, p int, ids []int, algo model.WordAlgo, maxRounds int, sched model.Schedule) ([]model.Output, int, *model.FaultReport, error) {
	se, err := model.NewShardedEngine(model.SourceOf(h), p)
	if err != nil {
		return nil, 0, nil, err
	}
	rounds, rep, err := se.RunFaulty(func(v int64) int { return ids[v] }, algo, maxRounds, sched)
	if err != nil {
		return nil, 0, nil, err
	}
	return se.Outputs(algo), rounds, rep, nil
}

// TestMetamorphicFaultyOIInvariance is the OI-invariance property on
// the faulty message plane: fault decisions are pure functions of
// (seed, round, slot/node) — of the topology, never of identifiers —
// so a faulty execution of an order-invariant workload commutes with
// rank-preserving relabelings. For every seeded host, two monotone id
// assignments of one rank produce byte-identical outputs on the
// sharded engine at P=2 under the same lossy (and churn) schedule.
// Failures print the reproducer (seed, profile).
func TestMetamorphicFaultyOIInvariance(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, profile := range []string{"lossy:p=0.15", "churn:p=0.2,window=1"} {
			rng := rand.New(rand.NewSource(seed))
			h := metamorphicHost(rng)
			n := h.G.N()
			rank := order.Rank(rng.Perm(n))
			ids1 := monotoneIDs(rank, rng)
			ids2 := monotoneIDs(rank, rng)
			sched := model.MustParseProfile(profile).New(h, seed)
			o1, r1, rep1, err := runSharded(h, 2, ids1, floodRankAlgo(3), 300, sched)
			if err != nil {
				t.Fatalf("ids1: %v — reproducer (seed %d, profile %q)", err, seed, profile)
			}
			o2, r2, rep2, err := runSharded(h, 2, ids2, floodRankAlgo(3), 300, sched)
			if err != nil {
				t.Fatalf("ids2: %v — reproducer (seed %d, profile %q)", err, seed, profile)
			}
			if r1 != r2 || !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(rep1, rep2) {
				t.Errorf("faulty execution not order-invariant on n=%d host — reproducer (seed %d, profile %q)",
					n, seed, profile)
			}
		}
	}
}

func uniqueInts(xs []int) bool {
	seen := make(map[int]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return false
		}
		seen[x] = true
	}
	return true
}

// runFlat runs a word algorithm on the flat engine and returns its
// outputs, round count and fault report.
func runFlat(h *model.Host, ids []int, algo model.WordAlgo, maxRounds int, sched model.Schedule) ([]model.Output, int, *model.FaultReport, error) {
	col, rounds, rep, err := model.NewWordEngine(h).RunStatesFaulty(ids, algo, maxRounds, sched)
	if err != nil {
		return nil, 0, nil, err
	}
	outs := make([]model.Output, len(col))
	for v := range col {
		outs[v] = algo.Out(&col[v])
	}
	return outs, rounds, rep, nil
}

// TestMetamorphicTypedFaultyOIInvariance extends the faulty
// OI-invariance property to the flat engine, and couples it to the
// sharded reference: on every seeded host and profile, (a) the flat
// execution is invariant under rank-preserving relabelings, and (b) it
// agrees byte for byte — outputs, rounds and fault reports — with the
// execution of the same workload on the sharded engine at P=1, on
// every reproducer seed.
func TestMetamorphicTypedFaultyOIInvariance(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, profile := range []string{"lossy:p=0.15", "churn:p=0.2,window=1"} {
			rng := rand.New(rand.NewSource(seed))
			h := metamorphicHost(rng)
			n := h.G.N()
			rank := order.Rank(rng.Perm(n))
			ids1 := monotoneIDs(rank, rng)
			ids2 := monotoneIDs(rank, rng)
			sched := model.MustParseProfile(profile).New(h, seed)
			u1, ur1, urep1, err := runSharded(h, 1, ids1, floodRankAlgo(3), 300, sched)
			if err != nil {
				t.Fatalf("sharded ids1: %v — reproducer (seed %d, profile %q)", err, seed, profile)
			}
			t1, tr1, trep1, err := runFlat(h, ids1, floodRankAlgo(3), 300, sched)
			if err != nil {
				t.Fatalf("typed ids1: %v — reproducer (seed %d, profile %q)", err, seed, profile)
			}
			t2, tr2, trep2, err := runFlat(h, ids2, floodRankAlgo(3), 300, sched)
			if err != nil {
				t.Fatalf("typed ids2: %v — reproducer (seed %d, profile %q)", err, seed, profile)
			}
			if tr1 != tr2 || !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(trep1, trep2) {
				t.Errorf("typed faulty execution not order-invariant on n=%d host — reproducer (seed %d, profile %q)",
					n, seed, profile)
			}
			if tr1 != ur1 || !reflect.DeepEqual(t1, u1) || !reflect.DeepEqual(trep1, urep1) {
				t.Errorf("typed and sharded faulty executions disagree on n=%d host — reproducer (seed %d, profile %q)",
					n, seed, profile)
			}
		}
	}
}

// TestMetamorphicTypedMatchingRelabel: the randomized matching drawn
// from one rng stream selects the same edge set whatever the (unused)
// identifier labels are, clean and under a seeded schedule — the
// typed proposal exchange is identifier-free. Failures print the
// reproducer (seed, profile).
func TestMetamorphicTypedMatchingRelabel(t *testing.T) {
	const profile = "lossy:p=0.2"
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := metamorphicHost(rng)
		a := RandomizedMatching(h, rand.New(rand.NewSource(seed+100)))
		b := RandomizedMatching(h, rand.New(rand.NewSource(seed+100)))
		if !solutionsEqual(a, b) {
			t.Errorf("matching not a pure function of the rng stream — reproducer seed %d", seed)
		}
		sched := model.MustParseProfile(profile).New(h, seed)
		fa, err := RandomizedMatchingFaulty(h, rand.New(rand.NewSource(seed+100)), sched)
		if err != nil {
			t.Fatalf("faulty: %v — reproducer (seed %d, profile %q)", err, seed, profile)
		}
		fb, err := RandomizedMatchingFaulty(h, rand.New(rand.NewSource(seed+100)), model.MustParseProfile(profile).New(h, seed))
		if err != nil {
			t.Fatalf("faulty rerun: %v — reproducer (seed %d, profile %q)", err, seed, profile)
		}
		if !solutionsEqual(fa.Matching, fb.Matching) || !reflect.DeepEqual(fa.Report, fb.Report) {
			t.Errorf("faulty matching not reproducible — reproducer (seed %d, profile %q)", seed, profile)
		}
	}
}
