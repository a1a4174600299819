package main

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/homog"
	"repro/internal/host"
	"repro/internal/order"
	"repro/internal/par"
)

// The homog-cayley workload measures the paper's own tool,
// homogeneity of an ordered host (Definition 3.1), on the Theorem 3.2
// Cayley construction. Its host has three ordered-ball types, so every
// interner probe after the first few hits. Traced runs add a probe of
// the other extreme, a random 3-regular graph at radius 3, where almost
// every vertex has a new type and the copy-on-write interner insert
// does most of the work (see internProbe).

const (
	cayleyM     = 64      // H(64) at level 2: 64^3 = 262,144 vertices
	cayleyAlpha = 0.96875 // α of H(64) for every seed tried
	cayleyTypes = 3

	probeN    = 32768
	probeRmax = 3
	probeReps = 3
	// probeTwinN sizes the twin host checked against
	// order.MeasureReference: the reference costs O(n) per vertex.
	probeTwinN = 8192
)

func runHomogCayley(e *env) error {
	var c *homog.Construction
	err := e.setups(31, func() {}, func(i int) error {
		root := e.tr.begin("setup", -1, e.tr.newTrace())
		defer e.tr.end(root)
		// Search memoises per options, so each repetition searches with
		// its own seed.
		var err error
		e.tr.timed("homog.search", root, 0, func() {
			c, err = homog.Search(1, 1, homog.SearchOptions{Seed: e.seed*8 + int64(i)})
			if err == nil {
				_, err = c.TauStarBall()
			}
		})
		return err
	})
	if err != nil {
		return err
	}
	n := int(group.H(c.Level, cayleyM).Order().Int64())
	// One untimed pass first: the later passes reuse the heap it grows.
	warm, err := c.HomogeneityExact(cayleyM, n)
	e.rep.op(checkCayley(warm, n, err))
	var passes, cpus durations
	stages := map[string]durations{}
	shuffle := rand.New(rand.NewSource(e.seed))
	start := time.Now()
	for i := 0; e.until(start, i); i++ {
		runtime.GC()
		held := shuffleHeap(shuffle, 4<<20)
		c0, t := cpuNow(), time.Now()
		rep, err := c.HomogeneityExact(cayleyM, n)
		passes, cpus = append(passes, time.Since(t)), append(cpus, cpuNow()-c0)
		runtime.KeepAlive(held)
		e.rep.op(checkCayley(rep, n, err))
		if e.tr == nil {
			continue
		}
		runtime.GC()
		held = shuffleHeap(shuffle, 4<<20)
		trep, st, err := cayleyTraced(e, c, cayleyM)
		runtime.KeepAlive(held)
		if err == nil && rep != nil && (trep.TauCount != rep.TauCount || trep.TypeCount != rep.TypeCount || trep.Girth != rep.Girth) {
			err = fmt.Errorf("traced replica of HomogeneityExact: τ* %d types %d girth %d, want %d %d %d",
				trep.TauCount, trep.TypeCount, trep.Girth, rep.TauCount, rep.TypeCount, rep.Girth)
		}
		e.rep.op(checkCayley(trep, n, err))
		for k, v := range st {
			stages[k] = append(stages[k], v)
		}
	}
	vps := float64(n*len(passes)) / passes.sum().Seconds()
	e.rep.add("e2e", "vertices_per_s", vps, "1/s", len(passes), fmt.Sprintf("HomogeneityExact(m=%d), %d vertices per pass", cayleyM, n))
	e.setOps(passes, cpus, "one HomogeneityExact pass")
	if e.tr != nil {
		for _, k := range sortedKeys(stages) {
			e.rep.add("layer", k+"_s", stages[k].median().Seconds(), "s", len(stages[k]), "")
		}
		e.rep.addSelfTimes(e.tr, e.w, passes)
		return internProbe(e)
	}
	return nil
}

// checkCayley holds an exact report to the values the construction
// gives at m = 64.
func checkCayley(rep *homog.ExactReport, n int, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("homog-cayley: %w", err)
	// Girth -1 certifies that no cycle up to 2R+2 = 4 exists.
	case rep.N != n || rep.Alpha != cayleyAlpha || rep.Alpha < rep.InnerBound || rep.TypeCount != cayleyTypes || (rep.Girth != -1 && rep.Girth <= 3):
		return fmt.Errorf("homog-cayley: N %d α %v (inner bound %v) types %d girth %d; want N %d α %v types %d girth > 3",
			rep.N, rep.Alpha, rep.InnerBound, rep.TypeCount, rep.Girth, n, cayleyAlpha, cayleyTypes)
	}
	return nil
}

// cayleyTraced makes the public calls HomogeneityExact makes, in the
// same order on the same inputs, each inside a span, and returns the
// same report plus the per-stage times.
func cayleyTraced(e *env, c *homog.Construction, m int) (*homog.ExactReport, map[string]time.Duration, error) {
	st := map[string]time.Duration{}
	tid := e.tr.newTrace()
	root := e.tr.begin("iter", -1, tid)
	defer e.tr.end(root)
	var err error
	var fam group.Family
	var tauBall *order.Ball
	var cay *group.Cayley
	st["homog.prepare"] = e.tr.timed("homog.prepare", root, tid, func() {
		if fam, err = group.NewFamily(c.Level, m); err != nil {
			return
		}
		if tauBall, err = c.TauStarBall(); err != nil {
			return
		}
		cay, err = c.HCayley(m)
	})
	if err != nil {
		return nil, nil, err
	}
	n := int(fam.Order().Int64())
	in := order.NewInterner()
	var elems []group.Elem
	var nodes []string
	st["group.enumerate"] = e.tr.timed("group.enumerate", root, tid, func() {
		tauBall = in.Canon(tauBall)
		elems = make([]group.Elem, n)
		nodes = make([]string, n)
		x := make(group.Elem, fam.Dim())
		for i := 0; i < n; i++ {
			elems[i] = append(group.Elem(nil), x...)
			nodes[i] = cay.Node(elems[i])
			for j := 0; j < len(x); j++ {
				x[j]++
				if x[j] < m {
					break
				}
				x[j] = 0
			}
		}
	})
	var md *digraph.Digraph
	var mNodes []string
	st["digraph.materialize"] = e.tr.timed("digraph.materialize", root, tid, func() {
		md, mNodes, _, err = digraph.Materialize[string](cay, nodes, n)
	})
	if err != nil {
		return nil, nil, err
	}
	var und *graph.Graph
	st["digraph.underlying"] = e.tr.timed("digraph.underlying", root, tid, func() { und, err = md.Underlying() })
	if err != nil {
		return nil, nil, err
	}
	var rank order.Rank
	st["group.rank"] = e.tr.timed("group.rank", root, tid, func() {
		mElems := make([]group.Elem, len(mNodes))
		for i, s := range mNodes {
			mElems[i] = cay.Elem(s)
		}
		u := group.U(c.Level)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		sort.Slice(perm, func(a, b int) bool { return u.Less(mElems[perm[a]], mElems[perm[b]]) })
		rank = make(order.Rank, n)
		for pos, v := range perm {
			rank[v] = pos
		}
	})
	var hm order.Homogeneity
	st["order.sweep"] = e.tr.timed("order.sweep", root, tid, func() { hm = order.SweepMeasureInto(in, und, rank, c.R) })
	var girth int
	st["digraph.girth"] = e.tr.timed("digraph.girth", root, tid, func() {
		girth = digraph.UndirectedGirth[string](cay, []string{cay.Node(fam.Identity())}, 2*c.R+2)
	})
	return &homog.ExactReport{
		M: m, N: n, TauCount: hm.Counts[tauBall], Alpha: float64(hm.Counts[tauBall]) / float64(n),
		InnerBound: c.InnerFraction(m), TypeCount: len(hm.Counts), Girth: girth,
	}, st, nil
}

// internProbe measures the interner's insert path on
// random-regular:d=3,n=probeN,seed=<seed> at radius probeRmax: cold
// sweeps on a fresh interner, warm sweeps on the same interner (every
// probe hits) and warm sweeps at par 1. It runs after the traced
// passes under its own root span, so its time is in no iteration
// total; the order, intern, par and host rows come from it.
func internProbe(e *env) error {
	root := e.tr.begin("probe", -1, e.tr.newTrace())
	defer e.tr.end(root)
	desc := fmt.Sprintf("random-regular:d=3,n=%d,seed=%d", probeN, e.seed)
	var h *host.Host
	var err error
	build := e.tr.timed("host.build", root, 0, func() { h, err = host.Parse(desc) })
	if err != nil {
		return err
	}
	e.rep.add("layer", "host.build_s", build.Seconds(), "s", 1, desc)
	g := h.G
	rank := order.Identity(g.N())
	var cold, warm, warm1 durations
	var types int
	for i := 0; i < probeReps && e.ctx.Err() == nil; i++ {
		runtime.GC()
		in := order.NewInterner()
		var homs, again, seq []order.Homogeneity
		cold = append(cold, e.tr.timed("order.sweep_cold", root, 0, func() { homs = order.SweepMeasureAllInto(in, g, rank, probeRmax) }))
		warm = append(warm, e.tr.timed("order.sweep_warm", root, 0, func() { again = order.SweepMeasureAllInto(in, g, rank, probeRmax) }))
		prev := par.Set(1)
		warm1 = append(warm1, e.tr.timed("order.sweep_warm_p1", root, 0, func() { seq = order.SweepMeasureAllInto(in, g, rank, probeRmax) }))
		par.Set(prev)
		e.rep.op(checkSweep(homs, g.N()))
		e.rep.op(sameCounts(homs, again, "warm pass"))
		e.rep.op(sameCounts(homs, seq, "par 1 pass"))
		types = internedTypes(homs)
	}
	e.rep.op(checkReference(e.seed))
	e.rep.add("layer", "order.sweep_cold_s", cold.median().Seconds(), "s", len(cold), "fresh interner, "+desc)
	e.rep.add("layer", "order.sweep_warm_s", warm.median().Seconds(), "s", len(warm), "same interner, every probe hits")
	e.rep.add("layer", "intern.miss_s", (cold.median() - warm.median()).Seconds(), "s", len(cold), "cold - warm")
	e.rep.add("layer", "intern.types", float64(types), "count", 1, "distinct interned types = inserts")
	probes := g.N() * probeRmax
	e.rep.add("layer", "intern.hit_ratio", 1-float64(types)/float64(probes), "ratio", 1,
		fmt.Sprintf("computed: 1 - types / (n x rmax = %d canonical balls)", probes))
	e.rep.add("layer", "par.sweep_speedup", warm1.median().Seconds()/warm.median().Seconds(), "ratio", len(warm),
		fmt.Sprintf("warm sweep at par 1 / par %d", par.N()))
	return nil
}

// checkSweep checks one layered sweep: at every radius the type counts
// sum to n and the majority is the largest count.
func checkSweep(homs []order.Homogeneity, n int) error {
	if len(homs) != probeRmax {
		return fmt.Errorf("intern probe: %d radii, want %d", len(homs), probeRmax)
	}
	for r, hm := range homs {
		sum, most := 0, 0
		for _, c := range hm.Counts {
			sum += c
			most = max(most, c)
		}
		if sum != n || hm.N != n || hm.Count != most || hm.Alpha != float64(most)/float64(n) {
			return fmt.Errorf("intern probe: radius %d counts sum to %d (n %d), majority %d of max %d, α %v",
				r+1, sum, n, hm.Count, most, hm.Alpha)
		}
	}
	return nil
}

// sameCounts checks that two sweeps through one interner tallied the
// same types with the same counts.
func sameCounts(a, b []order.Homogeneity, what string) error {
	for r := range a {
		if !maps.Equal(a[r].Counts, b[r].Counts) {
			return fmt.Errorf("intern probe: %s differs from the cold pass at radius %d", what, r+1)
		}
	}
	return nil
}

// internedTypes counts the distinct canonical balls over all radii:
// every one was inserted into the interner exactly once.
func internedTypes(homs []order.Homogeneity) int {
	seen := map[*order.Ball]bool{}
	for _, hm := range homs {
		for b := range hm.Counts {
			seen[b] = true
		}
	}
	return len(seen)
}

// checkReference holds the radius-1 sweep of the workload's host family
// to order.MeasureReference, on a twin small enough for the reference.
func checkReference(seed int64) error {
	h, err := host.Parse(fmt.Sprintf("random-regular:d=3,n=%d,seed=%d", probeTwinN, seed))
	if err != nil {
		return err
	}
	rank := order.Identity(h.G.N())
	ref := order.MeasureReference(h.G, rank, 1)
	got := order.SweepMeasureAll(h.G, rank, 1)[0]
	byType := func(hm order.Homogeneity) map[string]int {
		m := map[string]int{}
		for b, c := range hm.Counts {
			m[b.Encode()] += c
		}
		return m
	}
	if got.Alpha != ref.Alpha || got.Count != ref.Count || !maps.Equal(byType(got), byType(ref)) {
		return fmt.Errorf("intern probe: radius-1 sweep differs from MeasureReference on n=%d (α %v vs %v, %d vs %d types)",
			probeTwinN, got.Alpha, ref.Alpha, len(got.Counts), len(ref.Counts))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
