package order

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/host"
	"repro/internal/par"
)

// sweepHosts are the hosts the sweep engine is held to the reference
// measurement on: fixed small graphs, a torus, a random-regular graph
// and a materialised Cayley graph of the paper's groups.
func sweepHosts(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	hosts := map[string]*graph.Graph{
		"petersen": graph.Petersen(),
		"torus6":   graph.Torus(6, 6),
	}
	rng := rand.New(rand.NewSource(7))
	hosts["rr3-48"] = graph.RandomRegular(48, 3, rng)
	hosts["cayley"] = host.MustParse("cayley:H,level=2,m=4,k=2,seed=1").G
	return hosts
}

// TestSweepMeasureDifferential holds SweepMeasure to the retained
// per-vertex reference: identical Homogeneity and — through a shared
// interner — identical interned *Ball pointers, on every host and
// radius.
func TestSweepMeasureDifferential(t *testing.T) {
	for name, g := range sweepHosts(t) {
		rank := Identity(g.N())
		for r := 0; r <= 2; r++ {
			in := NewInterner()
			ref := measureReferenceInto(in, g, rank, r)
			got := SweepMeasureInto(in, g, rank, r)
			if got.Alpha != ref.Alpha || got.Count != ref.Count || got.N != ref.N {
				t.Errorf("%s r=%d: sweep (α=%v c=%d) != reference (α=%v c=%d)",
					name, r, got.Alpha, got.Count, ref.Alpha, ref.Count)
			}
			if got.Majority != ref.Majority {
				t.Errorf("%s r=%d: majority ball pointers differ", name, r)
			}
			if got.Type != ref.Type {
				t.Errorf("%s r=%d: majority type %q != %q", name, r, got.Type, ref.Type)
			}
			if len(got.Counts) != len(ref.Counts) {
				t.Fatalf("%s r=%d: %d types != %d types", name, r, len(got.Counts), len(ref.Counts))
			}
			for b, c := range ref.Counts {
				if got.Counts[b] != c {
					t.Errorf("%s r=%d: count of %p: %d != %d", name, r, b, got.Counts[b], c)
				}
			}
		}
	}
}

// TestSweeperMatchesCanonicalBall pins the per-vertex contract: a
// sweeper extraction is pointer-identical to interning the reference
// CanonicalBall, and the scratch verts slice names the same host
// vertices as CanonicalBallVerts.
func TestSweeperMatchesCanonicalBall(t *testing.T) {
	for name, g := range sweepHosts(t) {
		rank := Identity(g.N())
		in := NewInterner()
		s := NewSweeper()
		for r := 0; r <= 2; r++ {
			for v := 0; v < g.N(); v++ {
				refBall, refVerts := CanonicalBallVerts(g, rank, v, r)
				ref := in.Canon(refBall)
				got, verts := s.CanonicalBallVerts(g, rank, v, r, in)
				if got != ref {
					t.Fatalf("%s v=%d r=%d: sweeper ball %p != interned reference %p", name, v, r, got, ref)
				}
				if len(verts) != len(refVerts) {
					t.Fatalf("%s v=%d r=%d: %d verts != %d", name, v, r, len(verts), len(refVerts))
				}
				for i := range verts {
					if verts[i] != refVerts[i] {
						t.Fatalf("%s v=%d r=%d: verts[%d]=%d != %d", name, v, r, i, verts[i], refVerts[i])
					}
				}
			}
		}
	}
}

// TestSweepMeasureParallelism reuses one engine configuration across
// parallelism levels 1 and 8: results must be identical, and under
// -race the worker-local sweeper pool of par.ForScratch must be clean.
func TestSweepMeasureParallelism(t *testing.T) {
	g := graph.Torus(8, 8)
	rank := Identity(g.N())
	defer par.Set(par.Set(1))
	seq := SweepMeasure(g, rank, 2)
	par.Set(8)
	conc := SweepMeasure(g, rank, 2)
	if seq.Alpha != conc.Alpha || seq.Count != conc.Count || seq.Type != conc.Type || len(seq.Counts) != len(conc.Counts) {
		t.Errorf("parallelism changed the measurement: %+v vs %+v", seq, conc)
	}
	// One shared interner + one sweeper per worker, driven directly.
	in := NewInterner()
	balls := make([]*Ball, g.N())
	par.ForScratch(g.N(), NewSweeper, func(v int, s *Sweeper) {
		balls[v] = s.CanonicalBall(g, rank, v, 2, in)
	})
	for v, b := range balls {
		if b == nil {
			t.Fatalf("vertex %d: nil ball from pooled sweep", v)
		}
	}
}

// layeredHosts are the hosts the layered multi-radius sweep is held
// to the per-radius engine on: the sweepHosts set plus the 24×24
// torus the acceptance benchmark runs on.
func layeredHosts(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	hosts := sweepHosts(t)
	hosts["torus24"] = graph.Torus(24, 24)
	return hosts
}

// TestSweepMeasureAllDifferential holds the layered single-pass
// measurement to the per-radius engine: through a shared interner,
// SweepMeasureAll(g, rank, rmax)[r-1] must carry the pointer-identical
// majority *Ball and the identical count multiset (same interned
// keys) as SweepMeasure at radius r — on every host, at parallelism
// 1 and 8 (the latter exercising the worker-local tally merge and,
// under -race, the lock-free interner reads).
func TestSweepMeasureAllDifferential(t *testing.T) {
	const rmax = 3
	for name, g := range layeredHosts(t) {
		rank := Identity(g.N())
		for _, p := range []int{1, 8} {
			defer par.Set(par.Set(p))
			in := NewInterner()
			refs := make([]Homogeneity, rmax)
			for r := 1; r <= rmax; r++ {
				refs[r-1] = SweepMeasureInto(in, g, rank, r)
			}
			all := SweepMeasureAllInto(in, g, rank, rmax)
			if len(all) != rmax {
				t.Fatalf("%s p=%d: SweepMeasureAll returned %d radii, want %d", name, p, len(all), rmax)
			}
			for r := 1; r <= rmax; r++ {
				sameHomogeneity(t, fmt.Sprintf("%s p=%d r=%d", name, p, r), all[r-1], refs[r-1])
			}
		}
	}
}

// sameHomogeneity requires a layered result to equal the per-radius
// one: the pointer-identical majority, the same α, count and type, and
// the same count for every interned ball.
func sameHomogeneity(t *testing.T, at string, got, ref Homogeneity) {
	t.Helper()
	if got.Majority != ref.Majority {
		t.Errorf("%s: majority ball pointers differ", at)
	}
	if got.Alpha != ref.Alpha || got.Count != ref.Count || got.N != ref.N || got.Type != ref.Type {
		t.Errorf("%s: layered (α=%v c=%d %q) != per-radius (α=%v c=%d %q)",
			at, got.Alpha, got.Count, got.Type, ref.Alpha, ref.Count, ref.Type)
	}
	if len(got.Counts) != len(ref.Counts) {
		t.Fatalf("%s: %d types != %d types", at, len(got.Counts), len(ref.Counts))
	}
	for b, c := range ref.Counts {
		if got.Counts[b] != c {
			t.Errorf("%s: count of %p: %d != %d", at, b, got.Counts[b], c)
		}
	}
}

// TestSweepMeasureAllFullBundleCache: on a host with more layered
// structures than maxBundles, the one sequential sweeper fills its
// cache, so its tally mixes per-bundle counts with the per-radius map
// counts of the vertices that missed the full cache. Both must add up
// to the per-radius engine's counts.
func TestSweepMeasureAllFullBundleCache(t *testing.T) {
	defer par.Set(par.Set(1))
	const rmax = 2
	g := graph.RandomRegular(3*maxBundles/2, 3, rand.New(rand.NewSource(22)))
	rank := Identity(g.N())
	in := NewInterner()
	all := SweepMeasureAllInto(in, g, rank, rmax)
	s, filled := NewSweeper(), false
	for v := 0; v < g.N() && !filled; v++ {
		s.CanonicalBalls(g, rank, v, rmax, in)
		filled = s.nbund == maxBundles
	}
	if !filled {
		t.Fatalf("the host filled only %d of %d bundle slots", s.nbund, maxBundles)
	}
	for r := 1; r <= rmax; r++ {
		sameHomogeneity(t, fmt.Sprintf("r=%d", r), all[r-1], SweepMeasureInto(in, g, rank, r))
	}
}

// TestCanonicalBallsMatchesCanonicalBall pins the per-vertex layered
// contract: each layer of one CanonicalBalls extraction is
// pointer-identical to the corresponding single-radius CanonicalBall
// through a shared interner — including after the host changes under
// the same sweeper (the structural bundle cache must carry over
// safely) and for rmax exceeding the host's eccentricity.
func TestCanonicalBallsMatchesCanonicalBall(t *testing.T) {
	in := NewInterner()
	s := NewSweeper()
	single := NewSweeper()
	for name, g := range layeredHosts(t) {
		rank := Identity(g.N())
		for v := 0; v < g.N(); v++ {
			const rmax = 3
			balls := s.CanonicalBalls(g, rank, v, rmax, in)
			if len(balls) != rmax {
				t.Fatalf("%s v=%d: %d layers, want %d", name, v, len(balls), rmax)
			}
			for r := 1; r <= rmax; r++ {
				if ref := single.CanonicalBall(g, rank, v, r, in); balls[r-1] != ref {
					t.Fatalf("%s v=%d r=%d: layered ball %p != single-radius %p", name, v, r, balls[r-1], ref)
				}
			}
		}
	}
	// rmax beyond the eccentricity: layers stop growing but must stay
	// correct.
	g := graph.Petersen() // diameter 2
	rank := Identity(g.N())
	balls := s.CanonicalBalls(g, rank, 0, 5, in)
	for r := 1; r <= 5; r++ {
		if ref := single.CanonicalBall(g, rank, 0, r, in); balls[r-1] != ref {
			t.Fatalf("petersen r=%d beyond eccentricity: layered %p != single %p", r, balls[r-1], ref)
		}
	}
	if got := s.CanonicalBalls(g, rank, 0, 0, in); got != nil {
		t.Fatalf("rmax=0 should yield nil, got %d layers", len(got))
	}
}

// TestCanonicalBallsInternerSwitch: the worker-local bundle cache
// stores *Ball pointers belonging to one interner, so handing the
// same sweeper a different interner must not leak the old
// representatives.
func TestCanonicalBallsInternerSwitch(t *testing.T) {
	g := graph.Torus(6, 6)
	rank := Identity(g.N())
	s := NewSweeper()
	inA := NewInterner()
	a := s.CanonicalBalls(g, rank, 0, 2, inA)
	inB := NewInterner()
	b := s.CanonicalBalls(g, rank, 0, 2, inB)
	if a[0] == b[0] || a[1] == b[1] {
		t.Fatal("bundle cache leaked representatives across interners")
	}
	if ref := NewSweeper().CanonicalBall(g, rank, 0, 2, inB); b[1] != ref {
		t.Fatal("post-switch layered ball is not interned in the new interner")
	}
}

// TestCanonicalBallsZeroAllocOnHit: once every layered structure is
// in the worker-local bundle cache, a multi-radius extraction
// allocates nothing — the layered analogue of the single-radius
// zero-alloc promise.
func TestCanonicalBallsZeroAllocOnHit(t *testing.T) {
	g := graph.Torus(8, 8)
	rank := Identity(g.N())
	in := NewInterner()
	s := NewSweeper()
	for v := 0; v < g.N(); v++ {
		s.CanonicalBalls(g, rank, v, 3, in) // register every bundle
	}
	v := 0
	allocs := testing.AllocsPerRun(200, func() {
		s.CanonicalBalls(g, rank, v, 3, in)
		v = (v + 1) % g.N()
	})
	if allocs != 0 {
		t.Errorf("bundle-hit layered extraction allocates %v times, want 0", allocs)
	}
}

// TestSweeperZeroAllocOnHit asserts the engine's core promise: an
// extraction that resolves to an already-interned type allocates
// nothing.
func TestSweeperZeroAllocOnHit(t *testing.T) {
	g := graph.Torus(8, 8)
	rank := Identity(g.N())
	in := NewInterner()
	s := NewSweeper()
	for v := 0; v < g.N(); v++ {
		s.CanonicalBall(g, rank, v, 2, in) // register every type
	}
	v := 0
	allocs := testing.AllocsPerRun(200, func() {
		s.CanonicalBall(g, rank, v, 2, in)
		v = (v + 1) % g.N()
	})
	if allocs != 0 {
		t.Errorf("interner-hit extraction allocates %v times, want 0", allocs)
	}
}

// TestTypeHashIncremental pins the incremental hash (typeHashBegin /
// typeHashEdge, the during-assembly form the sweeper uses) to the
// whole-ball hashType spelling.
func TestTypeHashIncremental(t *testing.T) {
	g := graph.Torus(6, 6)
	rank := Identity(g.N())
	for v := 0; v < g.N(); v++ {
		b := CanonicalBall(g, rank, v, 2)
		h := typeHashBegin(b.G.N(), b.Root)
		for u := 0; u < b.G.N(); u++ {
			for _, w := range b.G.Neighbors(u) {
				if int32(u) < w {
					h = typeHashEdge(h, u, int(w))
				}
			}
		}
		if got := b.hashType(); got != h {
			t.Fatalf("v=%d: incremental hash %x != hashType %x", v, h, got)
		}
	}
}

// TestCanonScratchCollision forces two structurally distinct balls
// into the same hash bucket: the interner must keep them apart via the
// structural comparison (hash equal ⇒ sameType checked) and keep
// resolving each scratch form to its own representative.
func TestCanonScratchCollision(t *testing.T) {
	in := NewInterner()
	const h = uint64(0xdecafbadc0ffee) // same forced hash for both
	// The one-edge ball rooted at 0 and the same ball rooted at 1.
	off := []int32{0, 1, 2}
	nbr := []int32{1, 0}
	a := in.canonScratch(h, 0, off, nbr)
	b := in.canonScratch(h, 1, off, nbr)
	if a == b {
		t.Fatal("balls with different roots interned to one representative under a forced hash collision")
	}
	if a.Root != 0 || b.Root != 1 || a.G.N() != 2 || b.G.N() != 2 {
		t.Fatalf("copy-on-miss mangled the balls: a=%+v b=%+v", a, b)
	}
	if got := in.canonScratch(h, 0, off, nbr); got != a {
		t.Error("re-probing the first colliding ball lost its representative")
	}
	if got := in.canonScratch(h, 1, off, nbr); got != b {
		t.Error("re-probing the second colliding ball lost its representative")
	}
	// The representatives own copies: mutating the scratch afterwards
	// must not reach them.
	nbr[0], nbr[1] = 0, 1
	if a.G.Neighbors(0)[0] != 1 || a.G.Neighbors(1)[0] != 0 {
		t.Error("interned ball aliases caller scratch")
	}
}
