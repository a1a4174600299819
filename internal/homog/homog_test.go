package homog

import (
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/par"
	"repro/internal/view"
)

// mustSearch finds a construction or fails the test.
func mustSearch(t *testing.T, k, r int) *Construction {
	t.Helper()
	c, err := Search(k, r, SearchOptions{Seed: 42})
	if err != nil {
		t.Fatalf("Search(k=%d, r=%d): %v", k, r, err)
	}
	return c
}

func TestSearchFindsConstruction(t *testing.T) {
	for _, tc := range []struct{ k, r int }{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}} {
		c, err := Search(tc.k, tc.r, SearchOptions{Seed: 1})
		if err != nil {
			t.Errorf("k=%d r=%d: %v", tc.k, tc.r, err)
			continue
		}
		if len(c.Gens) != tc.k {
			t.Errorf("k=%d r=%d: got %d generators", tc.k, tc.r, len(c.Gens))
		}
		if _, err := c.CertifiedGirthFloor(); err != nil {
			t.Errorf("k=%d r=%d: certificate: %v", tc.k, tc.r, err)
		}
	}
}

func TestSearchRejectsBadParams(t *testing.T) {
	if _, err := Search(0, 1, SearchOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Search(1, -1, SearchOptions{}); err == nil {
		t.Error("r=-1 accepted")
	}
}

func TestTauStarIsCompleteOrderedTree(t *testing.T) {
	c := mustSearch(t, 2, 2)
	ot, err := c.TauStar()
	if err != nil {
		t.Fatal(err)
	}
	if !view.Equal(ot.Tree, view.Complete(2, 2)) {
		t.Error("τ* tree is not T*(2,2)")
	}
	if err := ot.Validate(); err != nil {
		t.Errorf("τ* order invalid: %v", err)
	}
	if got, want := ot.Tree.Size(), 17; got != want {
		t.Errorf("|T*| = %d, want %d", got, want)
	}
}

func TestTauStarIndependentOfM(t *testing.T) {
	// Theorem 3.2(1): the homogeneity type does not depend on ε (hence
	// not on m): interior vertices of H(m) have type τ* for every
	// admissible m.
	c := mustSearch(t, 2, 1)
	tau, err := c.TauStarBallEncoding()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{6, 8, 10} {
		// The all-(m/2) vertex is interior for m >= 2R+2.
		e := make(group.Elem, group.U(c.Level).Dim())
		for i := range e {
			e[i] = m / 2
		}
		typ, err := c.TypeAt(m, e)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if typ != tau {
			t.Errorf("m=%d: interior type differs from τ*", m)
		}
	}
}

func TestUIsFullyHomogeneous(t *testing.T) {
	// Property (P1)-(P3): (U, <) is (1, r)-homogeneous — every element
	// has ordered type τ* (left-invariance + vertex-transitivity).
	c := mustSearch(t, 2, 1)
	tau, err := c.TauStarBallEncoding()
	if err != nil {
		t.Fatal(err)
	}
	u := group.U(c.Level)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 12; i++ {
		e := u.RandSmall(rng, 20)
		typ, err := c.TypeAt(0, e)
		if err != nil {
			t.Fatal(err)
		}
		if typ != tau {
			t.Errorf("element %v of U has type != τ*", e)
		}
	}
}

func TestInnerFractionAndMForEpsilon(t *testing.T) {
	c := mustSearch(t, 1, 1)
	if f := c.InnerFraction(2); f != 0 {
		t.Errorf("m <= 2R should give 0, got %v", f)
	}
	m := c.MForEpsilon(0.5)
	if m%2 != 0 {
		t.Error("m must be even")
	}
	if c.InnerFraction(m) < 0.5 {
		t.Error("MForEpsilon does not satisfy its own bound")
	}
	if m > 2 && c.InnerFraction(m-2) >= 0.5 {
		t.Error("MForEpsilon is not minimal")
	}
}

func TestHomogeneityExactSmall(t *testing.T) {
	// Full-scan verification of Theorem 3.2 on a materialisable
	// instance: every vertex classified, α must meet the analytic
	// interior bound, girth must exceed 2R+1, and the graph must be
	// 2k-regular (automatic for Cayley graphs; checked on the rows of
	// the scanned host). The seed-42 construction is at level 3, so
	// m = 4 keeps the scan at 4^7 = 16,384 vertices.
	c := mustSearch(t, 2, 1)
	m := 4
	rep, err := c.HomogeneityExact(m, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != pow(m, group.U(c.Level).Dim()) {
		t.Errorf("N = %d", rep.N)
	}
	if rep.Alpha < rep.InnerBound {
		t.Errorf("measured α=%v below analytic bound %v", rep.Alpha, rep.InnerBound)
	}
	if rep.Girth != -1 && rep.Girth <= 2*c.R+1 {
		t.Errorf("girth %d <= 2R+1", rep.Girth)
	}
	if rep.TauCount <= 0 || rep.TauCount > rep.N {
		t.Errorf("τ count %d out of range", rep.TauCount)
	}
	cay, err := c.HCayley(m)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := cay.OrderedHost()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != rep.N {
		t.Fatalf("OrderedHost has %d vertices, the scan %d", g.N(), rep.N)
	}
	for v := 0; v < g.N(); v++ {
		if d := len(g.Neighbors(v)); d != 2*c.K {
			t.Fatalf("vertex %d has %d neighbours, want 2K = %d", v, d, 2*c.K)
		}
	}
}

func TestHomogeneityExactAlphaImprovesWithM(t *testing.T) {
	c := mustSearch(t, 1, 1)
	if c.Level > 3 {
		t.Skipf("level %d too large", c.Level)
	}
	var prev float64 = -1
	for _, m := range []int{4, 8, 16} {
		rep, err := c.HomogeneityExact(m, 1<<21)
		if err != nil {
			t.Skipf("scan too large at m=%d: %v", m, err)
		}
		if rep.Alpha < prev-0.05 {
			t.Errorf("α decreased sharply: m=%d α=%v prev=%v", m, rep.Alpha, prev)
		}
		prev = rep.Alpha
	}
}

func TestHomogeneitySample(t *testing.T) {
	c := mustSearch(t, 2, 2)
	rng := rand.New(rand.NewSource(3))
	m := c.MForEpsilon(0.25)
	rep, err := c.HomogeneitySample(m, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.InteriorAllTau {
		t.Error("an interior vertex had type != τ* — contradicts Section 5.2")
	}
	// The estimate should be in the right ballpark of the bound; allow
	// generous sampling slack.
	if rep.Alpha < rep.InnerBound-0.3 {
		t.Errorf("sampled α=%v far below bound %v", rep.Alpha, rep.InnerBound)
	}
}

func TestHCayleyGirthInheritance(t *testing.T) {
	// Girth of C(H(m), S) through the identity must exceed 2R+1 — the
	// homomorphism argument in code.
	c := mustSearch(t, 2, 2)
	cay, err := c.HCayley(c.MForEpsilon(0.5))
	if err != nil {
		t.Fatal(err)
	}
	id := cay.Node(group.H(c.Level, c.MForEpsilon(0.5)).Identity())
	if g := digraph.UndirectedGirth[string](cay, []string{id}, 2*c.R+1); g != -1 {
		t.Errorf("found cycle of length %d <= 2R+1 in C(H, S)", g)
	}
}

func TestHomogeneityExactRejectsHuge(t *testing.T) {
	c := mustSearch(t, 2, 1)
	if _, err := c.HomogeneityExact(100, 1000); err == nil {
		t.Error("oversized scan accepted")
	}
}

// TestHomogeneityExactRejectsPastFlatCapacity: a scan budget past the
// int32 CSR capacity must not reach the build. At level 2, m = 1300
// gives 1300^3 > 2^31 − 1 vertices; the error must name the capacity
// and come before any per-vertex allocation.
func TestHomogeneityExactRejectsPastFlatCapacity(t *testing.T) {
	c := mustSearch(t, 1, 1)
	if c.Level != 2 {
		t.Fatalf("construction at level %d, want 2", c.Level)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.HomogeneityExact(1300, 1<<62)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(graph.FlatCapacity)) {
		t.Fatalf("HomogeneityExact(1300, 1<<62) = %v, want an error naming the capacity %d", err, graph.FlatCapacity)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("rejection allocated %d bytes", got)
	}
}

// TestHomogeneityExactAllocsFlatInM pins the integer build: the
// per-pass allocation count does not grow with the number of vertices
// (a pass at m = 32 has 8x the vertices of one at m = 16).
func TestHomogeneityExactAllocsFlatInM(t *testing.T) {
	c := mustSearch(t, 1, 1)
	old := par.Set(1)
	defer par.Set(old)
	allocs := func(m int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := c.HomogeneityExact(m, 1<<15); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(32)
	if large > small+16 {
		t.Errorf("a pass allocates %v objects at m=32 against %v at m=16", large, small)
	}
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

func TestTauStarLevelFour(t *testing.T) {
	// k=2, r=2 lands at level 4 (tuples of 15 coordinates); τ* is still
	// cheap to extract because only the radius-2 ball of U is touched.
	c := mustSearch(t, 2, 2)
	ot, err := c.TauStar()
	if err != nil {
		t.Fatal(err)
	}
	if !view.Equal(ot.Tree, view.Complete(2, 2)) {
		t.Error("τ* tree is not T*(2,2)")
	}
	if got, want := ot.Tree.Size(), 17; got != want {
		t.Errorf("|T*| = %d, want %d", got, want)
	}
	if err := ot.Validate(); err != nil {
		t.Errorf("τ* order invalid: %v", err)
	}
}

func TestGensAreDistinctAcrossReductions(t *testing.T) {
	// Generators found in W must stay distinct when reinterpreted in
	// H(m) for every even m (otherwise the Cayley graph would degenerate).
	c := mustSearch(t, 2, 1)
	for _, m := range []int{2, 4, 6} {
		if _, err := c.HCayley(m); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}
	}
}

// TestHomogeneityExactRadiusZero: at R = 0 every ball is the lone
// centre, so the scan (which the layered sweep cannot serve, its
// radii start at 1) finds one type on every vertex.
func TestHomogeneityExactRadiusZero(t *testing.T) {
	c := mustSearch(t, 1, 0)
	rep, err := c.HomogeneityExact(4, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TypeCount != 1 || rep.TauCount != rep.N || rep.Alpha != 1 {
		t.Fatalf("R=0 scan: %+v, want one type on all %d vertices", rep, rep.N)
	}
}
