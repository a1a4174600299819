package group

import (
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/digraph"
)

func TestFamilyValidation(t *testing.T) {
	if _, err := NewFamily(0, 2); err == nil {
		t.Error("level 0 accepted")
	}
	if _, err := NewFamily(2, 3); err == nil {
		t.Error("odd modulus accepted")
	}
	if _, err := NewFamily(2, 1); err == nil {
		t.Error("modulus 1 accepted")
	}
	for _, f := range []Family{U(1), U(4), W(3), H(2, 6)} {
		if f.Dim() != 1<<f.Level-1 {
			t.Errorf("%v: dim %d", f, f.Dim())
		}
	}
}

func TestOrderOfFamilies(t *testing.T) {
	if W(3).Order().Int64() != 128 {
		t.Errorf("|W_3| = %v, want 2^7 = 128", W(3).Order())
	}
	if H(2, 6).Order().Int64() != 216 {
		t.Errorf("|H_2(6)| = %v, want 6^3", H(2, 6).Order())
	}
	if U(2).Order() != nil {
		t.Error("U should be infinite")
	}
}

func TestIdentityAndNormalize(t *testing.T) {
	f := H(2, 4)
	id := f.Identity()
	if !f.IsIdentity(id) {
		t.Error("identity not identity")
	}
	a := Elem{-1, 5, 7}
	n := f.Normalize(a)
	want := Elem{3, 1, 3}
	if !n.Equal(want) {
		t.Errorf("normalize = %v, want %v", n, want)
	}
	if f.IsIdentity(Elem{4, 0, 0}) != true {
		t.Error("4 ≡ 0 mod 4")
	}
	// Every branch of the reduction: reduced, in [Mod, 2·Mod), past it
	// and negative.
	for x := -9; x <= 13; x++ {
		if got, want := f.Normalize(Elem{x, 0, 0})[0], (x%4+4)%4; got != want {
			t.Errorf("normalize(%d) mod 4 = %d, want %d", x, got, want)
		}
	}
	// Mul and Inv read the swap parity off the unreduced z, so
	// unreduced operands must give the products of their reductions.
	for _, ab := range [][2]Elem{{{-3, 9, -5}, {6, -1, -7}}, {{7, 4, -2}, {1, 2, 3}}, {{1, 6, 9}, {-4, 5, 0}}} {
		a, b := ab[0], ab[1]
		if got, want := f.Mul(a, b), f.Mul(f.Normalize(a), f.Normalize(b)); !got.Equal(want) {
			t.Errorf("%v·%v = %v, want %v", a, b, got, want)
		}
		if got, want := f.Inv(a), f.Inv(f.Normalize(a)); !got.Equal(want) {
			t.Errorf("%v⁻¹ = %v, want %v", a, got, want)
		}
	}
}

func TestMulSemidirectAction(t *testing.T) {
	// In W_2 = Z_2² ⋊ Z_2, (x,y|z)(x',y'|z') swaps (x',y') iff z odd.
	f := W(2)
	a := Elem{1, 0, 1} // z odd
	b := Elem{1, 0, 0}
	got := f.Mul(a, b)
	// a·b = (x+y', y+x' | z+z') = (1+0, 0+1 | 1) = (1,1,1).
	if !got.Equal(Elem{1, 1, 1}) {
		t.Errorf("W2 mul = %v, want (1,1,1)", got)
	}
	// With z even no swap: (0,1|0)(1,0|1) = (1,1|1).
	got = f.Mul(Elem{0, 1, 0}, Elem{1, 0, 1})
	if !got.Equal(Elem{1, 1, 1}) {
		t.Errorf("W2 mul = %v, want (1,1,1)", got)
	}
}

func TestNonAbelian(t *testing.T) {
	f := W(2)
	a := Elem{1, 0, 0}
	b := Elem{0, 0, 1}
	if f.Mul(a, b).Equal(f.Mul(b, a)) {
		t.Error("W_2 should be non-abelian")
	}
}

func randTriple(f Family, rng *rand.Rand) (a, b, c Elem) {
	if f.Finite() {
		return f.Rand(rng), f.Rand(rng), f.Rand(rng)
	}
	return f.RandSmall(rng, 5), f.RandSmall(rng, 5), f.RandSmall(rng, 5)
}

func TestQuickGroupAxioms(t *testing.T) {
	for _, f := range []Family{U(1), U(2), U(3), W(2), W(3), W(4), H(2, 6), H(3, 4)} {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				a, b, c := randTriple(f, rng)
				id := f.Identity()
				// Associativity.
				if !f.Mul(f.Mul(a, b), c).Equal(f.Mul(a, f.Mul(b, c))) {
					return false
				}
				// Identity laws.
				if !f.Mul(a, id).Equal(f.Normalize(a)) || !f.Mul(id, a).Equal(f.Normalize(a)) {
					return false
				}
				// Inverse laws.
				if !f.IsIdentity(f.Mul(a, f.Inv(a))) || !f.IsIdentity(f.Mul(f.Inv(a), a)) {
					return false
				}
				// Anti-homomorphism of inversion: (ab)^{-1} = b^{-1} a^{-1}.
				return f.Inv(f.Mul(a, b)).Equal(f.Mul(f.Inv(b), f.Inv(a)))
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestQuickReductionHomomorphisms(t *testing.T) {
	// ψ: U → H, φ': H → W, φ: U → W commute with multiplication and
	// with each other (the commuting diagram of Section 5.2).
	u, h, w := U(3), H(3, 6), W(3)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := u.RandSmall(rng, 7), u.RandSmall(rng, 7)
		// ψ is a homomorphism.
		pa, _ := u.Reduce(a, h)
		pb, _ := u.Reduce(b, h)
		pab, _ := u.Reduce(u.Mul(a, b), h)
		if !h.Mul(pa, pb).Equal(pab) {
			return false
		}
		// φ' is a homomorphism.
		wa, _ := h.Reduce(pa, w)
		wb, _ := h.Reduce(pb, w)
		wab, _ := h.Reduce(h.Mul(pa, pb), w)
		if !w.Mul(wa, wb).Equal(wab) {
			return false
		}
		// The diagram commutes: φ = φ' ∘ ψ.
		direct, _ := u.Reduce(a, w)
		return direct.Equal(wa)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	// H(3,6) -> W(3) requires 2 | 6: fine. H(3,6) -> H(3,4) must fail.
	if _, err := H(3, 6).Reduce(H(3, 6).Identity(), H(3, 4)); err == nil {
		t.Error("reduction with non-dividing modulus accepted")
	}
	if _, err := U(2).Reduce(U(2).Identity(), U(3)); err == nil {
		t.Error("cross-level reduction accepted")
	}
	if _, err := H(2, 4).Reduce(H(2, 4).Identity(), U(2)); err == nil {
		t.Error("reduction to infinite family accepted")
	}
}

func TestQuickOrderLaws(t *testing.T) {
	u := U(3)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randTriple(u, rng)
		// Totality: exactly one of a<b, b<a, a=b.
		lt, gt, eq := u.Less(a, b), u.Less(b, a), a.Equal(b)
		cnt := 0
		for _, x := range []bool{lt, gt, eq} {
			if x {
				cnt++
			}
		}
		if cnt != 1 {
			return false
		}
		// Left-invariance: a<b implies ca<cb.
		if lt && !u.Less(u.Mul(c, a), u.Mul(c, b)) {
			return false
		}
		// Transitivity.
		if u.Less(a, b) && u.Less(b, c) && !u.Less(a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPositiveCone(t *testing.T) {
	u := U(2)
	if !u.Positive(Elem{0, 0, 1}) || !u.Positive(Elem{-5, 3, 0}) {
		t.Error("positive cone wrong on positives")
	}
	if u.Positive(Elem{1, -1, 0}) || u.Positive(Elem{0, 0, 0}) || u.Positive(Elem{3, 0, -1}) {
		t.Error("positive cone wrong on non-positives")
	}
}

func TestNewCayleyValidation(t *testing.T) {
	f := W(2)
	if _, err := NewCayley(f, nil); err == nil {
		t.Error("empty generators accepted")
	}
	if _, err := NewCayley(f, []Elem{f.Identity()}); err == nil {
		t.Error("identity generator accepted")
	}
	if _, err := NewCayley(f, []Elem{{1, 0, 0}, {1, 0, 0}}); err == nil {
		t.Error("duplicate generators accepted")
	}
	if _, err := NewCayley(f, []Elem{{1, 0}}); err == nil {
		t.Error("wrong dimension accepted")
	}
	if _, err := NewCayley(f, []Elem{{1, 0, 0}, {0, 1, 0}}); err != nil {
		t.Error("valid generators rejected")
	}
}

// TestOrderedHostRejects: the integer build refuses what a simple CSR
// graph cannot hold (an involution's arc pair v·s = v·s⁻¹ is a
// parallel pair) and the infinite family.
func TestOrderedHostRejects(t *testing.T) {
	inv, err := NewCayley(W(2), []Elem{{1, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := inv.OrderedHost(); err == nil {
		t.Error("involution generator (parallel pair) accepted")
	}
	u, err := NewCayley(U(2), []Elem{{0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := u.OrderedHost(); err == nil {
		t.Error("infinite family accepted")
	}
}

// TestOrderedHostRowsMatchMul pins OrderedHost's swap-pattern rows
// against the products they replace: for H at levels 1–4 and m in
// {2, 4, 6, 64} (m = 2 is W) wherever |H| <= 300,000, and random
// generator sets with an odd top z-coordinate in the first generator,
// the row of vertex v must be the sorted index(Mul(e, s^{±1})) of the
// element e numbered v, and rank[v] must be urank(e). Hosts past 4,096
// vertices are checked on 2,000 sampled vertices.
func TestOrderedHostRowsMatchMul(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for level := 1; level <= 4; level++ {
		for _, m := range []int{2, 4, 6, 64} {
			f := H(level, m)
			if f.Order().Cmp(big.NewInt(300_000)) > 0 {
				continue
			}
			n := int(f.Order().Int64())
			for k := 1; k <= 3; k++ {
				gens := simpleGens(f, k, rng)
				if gens == nil {
					continue // too small a group for k generators
				}
				c, err := NewCayley(f, gens)
				if err != nil {
					t.Fatal(err)
				}
				g, rank, err := c.OrderedHost()
				if err != nil {
					t.Fatalf("%v S=%v: %v", f, gens, err)
				}
				for i := 0; i < min(n, 2000); i++ {
					v := i
					if n > 4096 {
						v = rng.Intn(n)
					}
					e := f.Identity()
					for j, x := 0, v; j < len(e); j, x = j+1, x/m {
						e[j] = x % m
					}
					var want []int32
					for _, s := range gens {
						want = append(want, int32(f.index(f.Mul(e, s))), int32(f.index(f.Mul(e, f.Inv(s)))))
					}
					slices.Sort(want)
					if got := g.Neighbors(v); !slices.Equal(got, want) {
						t.Fatalf("%v S=%v: row of %d (%v) = %v, want %v", f, gens, v, e, got, want)
					}
					if rank[v] != f.urank(e, level) {
						t.Fatalf("%v: rank[%d] = %d, want %d", f, v, rank[v], f.urank(e, level))
					}
				}
			}
		}
	}
}

// simpleGens draws k random generators of f whose 2k elements s^{±1}
// are distinct and not the identity, so C(f, S) is a simple graph; the
// first has an odd top z-coordinate at levels >= 2. It returns nil
// when 200 draws find no such set.
func simpleGens(f Family, k int, rng *rand.Rand) []Elem {
draw:
	for range 200 {
		var gens, seen []Elem
		for i := range k {
			s := f.Rand(rng)
			if i == 0 && f.Level > 1 && !odd(s[len(s)-1]) {
				s[len(s)-1]++
			}
			for _, x := range []Elem{s, f.Inv(s)} {
				if f.IsIdentity(x) || slices.ContainsFunc(seen, x.Equal) {
					continue draw
				}
				seen = append(seen, x)
			}
			gens = append(gens, s)
		}
		return gens
	}
	return nil
}

func TestCayleyArcsConsistent(t *testing.T) {
	f := W(3)
	rng := rand.New(rand.NewSource(5))
	c, err := NewCayley(f, []Elem{f.Rand(rng), f.Rand(rng)})
	if err != nil {
		t.Fatal(err)
	}
	v := c.Node(f.Rand(rng))
	for _, a := range c.Out(v) {
		found := false
		for _, back := range c.In(a.To) {
			if back.To == v && back.Label == a.Label {
				found = true
			}
		}
		if !found {
			t.Fatalf("out-arc %v of %s has no matching in-arc", a, v)
		}
	}
	if c.Alphabet() != 2 {
		t.Error("alphabet wrong")
	}
}

func TestEncodeDecodeElem(t *testing.T) {
	e := Elem{-3, 0, 12}
	s := EncodeElem(e)
	got, err := DecodeElem(s, 3)
	if err != nil || !got.Equal(e) {
		t.Errorf("roundtrip failed: %q -> %v, %v", s, got, err)
	}
	if _, err := DecodeElem("1,2", 3); err == nil {
		t.Error("wrong dim accepted")
	}
	if _, err := DecodeElem("1,x,3", 3); err == nil {
		t.Error("garbage accepted")
	}
}

func TestGirthCyclicGroup(t *testing.T) {
	// C(Z_m, {1}) is the directed m-cycle: girth m.
	f := H(1, 8)
	if g := f.GirthUpTo([]Elem{{1}}, 10); g != 8 {
		t.Errorf("Z_8 with {1}: girth %d, want 8", g)
	}
	// Generator of order 2: the word s·s has length 2.
	if g := f.GirthUpTo([]Elem{{4}}, 10); g != 2 {
		t.Errorf("Z_8 with {4}: girth %d, want 2", g)
	}
	// {2} generates a 4-cycle.
	if g := f.GirthUpTo([]Elem{{2}}, 10); g != 4 {
		t.Errorf("Z_8 with {2}: girth %d, want 4", g)
	}
	// Two commuting generators have the commutator 4-cycle.
	if g := f.GirthUpTo([]Elem{{1}, {3}}, 10); g != 4 {
		t.Errorf("Z_8 with {1,3}: girth %d, want 4", g)
	}
	// maxLen smaller than the girth: -1.
	if g := f.GirthUpTo([]Elem{{1}}, 5); g != -1 {
		t.Errorf("bounded search should miss the 8-cycle, got %d", g)
	}
}

func TestGirthMatchesMaterializedCayley(t *testing.T) {
	// Cross-check word-enumeration girth against the explicit
	// undirected girth of the materialised Cayley graph of W_2.
	f := W(2)
	gens := []Elem{{1, 0, 0}, {0, 0, 1}}
	c, err := NewCayley(f, gens)
	if err != nil {
		t.Fatal(err)
	}
	wordGirth := f.GirthUpTo(gens, 12)
	implicitGirth := digraph.UndirectedGirth[string](c, []string{c.Node(f.Identity())}, 12)
	if wordGirth != implicitGirth {
		t.Errorf("word girth %d != implicit graph girth %d", wordGirth, implicitGirth)
	}
}

func TestCayleyBallGrowth(t *testing.T) {
	// In U_j, balls grow polynomially (coordinates change by at most 1
	// per step), while the free-group bound is (2k)·(2k-1)^{r-1} per
	// shell. Check the containment B(1, r) ⊆ [-r, r]^d of eq. (2).
	u := U(2)
	rng := rand.New(rand.NewSource(9))
	gens := []Elem{u.RandSmall(rng, 1), u.RandSmall(rng, 1)}
	for i, g := range gens {
		if u.IsIdentity(g) {
			gens[i] = Elem{1, 0, 0}
		}
	}
	if gens[0].Equal(gens[1]) {
		gens[1] = Elem{0, 1, 0}
	}
	c, err := NewCayley(u, gens)
	if err != nil {
		t.Fatal(err)
	}
	r := 3
	ball := digraph.Ball[string](c, c.Node(u.Identity()), r)
	for _, node := range ball.Nodes {
		e := c.Elem(node)
		for _, x := range e {
			if x < -r || x > r {
				t.Fatalf("ball element %v outside [-%d,%d]^d", e, r, r)
			}
		}
	}
}

// TestURankMatchesLessSort pins the closed-form rank to its
// definition: sorting the cube [0, m)^d with U(level).Less puts every
// element at position urank, urank is a bijection onto [0, m^d), and
// index numbers the odometer enumeration 0, 1, 2, ….
func TestURankMatchesLessSort(t *testing.T) {
	for level := 1; level <= 3; level++ {
		for _, m := range []int{2, 4, 6} {
			h, u := H(level, m), U(level)
			n := int(h.Order().Int64())
			if n > 300_000 {
				continue
			}
			elems := make([]Elem, n)
			e := h.Identity()
			for i := range elems {
				elems[i] = e.Clone()
				for j := range e {
					if e[j]++; e[j] < m {
						break
					}
					e[j] = 0
				}
			}
			perm := make([]int, n)
			for i := range perm {
				perm[i] = i
			}
			sort.Slice(perm, func(a, b int) bool { return u.Less(elems[perm[a]], elems[perm[b]]) })
			seen := make([]bool, n)
			for i, e := range elems {
				if got := h.index(e); got != i {
					t.Fatalf("%v: index(%v) = %d, want odometer number %d", h, e, got, i)
				}
				r := h.urank(e, level)
				if r < 0 || r >= n || seen[r] {
					t.Fatalf("%v: urank(%v) = %d repeats or leaves [0, %d)", h, e, r, n)
				}
				seen[r] = true
			}
			for pos, i := range perm {
				if got := h.urank(elems[i], level); got != pos {
					t.Fatalf("%v: urank(%v) = %d, U.Less sort puts it at %d", h, elems[i], got, pos)
				}
			}
		}
	}
}
