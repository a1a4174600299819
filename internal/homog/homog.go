// Package homog implements the homogeneous-graph construction of
// Theorem 3.2 of the paper: for every k, r and ε > 0, a finite
// 2k-regular (1−ε, r)-homogeneous graph (H, <) of girth > 2r+1.
//
// The pipeline follows Section 5 exactly:
//
//  1. Search for a level i and a k-subset S ⊆ W_i such that the Cayley
//     graph C(W_i, S) has girth > 2r+1 (our constructive stand-in for
//     the probabilistic result of Gamburd et al.); girth is certified
//     by enumerating reduced words.
//  2. Interpret S inside U_i and H_i(m). Since reduction mod 2 is a
//     homomorphism, any short relation in U or H would project to one
//     in W, so C(U_i, S) and C(H_i(m), S) inherit the girth bound.
//  3. Order U by its left-invariant positive-cone order; the radius-r
//     ball of the identity in C(U_i, S) is the ordered complete tree
//     τ* = (T*, <*, λ) — the homogeneity type, independent of ε.
//  4. Restrict the order of U to the finite set Z_m^d underlying
//     H_i(m). Interior elements (coordinates in [r, m−1−r]) have
//     r-neighbourhood type τ*, so choosing m with
//     ((m−2r)/m)^d ≥ 1−ε yields (1−ε, r)-homogeneity.
package homog

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/digraph"
	"repro/internal/group"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/view"
)

// Construction is a certified choice of level and generators realising
// Theorem 3.2 for the parameters K and R.
type Construction struct {
	// K is the number of generators; the graphs are 2K-regular.
	K int
	// R is the locality radius; girth is certified to exceed 2R+1.
	R int
	// Level is the index i of the groups W_i, H_i, U_i.
	Level int
	// Gens are the generators: 0/1 tuples, elements of W_Level that are
	// reinterpreted inside H and U.
	Gens []group.Elem
	// Attempts is the number of random generator sets examined by the
	// search before this one was certified.
	Attempts int
}

// SearchOptions bound the randomised generator search.
type SearchOptions struct {
	// MaxLevel is the largest group level to try (default 9).
	MaxLevel int
	// TriesPerLevel is the number of random k-subsets per level
	// (default 400).
	TriesPerLevel int
	// Seed seeds the search's private RNG.
	Seed int64
}

func (o SearchOptions) withDefaults() SearchOptions {
	if o.MaxLevel == 0 {
		o.MaxLevel = 9
	}
	if o.TriesPerLevel == 0 {
		o.TriesPerLevel = 400
	}
	return o
}

// searchCache memoises Search results: the search is a pure function
// of (k, r, opts), re-requested with identical parameters by every
// experiment in the suite, so the certified construction is computed
// once per process. Cached constructions are shared — callers must not
// mutate Gens.
var searchCache sync.Map // searchKey -> *Construction

type searchKey struct {
	k, r int
	opts SearchOptions
}

// Search finds a construction for the given parameters: the smallest
// level at which a random k-subset of W_level spans a Cayley graph of
// girth > 2r+1, with the girth certified exactly by reduced-word
// enumeration (Theorem 5.1 stands in as an existence guarantee).
// Results are memoised per (k, r, opts).
func Search(k, r int, opts SearchOptions) (*Construction, error) {
	if k < 1 || r < 0 {
		return nil, fmt.Errorf("homog: bad parameters k=%d r=%d", k, r)
	}
	// Key on the defaulted options so the zero value and its explicit
	// spelling hit the same cache entry.
	key := searchKey{k: k, r: r, opts: opts.withDefaults()}
	if c, ok := searchCache.Load(key); ok {
		return c.(*Construction), nil
	}
	c, err := searchUncached(k, r, opts)
	if err != nil {
		return nil, err
	}
	if prev, loaded := searchCache.LoadOrStore(key, c); loaded {
		return prev.(*Construction), nil
	}
	return c, nil
}

func searchUncached(k, r int, opts SearchOptions) (*Construction, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	need := 2*r + 1
	attempts := 0
	for level := 2; level <= opts.MaxLevel; level++ {
		w := group.W(level)
		if w.Order().BitLen() <= k {
			continue // group too small to host k distinct non-identity elements
		}
		// Draw all candidate generator sets sequentially (so the RNG
		// stream is schedule-independent), then certify girth in
		// parallel blocks, taking the first success in draw order —
		// the same generators and attempt count the sequential search
		// reports, with early exit after the winning block.
		cands := make([][]group.Elem, 0, opts.TriesPerLevel)
		for try := 0; try < opts.TriesPerLevel; try++ {
			if gens := randomSubset(w, k, rng); gens != nil {
				cands = append(cands, gens)
			}
		}
		blk := 4 * par.N()
		for lo := 0; lo < len(cands); lo += blk {
			hi := lo + blk
			if hi > len(cands) {
				hi = len(cands)
			}
			ok := make([]bool, hi-lo)
			par.For(hi-lo, func(j int) {
				ok[j] = w.GirthUpTo(cands[lo+j], need) == -1
			})
			for j, good := range ok {
				if good {
					return &Construction{
						K: k, R: r, Level: level, Gens: cands[lo+j],
						Attempts: attempts + lo + j + 1,
					}, nil
				}
			}
		}
		attempts += len(cands)
	}
	return nil, fmt.Errorf("homog: no generator set with girth > %d found up to level %d", need, opts.MaxLevel)
}

// randomSubset picks k distinct non-identity elements of w.
func randomSubset(w group.Family, k int, rng *rand.Rand) []group.Elem {
	seen := map[string]bool{group.EncodeElem(w.Identity()): true}
	var gens []group.Elem
	for guard := 0; len(gens) < k; guard++ {
		if guard > 100*k {
			return nil
		}
		e := w.Rand(rng)
		key := group.EncodeElem(e)
		if seen[key] {
			continue
		}
		seen[key] = true
		gens = append(gens, e)
	}
	return gens
}

// CertifiedGirthFloor re-certifies that all three Cayley graphs have
// girth > 2R+1 by searching W for short relations (relations in U and
// H(m) project onto relations in W under the mod-2 homomorphism).
func (c *Construction) CertifiedGirthFloor() (int, error) {
	w := group.W(c.Level)
	if g := w.GirthUpTo(c.Gens, 2*c.R+1); g != -1 {
		return 0, fmt.Errorf("homog: construction has a relation of length %d <= %d", g, 2*c.R+1)
	}
	return 2*c.R + 2, nil
}

// UCayley returns the infinite ordered Cayley graph C(U_level, S) as an
// implicit digraph.
func (c *Construction) UCayley() *group.Cayley {
	cay, err := group.NewCayley(group.U(c.Level), c.Gens)
	if err != nil {
		panic(fmt.Sprintf("homog: invalid construction: %v", err))
	}
	return cay
}

// HCayley returns the finite Cayley graph C(H_level(m), S); m must be
// even and at least 2.
func (c *Construction) HCayley(m int) (*group.Cayley, error) {
	fam, err := group.NewFamily(c.Level, m)
	if err != nil {
		return nil, fmt.Errorf("homog: bad modulus: %w", err)
	}
	cay, err := group.NewCayley(fam, c.Gens)
	if err != nil {
		return nil, fmt.Errorf("homog: generators degenerate mod %d: %w", m, err)
	}
	return cay, nil
}

// LessH compares two elements of H (tuples with coordinates in [0, m))
// by the order of U restricted to Z_m^d, exactly as in Section 5.2:
// the elements are reinterpreted as integer tuples and compared in U.
func (c *Construction) LessH(a, b group.Elem) bool {
	return group.U(c.Level).Less(a, b)
}

// NodeLess compares two encoded Cayley nodes by the restricted U-order.
func (c *Construction) NodeLess(u, v string) bool {
	dim := group.U(c.Level).Dim()
	a, err := group.DecodeElem(u, dim)
	if err != nil {
		panic(fmt.Sprintf("homog: bad node %q: %v", u, err))
	}
	b, err := group.DecodeElem(v, dim)
	if err != nil {
		panic(fmt.Sprintf("homog: bad node %q: %v", v, err))
	}
	return c.LessH(a, b)
}

// TauStar computes the homogeneity type τ* = (T*, <*, λ): the ordered
// radius-R view of the identity in C(U, S). It verifies that the view
// is the complete tree (girth > 2R+1 makes the ball tree-like) and
// orders the walks by the U-order of their endpoints.
func (c *Construction) TauStar() (*order.OrderedTree, error) {
	u := group.U(c.Level)
	cay := c.UCayley()
	tree, endpoints := view.BuildWithEndpoints[string](cay, cay.Node(u.Identity()), c.R)
	complete := view.Complete(c.K, c.R)
	if !view.Equal(tree, complete) {
		return nil, fmt.Errorf("homog: identity view is not the complete tree; girth certificate violated")
	}
	// Sort walks by the U-order of their endpoint elements. Distinct
	// walks have distinct endpoints within the ball (tree-likeness).
	walks := tree.Walks()
	keys := make([]string, len(walks))
	elems := make(map[string]group.Elem, len(walks))
	seenEndpoint := make(map[string]string, len(walks))
	for i, w := range walks {
		k := view.Key(w)
		keys[i] = k
		ep := endpoints[k]
		if prev, dup := seenEndpoint[ep]; dup {
			// Two distinct reduced walks reach the same element: a
			// relation of length <= 2R, contradicting the girth
			// certificate.
			return nil, fmt.Errorf("homog: walks %q and %q share endpoint %s; girth certificate violated", prev, k, ep)
		}
		seenEndpoint[ep] = k
		e, err := group.DecodeElem(ep, u.Dim())
		if err != nil {
			return nil, fmt.Errorf("homog: decode endpoint: %w", err)
		}
		elems[k] = e
	}
	sortKeysByU(u, keys, elems)
	rank := make(map[string]int, len(keys))
	for i, k := range keys {
		rank[k] = i
	}
	ot := &order.OrderedTree{Tree: tree, RankOf: rank}
	if err := ot.Validate(); err != nil {
		return nil, fmt.Errorf("homog: τ* validation: %w", err)
	}
	return ot, nil
}

// TauStarBall returns the canonical ordered ball of τ*, the reference
// against which node types are compared (by interned pointer in the
// scan hot loops).
func (c *Construction) TauStarBall() (*order.Ball, error) {
	ot, err := c.TauStar()
	if err != nil {
		return nil, err
	}
	return ot.BallOfSubtree(ot.Tree)
}

// TauStarBallEncoding returns the canonical ordered-ball encoding of
// τ* — the string form, for display and goldens.
func (c *Construction) TauStarBallEncoding() (string, error) {
	ball, err := c.TauStarBall()
	if err != nil {
		return "", err
	}
	return ball.Encode(), nil
}

// BallAt returns the canonical ordered ball of the radius-R
// neighbourhood of the given element in C(H(m), S) under the restricted
// U-order (or in C(U, S) when m == 0).
func (c *Construction) BallAt(m int, e group.Elem) (*order.Ball, error) {
	var cay *group.Cayley
	if m == 0 {
		cay = c.UCayley()
	} else {
		var err error
		cay, err = c.HCayley(m)
		if err != nil {
			return nil, err
		}
	}
	return c.CayleyBall(cay, cay.Node(e))
}

// CayleyBall classifies one node of a Cayley graph of the construction:
// the canonical ordered radius-R ball under the restricted U-order.
// Each ball vertex's element is decoded once (the sort keys), not per
// comparison as NodeLess would.
func (c *Construction) CayleyBall(cay *group.Cayley, node string) (*order.Ball, error) {
	return c.cayleyBallWith(digraph.NewBallScratch[string](), cay, node)
}

// cayleyBallWith is CayleyBall over caller-owned extraction scratch
// (one per scan worker).
func (c *Construction) cayleyBallWith(bs *digraph.BallScratch[string], cay *group.Cayley, node string) (*order.Ball, error) {
	u := group.U(c.Level)
	return order.CanonicalBallImplicitByWith[string, group.Elem](bs, cay, cay.Elem, u.Less, node, c.R)
}

// ClassifyTau reports, for each node of cay, whether its canonical
// ordered ball has type τ*. Classification interns the canonical balls
// and compares against τ*'s representative by pointer; the per-node
// ball extractions run data-parallel, each worker reusing its own
// extraction scratch. The first extraction error, in node order, is
// returned.
func (c *Construction) ClassifyTau(cay *group.Cayley, nodes []string) ([]bool, error) {
	tauBall, err := c.TauStarBall()
	if err != nil {
		return nil, err
	}
	in := order.NewInterner()
	tauBall = in.Canon(tauBall)
	flags := make([]bool, len(nodes))
	errs := make([]error, len(nodes))
	par.ForScratch(len(nodes),
		digraph.NewBallScratch[string],
		func(i int, bs *digraph.BallScratch[string]) {
			ball, err := c.cayleyBallWith(bs, cay, nodes[i])
			if err != nil {
				errs[i] = err
				return
			}
			flags[i] = in.Canon(ball) == tauBall
		})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return flags, nil
}

// TypeAt returns the canonical ordered-ball encoding of the radius-R
// neighbourhood of the given element; see BallAt for the pointer-based
// form the hot loops use.
func (c *Construction) TypeAt(m int, e group.Elem) (string, error) {
	ball, err := c.BallAt(m, e)
	if err != nil {
		return "", err
	}
	return ball.Encode(), nil
}

// InnerFraction is the analytic lower bound ((m−2R)/m)^d on the
// fraction of τ*-type vertices of (H(m), <): the interior cube
// I = [R, (m−1)−R]^d of Section 5.2.
func (c *Construction) InnerFraction(m int) float64 {
	if m <= 2*c.R {
		return 0
	}
	d := group.U(c.Level).Dim()
	return math.Pow(float64(m-2*c.R)/float64(m), float64(d))
}

// MForEpsilon returns the smallest even m such that the analytic
// interior bound guarantees (1−ε, R)-homogeneity.
func (c *Construction) MForEpsilon(eps float64) int {
	if eps <= 0 || eps >= 1 {
		panic("homog: epsilon must be in (0,1)")
	}
	for m := 2 * c.R; ; m += 2 {
		if m >= 2 && c.InnerFraction(m) >= 1-eps {
			return m
		}
	}
}

// ExactReport is a full-scan homogeneity measurement of (H(m), <).
type ExactReport struct {
	M          int
	N          int     // |H| = m^d
	TauCount   int     // vertices whose type is τ*
	Alpha      float64 // TauCount / N
	InnerBound float64 // analytic lower bound
	TypeCount  int     // number of distinct types observed
	Girth      int     // certified girth of C(H(m), S) through the identity
}

// HomogeneityExact scans every element of H(m) (feasible only when
// m^d <= maxNodes), classifying each vertex's ordered r-neighbourhood.
// The scan rides the ball-sweep engine on integer indices:
// Cayley.OrderedHost builds C(H(m), S) straight into CSR form, vertex v
// being the element with odometer number v and its row {v·s_ℓ, v·s_ℓ⁻¹}
// coming from allocation-free products, and gives each vertex its
// position in the restricted U-order in closed form, so neither a node
// string nor a comparison sort is involved. order.SweepMeasureAllInto
// then counts every element's canonical ordered ball at radius R
// through worker-local sweepers: the host has only a few local
// structures, so each worker's bundle cache resolves nearly every
// vertex with one private probe, and only a structure the worker has
// not met before is canonicalised against the shared interner. The
// counts are identical at every parallelism level and to the
// single-radius order.SweepMeasureInto; τ* occupancy is one lookup of
// the interned τ* representative in the merged counts. A group whose
// 2|S|·m^d arc slots exceed the int32 CSR capacity is rejected before
// anything is allocated.
func (c *Construction) HomogeneityExact(m, maxNodes int) (*ExactReport, error) {
	fam, err := group.NewFamily(c.Level, m)
	if err != nil {
		return nil, err
	}
	total := fam.Order()
	if !total.IsInt64() || total.Int64() > int64(maxNodes) {
		return nil, fmt.Errorf("homog: |H| = %v exceeds scan budget %d", total, maxNodes)
	}
	n := int(total.Int64())
	cay, err := c.HCayley(m)
	if err != nil {
		return nil, err
	}
	// Every element is a vertex — C(H, S) may be disconnected when S
	// does not generate.
	und, rank, err := cay.OrderedHost()
	if err != nil {
		return nil, fmt.Errorf("homog: %w", err)
	}
	tauBall, err := c.TauStarBall()
	if err != nil {
		return nil, err
	}
	in := order.NewInterner()
	tauBall = in.Canon(tauBall)
	var hm order.Homogeneity
	if c.R == 0 { // the layered pass starts at radius 1
		hm = order.SweepMeasureInto(in, und, rank, 0)
	} else {
		hm = order.SweepMeasureAllInto(in, und, rank, c.R)[c.R-1]
	}
	girth := digraph.UndirectedGirth[string](cay, []string{cay.Node(fam.Identity())}, 2*c.R+2)
	return &ExactReport{
		M:          m,
		N:          n,
		TauCount:   hm.Counts[tauBall],
		Alpha:      float64(hm.Counts[tauBall]) / float64(n),
		InnerBound: c.InnerFraction(m),
		TypeCount:  len(hm.Counts),
		Girth:      girth,
	}, nil
}

// SampleReport is a Monte-Carlo homogeneity estimate for large m.
type SampleReport struct {
	M          int
	Samples    int
	TauCount   int
	Alpha      float64 // estimated fraction of τ*-type vertices
	InnerBound float64
	// InteriorAllTau reports whether every sampled interior vertex had
	// type τ* (the paper proves this holds for all of them).
	InteriorAllTau bool
}

// HomogeneitySample estimates the τ*-type fraction of (H(m), <) by
// sampling uniform random elements; it additionally verifies that all
// sampled interior elements (coordinates in [R, m−1−R]) have type τ*.
// Samples are drawn from rng sequentially (schedule-independent
// stream), then classified in parallel.
func (c *Construction) HomogeneitySample(m, samples int, rng *rand.Rand) (*SampleReport, error) {
	fam, err := group.NewFamily(c.Level, m)
	if err != nil {
		return nil, err
	}
	cay, err := c.HCayley(m)
	if err != nil {
		return nil, err
	}
	elems := make([]group.Elem, samples)
	nodes := make([]string, samples)
	for i := range elems {
		elems[i] = fam.Rand(rng)
		nodes[i] = cay.Node(elems[i])
	}
	isTau, err := c.ClassifyTau(cay, nodes)
	if err != nil {
		return nil, err
	}
	rep := &SampleReport{M: m, Samples: samples, InnerBound: c.InnerFraction(m), InteriorAllTau: true}
	for i := 0; i < samples; i++ {
		if isTau[i] {
			rep.TauCount++
		}
		if interior(elems[i], m, c.R) && !isTau[i] {
			rep.InteriorAllTau = false
		}
	}
	rep.Alpha = float64(rep.TauCount) / float64(samples)
	return rep, nil
}

func interior(e group.Elem, m, r int) bool {
	for _, x := range e {
		if x < r || x > (m-1)-r {
			return false
		}
	}
	return true
}

// sortKeysByU sorts walk keys by the U-order of their endpoints.
func sortKeysByU(u group.Family, keys []string, elems map[string]group.Elem) {
	// Simple insertion-free approach: sort.Slice.
	lessFn := func(a, b string) bool { return u.Less(elems[a], elems[b]) }
	sortStrings(keys, lessFn)
}

func sortStrings(ks []string, less func(a, b string) bool) {
	// Insertion sort is fine: |T*| is small (≤ (2k)^r).
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && less(ks[j], ks[j-1]); j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
}
