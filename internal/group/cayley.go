package group

import (
	"fmt"
	"math/big"
	"strconv"

	"repro/internal/digraph"
	"repro/internal/graph"
)

// Cayley is the Cayley graph C(G, S) of a family member with respect to
// a generator multiset S = Gens, exposed as an implicit L-digraph with
// alphabet L = {0, …, |S|−1}: each element g has the out-arc
// g → g·s_ℓ labelled ℓ. It implements digraph.Implicit[string]; nodes
// are encoded elements.
//
// S need not generate the group — then the graph is disconnected, as
// the paper allows (Section 5.1).
type Cayley struct {
	fam  Family
	gens []Elem
	invs []Elem
}

var _ digraph.Implicit[string] = (*Cayley)(nil)

// NewCayley validates S (no identity, pairwise distinct) and returns
// the Cayley graph.
func NewCayley(f Family, gens []Elem) (*Cayley, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("group: empty generator set")
	}
	for i, g := range gens {
		if len(g) != f.Dim() {
			return nil, fmt.Errorf("group: generator %d has dim %d, want %d", i, len(g), f.Dim())
		}
		if f.IsIdentity(g) {
			return nil, fmt.Errorf("group: generator %d is the identity (self-loop)", i)
		}
		for j := 0; j < i; j++ {
			if f.Normalize(g).Equal(f.Normalize(gens[j])) {
				return nil, fmt.Errorf("group: generators %d and %d coincide", j, i)
			}
		}
	}
	c := &Cayley{fam: f}
	for _, g := range gens {
		ng := f.Normalize(g)
		c.gens = append(c.gens, ng)
		c.invs = append(c.invs, f.Inv(ng))
	}
	return c, nil
}

// Family returns the group family.
func (c *Cayley) Family() Family { return c.fam }

// Gens returns the generator list. Do not modify.
func (c *Cayley) Gens() []Elem { return c.gens }

// Alphabet returns |S|.
func (c *Cayley) Alphabet() int { return len(c.gens) }

// Node encodes an element as an implicit-digraph vertex.
func (c *Cayley) Node(e Elem) string { return EncodeElem(c.fam.Normalize(e)) }

// Elem decodes a vertex back into a group element.
func (c *Cayley) Elem(v string) Elem {
	e, err := DecodeElem(v, c.fam.Dim())
	if err != nil {
		panic(fmt.Sprintf("group: bad cayley node %q: %v", v, err))
	}
	return e
}

// Out returns the arcs g → g·s_ℓ. One scratch element is reused for
// all the products; only the encoded node strings escape.
func (c *Cayley) Out(v string) []digraph.ArcTo[string] {
	e := c.Elem(v)
	out := make([]digraph.ArcTo[string], len(c.gens))
	buf := make(Elem, len(e))
	for l, s := range c.gens {
		c.fam.mul(buf, e, s, c.fam.Level)
		out[l] = digraph.ArcTo[string]{To: EncodeElem(buf), Label: l}
	}
	return out
}

// In returns the arcs g·s_ℓ^{-1} → g (ArcTo.To is the source).
func (c *Cayley) In(v string) []digraph.ArcTo[string] {
	e := c.Elem(v)
	in := make([]digraph.ArcTo[string], len(c.invs))
	buf := make(Elem, len(e))
	for l, s := range c.invs {
		c.fam.mul(buf, e, s, c.fam.Level)
		in[l] = digraph.ArcTo[string]{To: EncodeElem(buf), Label: l}
	}
	return in
}

// OrderedHost builds the ordered Cayley graph (H, <) of a finite
// family by integer index: vertex v is the element with odometer
// number v, its CSR row lists v·s_ℓ and v·s_ℓ^{-1} for every generator,
// and rank[v] is its position in the restricted U-order, in closed
// form (see urank). Which coordinate of the right factor meets
// coordinate k of v depends only on v's z-coordinates, so that swap
// pattern is computed once per vertex (swapSources) and every
// neighbour index is read straight off it (productIndex): no product
// buffer, no recursive mul, no index pass. graph.FromCSR sorts the
// rows and rejects self-loops and parallel pairs, which a simple graph
// cannot hold; a parallel pair is a 2-cycle, which a girth certificate
// excludes. The arc slots are counted before anything is allocated, so
// a group past the int32 CSR capacity is an error, not a wrapped index.
func (c *Cayley) OrderedHost() (*graph.Graph, []int, error) {
	f := c.fam
	if !f.Finite() {
		return nil, nil, fmt.Errorf("group: OrderedHost of the infinite family %v", f)
	}
	deg := 2 * len(c.gens)
	order := f.Order()
	if slots := new(big.Int).Mul(order, big.NewInt(int64(deg))); slots.Cmp(big.NewInt(graph.FlatCapacity)) > 0 {
		return nil, nil, fmt.Errorf("group: C(%v, S) needs %v arc slots, past the flat-CSR int32 capacity %d",
			f, slots, int64(graph.FlatCapacity))
	}
	n := int(order.Int64())
	off := make([]int32, n+1)
	nbr := make([]int32, n*deg)
	rank := make([]int, n)
	e := f.Identity()
	src := make([]int, len(e))
	for v := range n {
		swapSources(src, e, 0, 0, f.Level)
		row := nbr[v*deg : (v+1)*deg]
		for l := range c.gens {
			row[2*l] = int32(productIndex(e, c.gens[l], src, f.Mod))
			row[2*l+1] = int32(productIndex(e, c.invs[l], src, f.Mod))
		}
		off[v+1] = int32((v + 1) * deg)
		rank[v] = f.urank(e, f.Level)
		f.next(e)
	}
	g, err := graph.FromCSR(off, nbr)
	if err != nil {
		return nil, nil, fmt.Errorf("group: C(%v, S) is not a simple graph: %w", f, err)
	}
	return g, rank, nil
}

// swapSources fills src for the block of e that starts at coordinate
// at and has the given level: src[at+k] becomes the coordinate of the
// right factor that mul adds to coordinate at+k of e, the matching
// block of the right factor starting at from. An odd z swaps the two
// direct factors, as in mul. The pattern depends on e alone, so one
// call serves every product e·s.
func swapSources(src []int, e Elem, at, from, level int) {
	if level == 1 {
		src[at] = from
		return
	}
	d := 1<<(level-1) - 1
	x, y := from, from+d
	if odd(e[at+2*d]) {
		x, y = y, x
	}
	swapSources(src, e, at, x, level-1)
	swapSources(src, e, at+d, y, level-1)
	src[at+2*d] = from + 2*d
}

// productIndex returns index(e·s) for e and s reduced mod m, given
// e's swap pattern src: coordinate k of the product is e[k] + s[src[k]],
// a sum in [0, 2m) that one conditional subtraction reduces, folded
// into the odometer number from the most significant coordinate down.
func productIndex(e, s Elem, src []int, m int) int {
	v := 0
	for k := len(e) - 1; k >= 0; k-- {
		x := e[k] + s[src[k]]
		if x >= m {
			x -= m
		}
		v = v*m + x
	}
	return v
}

// EncodeElem renders a tuple as a comma-separated string. Digits are
// appended into one byte buffer (no per-coordinate Itoa strings): node
// encoding sits on the Cayley-graph hot path, where every Out/In call
// renders each neighbour.
func EncodeElem(e Elem) string {
	buf := make([]byte, 0, 4*len(e))
	for i, x := range e {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(x), 10)
	}
	return string(buf)
}

// DecodeElem parses EncodeElem output. The scan is a single pass over
// the bytes — no strings.Split allocation.
func DecodeElem(s string, dim int) (Elem, error) {
	e := make(Elem, dim)
	coord, pos := 0, 0
	for coord < dim {
		start := pos
		neg := false
		if pos < len(s) && s[pos] == '-' {
			neg = true
			pos++
		}
		x, digits := 0, 0
		for pos < len(s) && s[pos] >= '0' && s[pos] <= '9' {
			if x > (1<<62)/10 {
				return nil, fmt.Errorf("group: coordinate %q overflows in %q", s[start:], s)
			}
			x = x*10 + int(s[pos]-'0')
			pos++
			digits++
		}
		if digits == 0 {
			return nil, fmt.Errorf("group: bad coordinate %q in %q", s[start:pos], s)
		}
		if neg {
			x = -x
		}
		e[coord] = x
		coord++
		if coord < dim {
			if pos >= len(s) || s[pos] != ',' {
				return nil, fmt.Errorf("group: %q has fewer than %d coordinates", s, dim)
			}
			pos++
		}
	}
	if pos != len(s) {
		return nil, fmt.Errorf("group: %q has more than %d coordinates", s, dim)
	}
	return e, nil
}

// GirthUpTo returns the length of the shortest nontrivial reduced word
// over S ∪ S^{-1} that evaluates to the identity, considering words of
// length at most maxLen; it returns -1 if there is none. By
// vertex-transitivity this equals the girth of the underlying
// undirected multigraph of C(G, S) when the girth is at most maxLen.
//
// A reduced word never follows letter s_ℓ^{±1} by s_ℓ^{∓1}; any other
// repetition (including s_ℓ s_ℓ when s_ℓ has order 2, and s_ℓ s_j when
// s_j = s_ℓ^{-1} as group elements) legitimately closes a cycle.
func (f Family) GirthUpTo(gens []Elem, maxLen int) int {
	type letter struct {
		gen int
		inv bool
	}
	step := make([]Elem, 0, 2*len(gens))
	letters := make([]letter, 0, 2*len(gens))
	for i, g := range gens {
		step = append(step, f.Normalize(g))
		letters = append(letters, letter{gen: i})
		step = append(step, f.Inv(f.Normalize(g)))
		letters = append(letters, letter{gen: i, inv: true})
	}
	best := -1
	// One preallocated element buffer per depth: the DFS visits one
	// child at a time, so buf[d] is free for reuse once the subtree
	// below it returns — the whole search allocates nothing per node.
	buf := make([]Elem, maxLen+1)
	for i := range buf {
		buf[i] = make(Elem, f.Dim())
	}
	var dfs func(cur Elem, last letter, hasLast bool, depth int)
	dfs = func(cur Elem, last letter, hasLast bool, depth int) {
		if depth > 0 && f.IsIdentity(cur) {
			if best == -1 || depth < best {
				best = depth
			}
			return
		}
		if depth >= maxLen || (best != -1 && depth+1 >= best) {
			return
		}
		for i, s := range step {
			l := letters[i]
			if hasLast && l.gen == last.gen && l.inv != last.inv {
				continue // backtracking
			}
			f.mul(buf[depth+1], cur, s, f.Level)
			dfs(buf[depth+1], l, true, depth+1)
		}
	}
	dfs(f.Identity(), letter{}, false, 0)
	return best
}
