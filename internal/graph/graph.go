// Package graph provides undirected simple graphs of bounded degree,
// generators for the graph families used throughout the paper
// (cycles, tori, regular graphs, circulants, ...), and structural
// queries (girth, distances, components, regularity).
//
// Vertices are integers 0..n-1. Graphs are immutable once built;
// use Builder to construct them.
//
// Storage is compressed sparse row (CSR): one flat []int32 neighbour
// array plus []int32 row offsets. Every per-vertex scan (canonical
// balls, view gathering, the lower-bound engines) walks contiguous
// memory, and Neighbors returns a subslice with no allocation.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// FlatCapacity is the largest entry count the int32 CSR substrate can
// address: offsets and vertex ids are []int32, so a flat graph can
// hold at most 2^31-1 vertices and 2^31-1 directed arc slots (2m).
// Hosts past this bound must be sharded instead of materialised —
// see model.ShardedEngine and host.ShardSource.
const FlatCapacity = math.MaxInt32

// capacityErr renders the uniform over-capacity diagnosis. Before the
// guards existed the int32 casts silently wrapped, corrupting offsets
// for any host past 2^31 arcs; now the failure is loud and names the
// way out.
func capacityErr(what string, have int64) error {
	return fmt.Errorf("graph: %s %d exceeds the flat-CSR int32 capacity %d: host exceeds flat-CSR capacity, use shards (model.ShardedEngine over a host.ShardSource)",
		what, have, int64(FlatCapacity))
}

// Graph is an immutable undirected simple graph on vertices 0..n-1 in
// CSR form: the neighbours of v are nbr[off[v]:off[v+1]], sorted
// ascending. The zero value is the empty graph on zero vertices.
type Graph struct {
	n   int
	m   int
	off []int32 // row offsets, len n+1 (nil for the zero value)
	nbr []int32 // flat neighbour array, len 2m
}

// Builder accumulates edges for a Graph. Neighbour rows are kept
// sorted as they grow (binary-search duplicate checks, no edge map),
// and Build concatenates them into the final CSR arrays.
type Builder struct {
	n     int
	m     int
	built bool
	adj   [][]int32 // per-vertex sorted neighbour rows
	seq   [][]int32 // parallel to adj: 1-based insertion ordinal of the edge
}

// NewBuilder returns a builder for a graph on n vertices. Vertex ids
// are stored as int32 in the CSR arrays, so n is capped at
// FlatCapacity; larger hosts must stay implicit (host.ShardSource).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if int64(n) > FlatCapacity {
		panic(capacityErr("vertex count", int64(n)))
	}
	return &Builder{n: n, adj: make([][]int32, n), seq: make([][]int32, n)}
}

// AddEdge adds the undirected edge {u, v}. Self-loops and duplicate
// edges are rejected with an error; a duplicate reports both the
// offending edge and when each copy was inserted. Calling AddEdge on a
// finished builder panics.
func (b *Builder) AddEdge(u, v int) error {
	if b.built {
		panic("graph: AddEdge on a Builder after Build")
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	// Each edge occupies two directed CSR slots and one int32 insertion
	// ordinal; past FlatCapacity both would silently wrap.
	if 2*(int64(b.m)+1) > FlatCapacity {
		return capacityErr("arc count", 2*(int64(b.m)+1))
	}
	i, dup := searchRow(b.adj[u], int32(v))
	if dup {
		return fmt.Errorf("graph: duplicate edge {%d,%d}: first added as edge #%d, rejected as edge #%d",
			min(u, v), max(u, v), b.seq[u][i], b.m+1)
	}
	j, _ := searchRow(b.adj[v], int32(u))
	b.m++
	b.adj[u] = insertInt32(b.adj[u], i, int32(v))
	b.seq[u] = insertInt32(b.seq[u], i, int32(b.m))
	b.adj[v] = insertInt32(b.adj[v], j, int32(u))
	b.seq[v] = insertInt32(b.seq[v], j, int32(b.m))
	return nil
}

// MustAddEdge is AddEdge that panics on error; intended for generators
// whose inputs are known valid.
func (b *Builder) MustAddEdge(u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u, v} has been added. Panics on a finished
// builder (the rows have been handed to the built graph).
func (b *Builder) HasEdge(u, v int) bool {
	if b.built {
		panic("graph: HasEdge on a Builder after Build")
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return false
	}
	_, ok := searchRow(b.adj[u], int32(v))
	return ok
}

// Build finalises the graph, concatenating the sorted neighbour rows
// into the flat CSR arrays. The builder is dead afterwards: any
// further AddEdge/HasEdge/Build panics.
func (b *Builder) Build() *Graph {
	if b.built {
		panic("graph: Build called twice")
	}
	b.built = true
	// Total the rows in 64 bits first: the int32 offset accumulation
	// below would wrap silently past 2^31 directed arcs.
	total := int64(0)
	for _, row := range b.adj {
		total += int64(len(row))
	}
	if total > FlatCapacity {
		panic(capacityErr("arc count", total))
	}
	off := make([]int32, b.n+1)
	for v, row := range b.adj {
		off[v+1] = off[v] + int32(len(row))
	}
	nbr := make([]int32, off[b.n])
	for v, row := range b.adj {
		copy(nbr[off[v]:], row)
	}
	b.adj, b.seq = nil, nil
	return &Graph{n: b.n, m: b.m, off: off, nbr: nbr}
}

// searchRow returns the insertion position of x in the sorted row and
// whether x is already present.
func searchRow(row []int32, x int32) (int, bool) {
	i, ok := slices.BinarySearch(row, x)
	return i, ok
}

func insertInt32(row []int32, i int, x int32) []int32 {
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = x
	return row
}

// FromAdjacency builds a graph directly from neighbour lists — the
// wholesale path for callers that assemble adjacency as [][]int. The
// lists are flattened into CSR, sorted and validated: self-loops,
// duplicate edges (parallel arcs) and asymmetric entries are rejected.
func FromAdjacency(adj [][]int) (*Graph, error) {
	n := len(adj)
	if int64(n) > FlatCapacity {
		return nil, capacityErr("vertex count", int64(n))
	}
	total := int64(0)
	for _, l := range adj {
		total += int64(len(l))
	}
	if total > FlatCapacity {
		return nil, capacityErr("arc count", total)
	}
	off := make([]int32, n+1)
	for v, l := range adj {
		off[v+1] = off[v] + int32(len(l))
	}
	nbr := make([]int32, off[n])
	for v, l := range adj {
		row := nbr[off[v]:off[v+1]]
		for i, w := range l {
			if w < 0 || w >= n {
				return nil, fmt.Errorf("graph: neighbour %d of %d out of range [0,%d)", w, v, n)
			}
			row[i] = int32(w)
		}
	}
	return FromCSR(off, nbr)
}

// FromCSR builds a graph from a prepared CSR layout: off has n+1
// entries and nbr[off[v]:off[v+1]] lists the neighbours of v. The rows
// are sorted in place and validated (range, self-loops, duplicates,
// mirror symmetry). The slices are owned by the graph afterwards.
// This is the zero-copy path for digraph.Underlying and the ball
// extractors, which sit inside the per-vertex scan loops.
//
// The mirror check probes only the upward arcs v→w (w > v) and counts
// the downward ones. Rows are duplicate-free by then, so mirroring maps
// upward arcs injectively onto downward ones: when every upward arc
// has its mirror and the two counts agree, every downward arc is a
// mirror too. That halves the binary searches and needs no n-entry
// array. A failed check rescans every arc in order, so the error names
// the first arc missing its mirror.
func FromCSR(off, nbr []int32) (*Graph, error) {
	n := len(off) - 1
	if n < 0 {
		return nil, fmt.Errorf("graph: empty offset array")
	}
	if int64(n) > FlatCapacity {
		return nil, capacityErr("vertex count", int64(n))
	}
	if int64(len(nbr)) > FlatCapacity {
		return nil, capacityErr("arc count", int64(len(nbr)))
	}
	if off[0] != 0 {
		return nil, fmt.Errorf("graph: offsets start at %d, want 0", off[0])
	}
	if int(off[n]) != len(nbr) {
		return nil, fmt.Errorf("graph: offsets end at %d, want %d", off[n], len(nbr))
	}
	for v := 0; v < n; v++ {
		if off[v] > off[v+1] {
			return nil, fmt.Errorf("graph: offsets not monotone at %d", v)
		}
		row := nbr[off[v]:off[v+1]]
		sortRow(row)
		for i, w := range row {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: neighbour %d of %d out of range [0,%d)", w, v, n)
			}
			if int(w) == v {
				return nil, fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && row[i-1] == w {
				return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", v, w)
			}
		}
	}
	if len(nbr)%2 != 0 {
		return nil, fmt.Errorf("graph: adjacency is not symmetric")
	}
	g := &Graph{n: n, m: len(nbr) / 2, off: off, nbr: nbr}
	up, down := 0, 0
	for v := 0; v < n; v++ {
		for _, w := range g.row(v) {
			if int(w) < v {
				down++
				continue
			}
			if !g.HasEdge(int(w), v) {
				return nil, g.missingMirror()
			}
			up++
		}
	}
	if up != down {
		return nil, g.missingMirror()
	}
	return g, nil
}

// missingMirror names the first arc, in vertex and row order, whose
// mirror is absent; FromCSR calls it only once its check has failed.
func (g *Graph) missingMirror() error {
	for v := 0; v < g.n; v++ {
		for _, w := range g.row(v) {
			if !g.HasEdge(int(w), v) {
				return fmt.Errorf("graph: edge {%d,%d} missing its mirror", v, w)
			}
		}
	}
	panic("graph: mirror check failed without an arc missing its mirror")
}

// sortRow sorts one CSR row in place. Host rows are short, and below
// 13 entries an insertion loop beats the call into slices.Sort.
func sortRow(row []int32) {
	if len(row) > 12 {
		slices.Sort(row)
		return
	}
	for i := 1; i < len(row); i++ {
		x, j := row[i], i
		for ; j > 0 && row[j-1] > x; j-- {
			row[j] = row[j-1]
		}
		row[j] = x
	}
}

// row returns the sorted neighbour row of v (internal form of
// Neighbors, shared by the metrics and subgraph code).
func (g *Graph) row(v int) []int32 { return g.nbr[g.off[v]:g.off[v+1]] }

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the sorted neighbour row of v: a subslice of the
// flat CSR array. The returned slice must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.row(v) }

// AppendNeighbors appends the neighbours of v to dst as ints and
// returns the extended slice — for callers that want an []int copy of
// a row (the CSR row itself is []int32 and must not be modified).
func (g *Graph) AppendNeighbors(dst []int, v int) []int {
	for _, w := range g.row(v) {
		dst = append(dst, int(w))
	}
	return dst
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := searchRow(g.row(u), int32(v))
	return ok
}

// Edge is an undirected edge with U < V.
type Edge struct{ U, V int }

// NewEdge returns the normalised edge {u, v} with U < V.
func NewEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Edges returns all edges in lexicographic order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, w := range g.row(u) {
			if v := int(w); u < v {
				es = append(es, Edge{U: u, V: v})
			}
		}
	}
	return es
}

// MaxDegree returns the maximum degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if dv := g.Degree(v); dv > d {
			d = dv
		}
	}
	return d
}

// MinDegree returns the minimum degree, or 0 for the empty graph.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	d := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if dv := g.Degree(v); dv < d {
			d = dv
		}
	}
	return d
}

// IsRegular reports whether all vertices have degree d.
func (g *Graph) IsRegular(d int) bool {
	for v := 0; v < g.n; v++ {
		if g.Degree(v) != d {
			return false
		}
	}
	return true
}

// NeighborIndex returns i such that Neighbors(u)[i] == v, or -1.
func (g *Graph) NeighborIndex(u, v int) int {
	if i, ok := searchRow(g.row(u), int32(v)); ok {
		return i
	}
	return -1
}

// InducedSubgraph returns the subgraph induced by the given vertices and
// a mapping old-vertex -> new-vertex (missing vertices map to -1).
// The CSR arrays are assembled directly in two passes (count, fill):
// this sits inside the canonical-ball hot loop.
func (g *Graph) InducedSubgraph(vs []int) (*Graph, []int) {
	idx := make([]int, g.n)
	for i := range idx {
		idx[i] = -1
	}
	for i, v := range vs {
		idx[v] = i
	}
	k := len(vs)
	off := make([]int32, k+1)
	for i, v := range vs {
		d := int32(0)
		for _, w := range g.row(v) {
			if idx[w] >= 0 {
				d++
			}
		}
		off[i+1] = off[i] + d
	}
	nbr := make([]int32, off[k])
	m := 0
	for i, v := range vs {
		row := nbr[off[i]:off[i]]
		for _, w := range g.row(v) {
			if j := idx[w]; j >= 0 {
				row = append(row, int32(j))
				if j > i {
					m++
				}
			}
		}
		slices.Sort(row)
	}
	return &Graph{n: k, m: m, off: off, nbr: nbr}, idx
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return &Graph{
		n:   g.n,
		m:   g.m,
		off: append([]int32(nil), g.off...),
		nbr: append([]int32(nil), g.nbr...),
	}
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d}", g.n, g.m, g.MaxDegree())
}
