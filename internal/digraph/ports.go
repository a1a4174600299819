package digraph

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// PortLabel is the pair (i, j) arising from a port numbering: the arc
// u -> v is labelled (i, j) when v is the i-th neighbour of u and u is
// the j-th neighbour of v (ports are 1-based, as in the paper).
type PortLabel struct{ I, J int }

// Ported is a digraph derived from a port numbering and orientation of
// an undirected graph, together with the meaning of its compact labels.
type Ported struct {
	D *Digraph
	// Labels maps compact label -> port pair.
	Labels []PortLabel
	// Host is the original undirected graph.
	Host *graph.Graph
}

// Orientation assigns a direction to each undirected edge: true means
// the edge {U, V} (with U < V) is directed U -> V.
type Orientation func(e graph.Edge) bool

// OrientBySmaller directs every edge from its smaller endpoint to its
// larger endpoint.
func OrientBySmaller(graph.Edge) bool { return true }

// FromPorts equips g with the canonical port numbering (the i-th
// neighbour of u is Neighbors(u)[i-1]) and the given orientation, and
// returns the resulting L-digraph with a compact label alphabet:
// labels are numbered by first occurrence over the edges in the
// lexicographic order g.Edges() lists them. If orient is nil,
// OrientBySmaller is used.
//
// The CSR arrays are written directly in one counting pass over g's
// rows (labels, directions and out-/in-degrees) and one fill pass,
// after which each row is sorted by label. A port numbering is always
// a proper labelling — the out-labels of u differ in their first port,
// the in-labels of v in their second — so no arc needs checking.
func FromPorts(g *graph.Graph, orient Orientation) *Ported {
	if orient == nil {
		orient = OrientBySmaller
	}
	n := g.N()
	// lower[w] counts the neighbours of w below the row being walked.
	// They lead w's sorted row and are met in increasing order, so when
	// the walk reaches the edge {u, w} with u < w, lower[w] is u's index
	// in w's row; once the walk reaches u, lower[u] is where u's row
	// passes u.
	lower := make([]int32, n)
	// codes holds each edge's label<<1, plus 1 when it is directed from
	// the larger endpoint; labels stay below m < 2^30, so codes fit.
	codes := make([]int32, 0, g.M())
	outOff, inOff := make([]int32, n+1), make([]int32, n+1)
	labelIdx := make(map[PortLabel]int32)
	var labels []PortLabel
	for u := 0; u < n; u++ {
		row := g.Neighbors(u)
		for i := lower[u]; i < int32(len(row)); i++ {
			w := int(row[i])
			pl, tail, head, back := PortLabel{I: int(i) + 1, J: int(lower[w]) + 1}, u, w, int32(0)
			lower[w]++
			if !orient(graph.Edge{U: u, V: w}) {
				pl, tail, head, back = PortLabel{I: pl.J, J: pl.I}, w, u, 1
			}
			l, ok := labelIdx[pl]
			if !ok {
				l = int32(len(labels))
				labelIdx[pl] = l
				labels = append(labels, pl)
			}
			codes = append(codes, l<<1|back)
			outOff[tail+1]++
			inOff[head+1]++
		}
	}
	for v := 0; v < n; v++ {
		outOff[v+1] += outOff[v]
		inOff[v+1] += inOff[v]
	}
	// Fill: outOff[v] and inOff[v] serve as row v's cursors, so
	// afterwards they hold the rows' ends; shifting each offset array up
	// one place restores the starts.
	out, in := make([]Arc, outOff[n]), make([]Arc, inOff[n])
	k := 0
	for u := 0; u < n; u++ {
		for _, w32 := range g.Neighbors(u)[lower[u]:] {
			tail, head, c := u, int(w32), codes[k]
			k++
			if c&1 != 0 {
				tail, head = head, tail
			}
			out[outOff[tail]] = Arc{To: head, Label: int(c >> 1)}
			outOff[tail]++
			in[inOff[head]] = Arc{To: tail, Label: int(c >> 1)}
			inOff[head]++
		}
	}
	for _, off := range [][]int32{outOff, inOff} {
		copy(off[1:], off[:n])
		off[0] = 0
	}
	byLabel := func(a, b Arc) int { return cmp.Compare(a.Label, b.Label) }
	for v := 0; v < n; v++ {
		slices.SortFunc(out[outOff[v]:outOff[v+1]], byLabel)
		slices.SortFunc(in[inOff[v]:inOff[v+1]], byLabel)
	}
	d := &Digraph{n: n, alphabet: len(labels), outOff: outOff, inOff: inOff, out: out, in: in}
	return &Ported{D: d, Labels: labels, Host: g}
}

// EulerianOrientation orients the edges of a graph whose vertices all
// have even degree along Eulerian circuits, so that every vertex has
// equal in- and out-degree. It returns an error if some degree is odd.
func EulerianOrientation(g *graph.Graph) (Orientation, error) {
	for v := 0; v < g.N(); v++ {
		if g.Degree(v)%2 != 0 {
			return nil, fmt.Errorf("digraph: vertex %d has odd degree %d", v, g.Degree(v))
		}
	}
	// Hierholzer on each component; record the traversal direction of
	// each edge.
	dir := make(map[graph.Edge]bool, g.M()) // true: U -> V
	used := make(map[graph.Edge]bool, g.M())
	next := make([]int, g.N()) // per-vertex scan position into Neighbors
	for s := 0; s < g.N(); s++ {
		for next[s] < g.Degree(s) {
			// Walk a closed trail from s using unused edges.
			v := s
			for {
				advanced := false
				for next[v] < g.Degree(v) {
					w := int(g.Neighbors(v)[next[v]])
					next[v]++
					e := graph.NewEdge(v, w)
					if used[e] {
						continue
					}
					used[e] = true
					dir[e] = v == e.U
					v = w
					advanced = true
					break
				}
				if !advanced {
					break
				}
				if v == s && next[s] >= g.Degree(s) {
					break
				}
			}
		}
	}
	return func(e graph.Edge) bool { return dir[e] }, nil
}

// FibreMap is a vertex map phi: V(H) -> V(G) claimed to be a covering.
type FibreMap []int

// VerifyCovering checks that phi is a covering map of L-digraphs from h
// onto g: it must be onto, preserve arcs and labels, and preserve
// out-/in-degrees (local bijectivity then follows from the proper
// labelling). It returns nil if phi is a covering map.
func VerifyCovering(h, g *Digraph, phi FibreMap) error {
	if len(phi) != h.N() {
		return fmt.Errorf("digraph: fibre map has length %d, want %d", len(phi), h.N())
	}
	if h.Alphabet() != g.Alphabet() {
		return fmt.Errorf("digraph: alphabet mismatch %d vs %d", h.Alphabet(), g.Alphabet())
	}
	hit := make([]bool, g.N())
	for v := 0; v < h.N(); v++ {
		pv := phi[v]
		if pv < 0 || pv >= g.N() {
			return fmt.Errorf("digraph: phi(%d)=%d out of range", v, pv)
		}
		hit[pv] = true
		if len(h.Out(v)) != len(g.Out(pv)) || len(h.In(v)) != len(g.In(pv)) {
			return fmt.Errorf("digraph: degree not preserved at %d", v)
		}
		for _, a := range h.Out(v) {
			ga, ok := g.OutArc(pv, a.Label)
			if !ok {
				return fmt.Errorf("digraph: out-arc label %d of %d missing at phi-image %d", a.Label, v, pv)
			}
			if ga.To != phi[a.To] {
				return fmt.Errorf("digraph: arc (%d,%d,label %d) maps to (%d,%d), want (%d,%d)",
					v, a.To, a.Label, pv, phi[a.To], pv, ga.To)
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		if !hit[v] {
			return fmt.Errorf("digraph: phi is not onto: %d has empty fibre", v)
		}
	}
	return nil
}

// Fibres groups the vertices of the covering graph by their phi-image.
func Fibres(gN int, phi FibreMap) [][]int {
	out := make([][]int, gN)
	for v, pv := range phi {
		out[pv] = append(out[pv], v)
	}
	return out
}
