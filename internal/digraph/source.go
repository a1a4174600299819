package digraph

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// A Source generates a properly labelled digraph node by node,
// without ever materialising it — the substrate the sharded round
// engine partitions, letting host families past the int32 flat-CSR
// capacity exist as generators instead of arrays. Implementations
// must be deterministic, cheap per call and safe for concurrent use.
//
// The contract mirrors Digraph restricted to one node: out- and
// in-arc lists are label-sorted, out-labels are distinct among
// themselves and in-labels likewise (proper labelling), and arcs are
// reciprocal — the out-arc (v -> w, l) is seen from w as the in-arc
// (w <- v, l). Consumers verify reciprocity where they can and fail
// loudly on inconsistent sources.
type Source interface {
	// N returns the number of nodes; unlike a flat digraph it may
	// exceed the int32 capacity.
	N() int64
	// Alphabet returns the number of edge labels.
	Alphabet() int
	// Degree returns v's out- and in-degree (constant time).
	Degree(v int64) (out, in int)
	// AppendArcs appends v's label-sorted out- and in-arcs (SourceArc.To
	// is the target for out, the source for in) and returns the
	// extended slices.
	AppendArcs(v int64, out, in []SourceArc) ([]SourceArc, []SourceArc)
}

// SourceArc is one labelled arc of an implicitly generated digraph:
// the global id of the other endpoint plus the arc label.
type SourceArc struct {
	To    int64
	Label int
}

// FromSource materialises the digraph src generates, writing the CSR
// arrays directly: one counting pass sizes the out-rows from Degree,
// a fill pass copies each node's out-arcs from AppendArcs and counts
// the in-degrees they imply, the in-rows are scattered from the
// out-arcs, and every row is sorted by label. The in-arcs AppendArcs
// reports are counted against Degree but not otherwise read, so the
// result is what adding every out-arc to a Builder yields.
//
// Everything Builder.AddArc checks is checked here — endpoint and
// label ranges, self-loops, repeated out- and in-labels — and so are
// the sizes NewBuilder and Build panic on; all come back as errors,
// as does an AppendArcs that disagrees with Degree.
func FromSource(src Source) (*Digraph, error) {
	n, err := flatSize(src)
	if err != nil {
		return nil, err
	}
	alphabet := src.Alphabet()
	if alphabet < 0 {
		return nil, fmt.Errorf("digraph: source alphabet %d is negative", alphabet)
	}
	outOff := make([]int32, n+1)
	if err := countDegrees(src, outOff, false); err != nil {
		return nil, err
	}
	// Fill: inOff[w+1] counts w's in-arcs, then the prefix sum turns
	// inOff[w] into row w's scatter cursor; afterwards it holds the
	// row's end, and shifting the array up one place restores the
	// starts (as in FromPorts).
	out, inOff := make([]Arc, outOff[n]), make([]int32, n+1)
	var obuf, ibuf []SourceArc
	for v := 0; v < n; v++ {
		if obuf, ibuf, err = appendArcs(src, v, obuf[:0], ibuf[:0]); err != nil {
			return nil, err
		}
		row := out[outOff[v]:outOff[v+1]]
		for i, a := range obuf {
			if err := checkArc(v, a, n, alphabet); err != nil {
				return nil, err
			}
			row[i] = Arc{To: int(a.To), Label: a.Label}
			inOff[a.To+1]++
		}
		if l, dup := sortByLabel(row); dup {
			return nil, fmt.Errorf("digraph: node %d already has out-label %d", v, l)
		}
	}
	for v := 0; v < n; v++ {
		inOff[v+1] += inOff[v]
	}
	in := make([]Arc, inOff[n])
	for u := 0; u < n; u++ {
		for _, a := range out[outOff[u]:outOff[u+1]] {
			in[inOff[a.To]] = Arc{To: u, Label: a.Label}
			inOff[a.To]++
		}
	}
	copy(inOff[1:], inOff[:n])
	inOff[0] = 0
	for v := 0; v < n; v++ {
		if l, dup := sortByLabel(in[inOff[v]:inOff[v+1]]); dup {
			return nil, fmt.Errorf("digraph: node %d already has in-label %d", v, l)
		}
	}
	return &Digraph{n: n, alphabet: alphabet, outOff: outOff, inOff: inOff, out: out, in: in}, nil
}

// UnderlyingOf returns the simple undirected graph underlying the
// digraph src generates, without building the digraph: node v's
// neighbour row is the endpoints of its out- and in-arcs, and the rows
// go to graph.FromCSR, whose mirror check also confirms that the
// source's arcs are reciprocal. Labels are not read. Sizes, endpoint
// ranges and the agreement of AppendArcs with Degree are checked as in
// FromSource; a source that FromSource accepts and whose in-arcs mirror
// its out-arcs yields FromSource(src).Underlying().
func UnderlyingOf(src Source) (*graph.Graph, error) {
	n, err := flatSize(src)
	if err != nil {
		return nil, err
	}
	off := make([]int32, n+1)
	if err := countDegrees(src, off, true); err != nil {
		return nil, err
	}
	nbr := make([]int32, off[n])
	var obuf, ibuf []SourceArc
	for v := 0; v < n; v++ {
		if obuf, ibuf, err = appendArcs(src, v, obuf[:0], ibuf[:0]); err != nil {
			return nil, err
		}
		row := nbr[off[v]:off[v]]
		for _, arcs := range [2][]SourceArc{obuf, ibuf} {
			for _, a := range arcs {
				if a.To < 0 || a.To >= int64(n) {
					return nil, fmt.Errorf("digraph: arc (%d,%d) out of range [0,%d)", v, a.To, n)
				}
				row = append(row, int32(a.To))
			}
		}
	}
	g, err := graph.FromCSR(off, nbr)
	if err != nil {
		return nil, fmt.Errorf("digraph: underlying graph: parallel arcs or invalid structure: %w", err)
	}
	return g, nil
}

// flatSize returns src's node count once it is known to fit the flat
// CSR substrate.
func flatSize(src Source) (int, error) {
	n := src.N()
	if n < 0 {
		return 0, fmt.Errorf("digraph: source node count %d is negative", n)
	}
	if n > graph.FlatCapacity {
		return 0, capacityErr("vertex count", n)
	}
	return int(n), nil
}

// countDegrees writes the row offsets of src's out-rows, or with both
// set of its out- plus in-rows, into off (len N()+1). The running
// total is kept in 64 bits: the int32 offsets would wrap past 2^31.
func countDegrees(src Source, off []int32, both bool) error {
	total := int64(0)
	for v := 0; v+1 < len(off); v++ {
		o, i := src.Degree(int64(v))
		if o < 0 || i < 0 {
			return fmt.Errorf("digraph: node %d: negative degree (%d out, %d in)", v, o, i)
		}
		total += int64(o)
		if both {
			total += int64(i)
		}
		if total > graph.FlatCapacity {
			what := "arc count"
			if both {
				what = "undirected arc count"
			}
			return capacityErr(what, total)
		}
		off[v+1] = int32(total)
	}
	return nil
}

// appendArcs is src.AppendArcs(v, out, in) checked against Degree.
func appendArcs(src Source, v int, out, in []SourceArc) ([]SourceArc, []SourceArc, error) {
	out, in = src.AppendArcs(int64(v), out, in)
	if o, i := src.Degree(int64(v)); len(out) != o || len(in) != i {
		return out, in, fmt.Errorf("digraph: node %d: AppendArcs gave %d out- and %d in-arcs, Degree says %d and %d",
			v, len(out), len(in), o, i)
	}
	return out, in, nil
}

// checkArc applies Builder.AddArc's range and self-loop checks to the
// out-arc v -> a.To.
func checkArc(v int, a SourceArc, n, alphabet int) error {
	if a.To < 0 || a.To >= int64(n) {
		return fmt.Errorf("digraph: arc (%d,%d) out of range [0,%d)", v, a.To, n)
	}
	if a.To == int64(v) {
		return fmt.Errorf("digraph: self-loop at %d", v)
	}
	if a.Label < 0 || a.Label >= alphabet {
		return fmt.Errorf("digraph: label %d out of range [0,%d)", a.Label, alphabet)
	}
	return nil
}

// sortByLabel sorts an arc row by label and reports the first label
// it holds twice, if any. A row already in strictly increasing label
// order, as sources write their out-arcs, is left untouched.
func sortByLabel(row []Arc) (int, bool) {
	for i := 1; i < len(row); i++ {
		if row[i].Label > row[i-1].Label {
			continue
		}
		slices.SortFunc(row, func(a, b Arc) int { return cmp.Compare(a.Label, b.Label) })
		for j := 1; j < len(row); j++ {
			if row[j].Label == row[j-1].Label {
				return row[j].Label, true
			}
		}
		break
	}
	return 0, false
}
