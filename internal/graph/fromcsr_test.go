package graph

import (
	"fmt"
	"slices"
	"testing"
)

// fromCSRReference is FromCSR as it was before the mirror check
// probed only upward arcs: it sorts each row with slices.Sort and
// probes both directions of every arc. FuzzFromCSR pins FromCSR
// against it: same verdict, same error text, same arrays.
func fromCSRReference(off, nbr []int32) (*Graph, error) {
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
		slices.Sort(row)
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
	for v := 0; v < n; v++ {
		for _, w := range g.row(v) {
			if !g.HasEdge(int(w), v) {
				return nil, fmt.Errorf("graph: edge {%d,%d} missing its mirror", v, w)
			}
		}
	}
	return g, nil
}

// csrOf lays adjacency rows out as CSR, rows in the given order.
func csrOf(rows [][]int32) (off, nbr []int32) {
	off = make([]int32, 1, len(rows)+1)
	for _, r := range rows {
		nbr = append(nbr, r...)
		off = append(off, int32(len(nbr)))
	}
	return off, nbr
}

// TestFromCSRMirrorRejection pins the error text of every way the
// mirror check can fail, including a downward arc without its mirror
// (which only the arc count catches, since the check probes upward
// arcs alone) and a missing downward mirror that precedes a missing
// upward one (the error must still name the first arc in order).
func TestFromCSRMirrorRejection(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows [][]int32
		want string
	}{
		{"upward arc without mirror", [][]int32{{2, 1}, {0}, {1}},
			"graph: edge {0,2} missing its mirror"},
		{"downward arcs without mirrors", [][]int32{{1}, {0}, {1, 0}},
			"graph: edge {2,0} missing its mirror"},
		{"even-length directed 4-cycle", [][]int32{{1}, {2}, {3}, {0}},
			"graph: edge {0,1} missing its mirror"},
		{"downward miss before upward miss", [][]int32{{}, {0}, {3}, {}},
			"graph: edge {1,0} missing its mirror"},
		{"odd arc count", [][]int32{{1}, {0, 2}, {}},
			"graph: adjacency is not symmetric"},
	} {
		off, nbr := csrOf(tc.rows)
		g, err := FromCSR(off, nbr)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: FromCSR = %v, %v; want error %q", tc.name, g, err, tc.want)
		}
		off, nbr = csrOf(tc.rows)
		if _, err := fromCSRReference(off, nbr); err == nil || err.Error() != tc.want {
			t.Errorf("%s: reference = %v; want error %q", tc.name, err, tc.want)
		}
	}
	off, nbr := csrOf([][]int32{{2, 1}, {0, 2}, {1, 0}})
	if _, err := FromCSR(off, nbr); err != nil {
		t.Errorf("triangle rejected: %v", err)
	}
}

// FuzzFromCSR decodes bytes into small near-symmetric CSR inputs and
// requires FromCSR to agree with fromCSRReference: the same verdict,
// the same error string, the same arrays afterwards (rows are sorted
// in place even when a later row fails) and the same graph.
//
// data[0] picks n in [1, 12]; every following byte triple (op, a, b)
// adds the edge {a mod n, b mod n} as two arcs for op mod 8 < 6 (a
// repeat is a duplicate, a == b a self-loop), the arc a→b alone for
// op mod 8 == 6, and an arc from a to the raw value b − 2 (possibly
// out of range) for op mod 8 == 7. Rows keep insertion order, so
// they arrive unsorted.
func FuzzFromCSR(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0, 1, 2, 0, 2, 0})
	f.Add([]byte{4, 0, 0, 1, 0, 1, 2, 6, 3, 1})
	f.Add([]byte{4, 6, 2, 0, 6, 2, 1, 0, 0, 1})
	f.Add([]byte{5, 7, 0, 9, 0, 0, 1, 0, 1, 1})
	f.Add([]byte{12, 0, 0, 11, 1, 11, 5, 2, 5, 7, 3, 7, 0, 4, 0, 2, 5, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%12
		rows := make([][]int32, n)
		for i := 1; i+2 < len(data); i += 3 {
			op, a, b := data[i]%8, int(data[i+1])%n, int(data[i+2])%n
			switch {
			case op < 6:
				rows[a] = append(rows[a], int32(b))
				rows[b] = append(rows[b], int32(a))
			case op == 6:
				rows[a] = append(rows[a], int32(b))
			default:
				rows[a] = append(rows[a], int32(data[i+2])-2)
			}
		}
		off, nbr := csrOf(rows)
		roff, rnbr := slices.Clone(off), slices.Clone(nbr)
		g, err := FromCSR(off, nbr)
		rg, rerr := fromCSRReference(roff, rnbr)
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("FromCSR error %v, reference %v", err, rerr)
		}
		if !slices.Equal(off, roff) || !slices.Equal(nbr, rnbr) {
			t.Fatalf("arrays differ: off %v nbr %v, reference off %v nbr %v", off, nbr, roff, rnbr)
		}
		if err != nil {
			return
		}
		if g.N() != rg.N() || g.M() != rg.M() {
			t.Fatalf("graph n=%d m=%d, reference n=%d m=%d", g.N(), g.M(), rg.N(), rg.M())
		}
	})
}
