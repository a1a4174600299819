package digraph_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/host"
)

// materializeReference adds every out-arc src generates to a
// digraph.Builder, one checked, sorted insertion at a time. The
// counting-pass FromSource must accept exactly the sources it accepts
// and return the same digraph.
func materializeReference(src digraph.Source) (*digraph.Digraph, error) {
	n := src.N()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("source has %d nodes, past the flat-CSR capacity", n)
	}
	b := digraph.NewBuilder(int(n), src.Alphabet())
	var out, in []digraph.SourceArc
	for v := int64(0); v < n; v++ {
		out, in = src.AppendArcs(v, out[:0], in[:0])
		for _, a := range out {
			if err := b.AddArc(int(v), int(a.To), a.Label); err != nil {
				return nil, err
			}
		}
	}
	return b.Build(), nil
}

// sourceHosts maps every family with a shard source to descriptors;
// TestFromSourceMatchesReference fails on a family missing here.
var sourceHosts = map[string][]string{
	"cycle":         {"cycle:3", "cycle:4", "cycle:17"},
	"dcycle":        {"dcycle:3", "dcycle:4", "dcycle:17"},
	"torus":         {"torus:3x3", "torus:4x4", "torus:3x4x5", "torus:7"},
	"shift-regular": {"shift-regular:d=2,n=5,seed=1", "shift-regular:d=6,n=31,seed=3", "shift-regular:d=8,n=40,seed=9"},
}

// TestFromSourceMatchesReference: on every registered shard source
// FromSource returns the Builder reference's digraph, and UnderlyingOf
// returns that digraph's underlying graph.
func TestFromSourceMatchesReference(t *testing.T) {
	for _, name := range host.ShardFamilies() {
		if len(sourceHosts[name]) == 0 {
			t.Errorf("shard family %q has no descriptor in sourceHosts", name)
		}
		for _, desc := range sourceHosts[name] {
			src, err := host.ParseShard(desc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := materializeReference(src)
			if err != nil {
				t.Fatalf("%s: reference: %v", desc, err)
			}
			got, err := digraph.FromSource(src)
			if err != nil {
				t.Fatalf("%s: FromSource: %v", desc, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: FromSource %v differs from reference %v", desc, got, want)
			}
			wantG, err := want.Underlying()
			if err != nil {
				t.Fatalf("%s: reference underlying: %v", desc, err)
			}
			gotG, err := digraph.UnderlyingOf(src)
			if err != nil {
				t.Fatalf("%s: UnderlyingOf: %v", desc, err)
			}
			if !reflect.DeepEqual(gotG, wantG) {
				t.Errorf("%s: UnderlyingOf %v differs from the reference's underlying graph %v", desc, gotG, wantG)
			}
		}
	}
}

// listSource is a hand-written Source: explicit out- and in-lists per
// node, and a Degree that reports their lengths unless overridden.
type listSource struct {
	alphabet int
	out, in  [][]digraph.SourceArc
	degree   func(v int64) (int, int)
	n        int64 // when set, overrides len(out) as N()
}

func (s *listSource) N() int64 {
	if s.n != 0 {
		return s.n
	}
	return int64(len(s.out))
}
func (s *listSource) Alphabet() int { return s.alphabet }
func (s *listSource) Degree(v int64) (int, int) {
	if s.degree != nil {
		return s.degree(v)
	}
	return len(s.out[v]), len(s.in[v])
}
func (s *listSource) AppendArcs(v int64, out, in []digraph.SourceArc) ([]digraph.SourceArc, []digraph.SourceArc) {
	return append(out, s.out[v]...), append(in, s.in[v]...)
}

// mirrored fills s.in with the reciprocal of every in-range out-arc.
func (s *listSource) mirrored() *listSource {
	s.in = make([][]digraph.SourceArc, len(s.out))
	for u, arcs := range s.out {
		for _, a := range arcs {
			if a.To >= 0 && a.To < int64(len(s.out)) {
				s.in[a.To] = append(s.in[a.To], digraph.SourceArc{To: int64(u), Label: a.Label})
			}
		}
	}
	return s
}

func arcs(pairs ...int64) []digraph.SourceArc {
	var out []digraph.SourceArc
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, digraph.SourceArc{To: pairs[i], Label: int(pairs[i+1])})
	}
	return out
}

// TestFaultySourcesFail: every inconsistency Builder.AddArc rejects,
// the sizes it panics on, and an AppendArcs that disagrees with Degree
// come back from FromSource as errors, never as panics or digraphs.
// UnderlyingOf, which reads no labels, rejects the structural faults
// and an in-arc whose out-arc is missing.
func TestFaultySourcesFail(t *testing.T) {
	type fault struct {
		name       string
		src        *listSource
		underlying bool // UnderlyingOf must reject it too
	}
	faults := []fault{
		{"self-loop", (&listSource{alphabet: 1, out: [][]digraph.SourceArc{arcs(0, 0), nil}}).mirrored(), true},
		{"endpoint past n", (&listSource{alphabet: 1, out: [][]digraph.SourceArc{arcs(3, 0), nil, nil}}).mirrored(), true},
		{"negative endpoint", (&listSource{alphabet: 1, out: [][]digraph.SourceArc{nil, arcs(-1, 0)}}).mirrored(), true},
		// 2^32+1 truncates to node 1 in an int32 row, where the in-arc
		// listed at node 1 would mirror it.
		{"endpoint past int32", &listSource{alphabet: 1,
			out: [][]digraph.SourceArc{arcs(1<<32+1, 0), nil}, in: [][]digraph.SourceArc{nil, arcs(0, 0)}}, true},
		{"label past alphabet", (&listSource{alphabet: 1, out: [][]digraph.SourceArc{arcs(1, 1), nil}}).mirrored(), false},
		{"negative label", (&listSource{alphabet: 1, out: [][]digraph.SourceArc{arcs(1, -1), nil}}).mirrored(), false},
		{"repeated out-label", (&listSource{alphabet: 2, out: [][]digraph.SourceArc{arcs(1, 0, 2, 0), nil, nil}}).mirrored(), false},
		{"repeated in-label", (&listSource{alphabet: 2, out: [][]digraph.SourceArc{arcs(2, 1), arcs(2, 1), nil}}).mirrored(), false},
		{"AppendArcs past Degree", &listSource{alphabet: 1,
			out: [][]digraph.SourceArc{arcs(1, 0), nil}, in: [][]digraph.SourceArc{nil, arcs(0, 0)},
			degree: func(int64) (int, int) { return 0, 0 }}, true},
		{"AppendArcs short of Degree", &listSource{alphabet: 1,
			out: [][]digraph.SourceArc{arcs(1, 0), nil}, in: [][]digraph.SourceArc{nil, arcs(0, 0)},
			degree: func(v int64) (int, int) { return 1, 1 }}, true},
		{"out and in swapped against Degree", &listSource{alphabet: 1,
			out: [][]digraph.SourceArc{arcs(1, 0), nil}, in: [][]digraph.SourceArc{nil, arcs(0, 0)},
			degree: func(v int64) (int, int) { return int(v), 1 - int(v) }}, true},
		{"negative degree", &listSource{alphabet: 1,
			out: [][]digraph.SourceArc{nil, nil}, in: [][]digraph.SourceArc{nil, nil},
			degree: func(int64) (int, int) { return -1, 1 }}, true},
		{"negative alphabet", &listSource{alphabet: -1, out: [][]digraph.SourceArc{nil}, in: [][]digraph.SourceArc{nil}}, false},
		{"negative node count", &listSource{alphabet: 1, n: -1}, true},
		{"node count past capacity", &listSource{alphabet: 1, n: graph.FlatCapacity + 1}, true},
		{"arc count past capacity", &listSource{alphabet: 1, n: 2,
			degree: func(int64) (int, int) { return math.MaxInt32, 0 }}, true},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			if d, err := noPanic(t, "FromSource", func() (any, error) { return digraph.FromSource(f.src) }); err == nil {
				t.Errorf("FromSource accepted: %v", d)
			}
			g, err := noPanic(t, "UnderlyingOf", func() (any, error) { return digraph.UnderlyingOf(f.src) })
			if f.underlying && err == nil {
				t.Errorf("UnderlyingOf accepted: %v", g)
			}
		})
	}
	// An in-arc whose out-arc is missing: the rows stop mirroring.
	orphan := &listSource{alphabet: 1, out: [][]digraph.SourceArc{nil, nil}, in: [][]digraph.SourceArc{nil, arcs(0, 0)}}
	if g, err := noPanic(t, "UnderlyingOf", func() (any, error) { return digraph.UnderlyingOf(orphan) }); err == nil {
		t.Errorf("UnderlyingOf accepted an in-arc with no out-arc: %v", g)
	}
}

// noPanic runs fn, turning a panic into a test failure.
func noPanic(t *testing.T, what string, fn func() (any, error)) (v any, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s panicked: %v", what, r)
			err = fmt.Errorf("panic")
		}
	}()
	return fn()
}

// decodeSource reads a source on at most 16 nodes from fuzz bytes:
// data[0] gives n (low bits) and whether the in-lists mirror the
// out-lists (high bit), data[1] the alphabet, then each byte triple
// one arc — its tail, an endpoint in [-1, n] and a label in
// [-1, alphabet], so every range fault is reachable. Unmirrored, the
// high bit of the tail byte puts the arc on the in-list of its tail.
// Degree always matches the lists.
func decodeSource(data []byte) (*listSource, bool) {
	if len(data) < 2 {
		return &listSource{}, true
	}
	n, mirror := int(data[0]&0x7f)%17, data[0]&0x80 != 0
	s := &listSource{alphabet: int(data[1]) % 5, out: make([][]digraph.SourceArc, n), in: make([][]digraph.SourceArc, n)}
	for rest := data[2:]; len(rest) >= 3 && n > 0; rest = rest[3:] {
		u := int(rest[0]&0x7f) % n
		a := digraph.SourceArc{To: int64(rest[1])%int64(n+2) - 1, Label: int(rest[2])%(s.alphabet+2) - 1}
		if !mirror && rest[0]&0x80 != 0 {
			s.in[u] = append(s.in[u], a)
		} else {
			s.out[u] = append(s.out[u], a)
		}
	}
	if mirror {
		s.mirrored()
	}
	return s, mirror
}

// FuzzFromSource: FromSource accepts exactly the sources the Builder
// reference accepts and then returns its digraph; when the in-lists
// mirror the out-lists, UnderlyingOf agrees with the digraph's
// Underlying.
func FuzzFromSource(f *testing.F) {
	f.Add([]byte{0x83, 1, 0, 2, 1, 1, 3, 1, 2, 1, 1})          // mirrored 3-node directed cycle
	f.Add([]byte{0x84, 2, 0, 2, 1, 0, 3, 1})                   // repeated out-label
	f.Add([]byte{0x83, 1, 0, 1, 1})                            // self-loop
	f.Add([]byte{0x05, 3, 0, 2, 1, 0x81, 1, 1, 1, 3, 2})       // unmirrored in-list
	f.Add([]byte{0x90, 4, 0, 2, 1, 1, 3, 2, 2, 4, 3, 3, 1, 1}) // 16 nodes, a 4-cycle
	f.Fuzz(func(t *testing.T, data []byte) {
		src, mirror := decodeSource(data)
		want, werr := materializeReference(src)
		got, gerr := digraph.FromSource(src)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("reference error %v, FromSource error %v", werr, gerr)
		}
		if gerr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("FromSource %v differs from reference %v", got, want)
		}
		if !mirror {
			return
		}
		wantG, werr := got.Underlying()
		gotG, gerr := digraph.UnderlyingOf(src)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("Underlying error %v, UnderlyingOf error %v", werr, gerr)
		}
		if gerr == nil && !reflect.DeepEqual(gotG, wantG) {
			t.Fatalf("UnderlyingOf %v differs from Underlying %v", gotG, wantG)
		}
	})
}
