package host

import (
	"fmt"
	"math"
	"math/big"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/model"
)

// TestParseRejectsOverCapacity: descriptors whose derived size cannot
// fit the int32 flat-CSR substrate fail at parse time — fast, with no
// giant allocation — and the error points at the sharded escape
// hatch by name.
func TestParseRejectsOverCapacity(t *testing.T) {
	cases := []string{
		"torus:100000x100000",
		"grid:70000x70000",
		"grid3d:2000x2000x2000",
		"complete:100000",
		"cycle:3000000000",
		"dcycle:2200000000",
		"path:2147483648",
		"circulant:200000000,1+2+3+4+5+6",
		"random-regular:d=30,n=100000000,seed=1",
		"shift-regular:d=30,n=100000000,seed=1",
		"lift:cycle:2000000,l=2000",
	}
	for _, desc := range cases {
		_, err := Parse(desc)
		if err == nil {
			t.Errorf("Parse(%q): expected a flat-capacity error, got nil", desc)
			continue
		}
		for _, want := range []string{
			"exceeds the flat-CSR int32 capacity",
			"use shards",
			"shard-capable families:",
			"torus", // at least one real family must be named
		} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Parse(%q) error %q: missing %q", desc, err, want)
			}
		}
	}
}

// TestCheckFlatBoundary pins the exact capacity boundary without
// allocating anything.
func TestCheckFlatBoundary(t *testing.T) {
	if err := checkFlat(graph.FlatCapacity, graph.FlatCapacity); err != nil {
		t.Fatalf("checkFlat at capacity: %v", err)
	}
	if err := checkFlat(graph.FlatCapacity+1, 0); err == nil {
		t.Fatal("checkFlat(cap+1 nodes) accepted")
	}
	if err := checkFlat(0, graph.FlatCapacity+1); err == nil {
		t.Fatal("checkFlat(cap+1 arcs) accepted")
	}
}

// TestMulNodesOverflow: the dimension product stops at the first
// over-capacity prefix instead of overflowing int64.
func TestMulNodesOverflow(t *testing.T) {
	if n, err := mulNodes([]int{10, 20, 30}); err != nil || n != 6000 {
		t.Fatalf("mulNodes(10,20,30) = %d, %v", n, err)
	}
	for _, dims := range [][]int{
		{100000, 100000},
		{46341, 46341},                       // 46341^2 = 2147488281, just past 2^31-1
		{1 << 20, 1 << 20, 1 << 20, 1 << 20}, // would overflow int64 without the prefix check
	} {
		if _, err := mulNodes(dims); err == nil {
			t.Errorf("mulNodes(%v) accepted", dims)
		}
	}
}

// TestShiftRegularFamily: the materialised shift-regular host is
// d-regular with a proper d/2-label orientation, and invalid
// parameters are rejected.
func TestShiftRegularFamily(t *testing.T) {
	h := MustParse("shift-regular:d=4,n=16,seed=7")
	if h.G.N() != 16 {
		t.Fatalf("n = %d", h.G.N())
	}
	for v := 0; v < h.G.N(); v++ {
		if h.G.Degree(v) != 4 {
			t.Fatalf("node %d has degree %d, want 4", v, h.G.Degree(v))
		}
		if len(h.D.Out(v)) != 2 || len(h.D.In(v)) != 2 {
			t.Fatalf("node %d has out/in %d/%d, want 2/2", v, len(h.D.Out(v)), len(h.D.In(v)))
		}
	}
	for _, bad := range []string{
		"shift-regular:d=3,n=16,seed=1", // odd degree
		"shift-regular:d=8,n=7,seed=1",  // d/2 > (n-1)/2
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestShardFamiliesAndParseShard: the implicit registry lists its
// families, resolves their descriptors and rejects the rest by
// pointing at what it can do.
func TestShardFamiliesAndParseShard(t *testing.T) {
	fams := ShardFamilies()
	for _, want := range []string{"cycle", "dcycle", "torus", "shift-regular"} {
		if !slices.Contains(fams, want) {
			t.Errorf("ShardFamilies() = %v: missing %q", fams, want)
		}
	}
	src, err := ParseShard("cycle:12")
	if err != nil {
		t.Fatalf("ParseShard(cycle:12): %v", err)
	}
	if src.N() != 12 || src.Alphabet() != 3 {
		t.Fatalf("cycle:12 source: n=%d alphabet=%d", src.N(), src.Alphabet())
	}
	if _, err := ParseShard("petersen"); err == nil ||
		!strings.Contains(err.Error(), "no implicit shard source") ||
		!strings.Contains(err.Error(), "shard-capable families:") {
		t.Fatalf("ParseShard(petersen) = %v", err)
	}
	if _, err := ParseShard("cycle:nope"); err == nil {
		t.Fatal("ParseShard(cycle:nope) accepted")
	}
	// The implicit grammar accepts sizes the flat registry cannot:
	// the whole point of the sources.
	big, err := ParseShard("dcycle:3000000000")
	if err != nil || big.N() != 3000000000 {
		t.Fatalf("ParseShard(dcycle:3000000000): n=%v err=%v", big, err)
	}
}

// sameDigraph asserts two labelled digraphs are arc-for-arc equal.
func sameDigraph(t *testing.T, name string, got, want *digraph.Digraph) {
	t.Helper()
	if got.N() != want.N() || got.Alphabet() != want.Alphabet() {
		t.Fatalf("%s: n/alphabet %d/%d, want %d/%d", name, got.N(), got.Alphabet(), want.N(), want.Alphabet())
	}
	for v := 0; v < want.N(); v++ {
		if !slices.Equal(got.Out(v), want.Out(v)) {
			t.Fatalf("%s: node %d out arcs %v, want %v", name, v, got.Out(v), want.Out(v))
		}
		if !slices.Equal(got.In(v), want.In(v)) {
			t.Fatalf("%s: node %d in arcs %v, want %v", name, v, got.In(v), want.In(v))
		}
	}
}

// TestCycleSourceMatchesFromPorts pins the cycle source's closed-form
// labelling to the canonical digraph.FromPorts(graph.Cycle(n), nil)
// labelling, arc for arc — the equality the source's comment promises.
func TestCycleSourceMatchesFromPorts(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8, 12, 33} {
		src, err := ParseShard(fmt.Sprintf("cycle:%d", n))
		if err != nil {
			t.Fatal(err)
		}
		got, err := model.MaterializeSource(src)
		if err != nil {
			t.Fatalf("materialize cycle:%d: %v", n, err)
		}
		sameDigraph(t, fmt.Sprintf("cycle:%d", n), got.D, digraph.FromPorts(graph.Cycle(n), nil).D)
	}
}

// dcycleReference builds the dcycle:<n> host arc by arc through
// digraph.Builder, independently of the source the family builds
// from: the reference the registry and the source are checked against.
func dcycleReference(n int) *Host {
	b := digraph.NewBuilder(n, 1)
	for i := 0; i < n; i++ {
		b.MustAddArc(i, (i+1)%n, 0)
	}
	return referenceHost(b.Build())
}

// shiftRegularReference builds the shift-regular:d=<d>,n=<n>,seed=<s>
// host arc by arc through digraph.Builder from the family's shift
// derivation.
func shiftRegularReference(t *testing.T, d, n int, seed int64) *Host {
	t.Helper()
	shifts, err := shiftRegularShifts(n, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	b := digraph.NewBuilder(n, len(shifts))
	for v := 0; v < n; v++ {
		for j, s := range shifts {
			b.MustAddArc(v, (v+int(s))%n, j)
		}
	}
	return referenceHost(b.Build())
}

func referenceHost(d *digraph.Digraph) *Host {
	g, err := d.Underlying()
	if err != nil {
		panic(err)
	}
	return &Host{G: g, D: d}
}

// TestDcycleSourceMatchesRegistry: the implicit oriented cycle equals
// the registry's labelling, built arc by arc (dcycleReference).
func TestDcycleSourceMatchesRegistry(t *testing.T) {
	for _, n := range []int{3, 7, 12} {
		desc := fmt.Sprintf("dcycle:%d", n)
		src, err := ParseShard(desc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := model.MaterializeSource(src)
		if err != nil {
			t.Fatal(err)
		}
		sameDigraph(t, desc, got.D, dcycleReference(n).D)
	}
}

// TestShiftRegularSourceMatchesRegistry: the implicit shift-regular
// host agrees arc for arc with the family's shifts added one arc at a
// time (shiftRegularReference).
func TestShiftRegularSourceMatchesRegistry(t *testing.T) {
	for _, c := range []struct {
		d, n int
		seed int64
	}{{4, 16, 7}, {6, 31, 3}, {2, 5, 1}} {
		desc := fmt.Sprintf("shift-regular:d=%d,n=%d,seed=%d", c.d, c.n, c.seed)
		src, err := ParseShard(desc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := model.MaterializeSource(src)
		if err != nil {
			t.Fatal(err)
		}
		sameDigraph(t, desc, got.D, shiftRegularReference(t, c.d, c.n, c.seed).D)
	}
}

// TestTorusSourceUnderlyingMatchesRegistry: the implicit torus
// carries its own dimension-indexed labelling, but its underlying
// graph must be exactly graph.Torus — same row-major ids, same edges.
func TestTorusSourceUnderlyingMatchesRegistry(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {3, 4, 5}, {3, 3}} {
		desc := "torus:" + joinDims(dims)
		src, err := ParseShard(desc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := model.MaterializeSource(src)
		if err != nil {
			t.Fatalf("materialize %s: %v", desc, err)
		}
		want := graph.Torus(dims...)
		if got.G.N() != want.N() {
			t.Fatalf("%s: n = %d, want %d", desc, got.G.N(), want.N())
		}
		for v := 0; v < want.N(); v++ {
			if !slices.Equal(got.G.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("%s: node %d neighbours %v, want %v", desc, v, got.G.Neighbors(v), want.Neighbors(v))
			}
		}
	}
}

func joinDims(dims []int) string {
	parts := make([]string, len(dims))
	for i, s := range dims {
		parts[i] = strconv.Itoa(s)
	}
	return strings.Join(parts, "x")
}

// TestParseMatchesBuilderReference: the families Parse builds from
// their source come out array for array equal to the hosts built edge
// by edge or arc by arc — graph.Cycle and graph.Torus for the plain
// families (D nil), digraph.Builder loops for the labelled ones — at
// small sizes and at 65,536 nodes.
func TestParseMatchesBuilderReference(t *testing.T) {
	cases := map[string]*Host{}
	for _, n := range []int{3, 4, 65536} {
		cases[fmt.Sprintf("cycle:%d", n)] = &Host{G: graph.Cycle(n)}
	}
	for _, n := range []int{3, 65536} {
		cases[fmt.Sprintf("dcycle:%d", n)] = dcycleReference(n)
	}
	for _, dims := range [][]int{{3, 3}, {4, 4}, {3, 4, 5}, {256, 256}} {
		cases["torus:"+joinDims(dims)] = &Host{G: graph.Torus(dims...)}
	}
	for _, c := range []struct {
		d, n int
		seed int64
	}{{2, 5, 1}, {6, 31, 3}, {4, 65536, 1}} {
		cases[fmt.Sprintf("shift-regular:d=%d,n=%d,seed=%d", c.d, c.n, c.seed)] = shiftRegularReference(t, c.d, c.n, c.seed)
	}
	for desc, want := range cases {
		h, err := Parse(desc)
		if err != nil {
			t.Fatalf("Parse(%q): %v", desc, err)
		}
		if !reflect.DeepEqual(h.G, want.G) {
			t.Errorf("%s: G differs from the reference", desc)
		}
		if !reflect.DeepEqual(h.D, want.D) {
			t.Errorf("%s: D differs from the reference (nil: %v, want nil: %v)", desc, h.D == nil, want.D == nil)
		}
	}
}

// TestParseShardRejectsWrappingTorus: a torus whose side product is
// past math.MaxInt64 has no int64 node ids, so the shard source
// refuses it instead of wrapping its node count (to 0, to a negative
// number, or to 2^33+1 with endpoints outside [0, N)). No engine is
// built: ParseShard alone must fail.
func TestParseShardRejectsWrappingTorus(t *testing.T) {
	for _, desc := range []string{
		"torus:65536x65536x65536x65536",
		"torus:3037000500x3037000500",
		"torus:4294967297x4294967297",
	} {
		src, err := ParseShard(desc)
		if err == nil {
			t.Errorf("ParseShard(%q) accepted, N() = %d", desc, src.N())
			continue
		}
		if !strings.Contains(err.Error(), "exceeds 9223372036854775807") {
			t.Errorf("ParseShard(%q) = %v", desc, err)
		}
	}
	// Just below the bound the source exists and its arcs stay inside.
	src, err := ParseShard("torus:3037000499x3037000499")
	if err != nil {
		t.Fatal(err)
	}
	checkEndpoints(t, src, 0, 1, src.N()/2, src.N()-1)
}

// TestParseShardDcycleEnds: the largest directed cycle's arcs at and
// near both ends name nodes inside [0, N).
func TestParseShardDcycleEnds(t *testing.T) {
	src, err := ParseShard("dcycle:9223372036854775807")
	if err != nil {
		t.Fatal(err)
	}
	n := src.N()
	checkEndpoints(t, src, 0, 1, 2, n/2, n-2, n-1)
	out, in := src.AppendArcs(n-1, nil, nil)
	if out[0].To != 0 || in[0].To != n-2 {
		t.Fatalf("node %d: out %v, in %v", n-1, out, in)
	}
}

// TestParseShardShiftRegularHuge: shift-regular sources past 2.3*10^18
// nodes resolve (the draw bound saturates instead of overflowing), and
// at and near both ends each arc is v +- shift mod n computed exactly,
// inside [0, N), with the far end's arc of the same label leading back.
// A degree past the int32 slot range is rejected, naming the bound,
// before anything is sized from it.
func TestParseShardShiftRegularHuge(t *testing.T) {
	const hugeD = "shift-regular:d=1000000000000000000,n=9223372036854775807,seed=1"
	if _, err := ParseShard(hugeD); err == nil || !strings.Contains(err.Error(), "d <= 2147483647") {
		t.Errorf("ParseShard(%q): err %v, want the d bound", hugeD, err)
	}
	for _, n := range []int64{4000000000000000000, math.MaxInt64} {
		desc := fmt.Sprintf("shift-regular:d=4,n=%d,seed=1", n)
		src, err := ParseShard(desc)
		if err != nil {
			t.Fatalf("ParseShard(%q): %v", desc, err)
		}
		if src.N() != n {
			t.Fatalf("%s: N() = %d", desc, src.N())
		}
		nodes := []int64{0, 1, n / 2, n - 2, n - 1}
		checkEndpoints(t, src, nodes...)
		shifts := src.(shiftSource).shifts
		bn := big.NewInt(n)
		for _, v := range nodes {
			out, in := src.AppendArcs(v, nil, nil)
			for j, s := range shifts {
				if s < 1 || s > (n-1)/2 {
					t.Fatalf("%s: shift %d outside [1, (n-1)/2]", desc, s)
				}
				fwd := new(big.Int).Mod(new(big.Int).Add(big.NewInt(v), big.NewInt(s)), bn).Int64()
				bwd := new(big.Int).Mod(new(big.Int).Sub(big.NewInt(v), big.NewInt(s)), bn).Int64()
				if out[j] != (digraph.SourceArc{To: fwd, Label: j}) || in[j] != (digraph.SourceArc{To: bwd, Label: j}) {
					t.Errorf("%s node %d label %d: out %v in %v, want to %d from %d", desc, v, j, out[j], in[j], fwd, bwd)
				}
				if _, back := src.AppendArcs(fwd, nil, nil); back[j].To != v {
					t.Errorf("%s: in-arc %d at %d comes from %d, not %d", desc, j, fwd, back[j].To, v)
				}
			}
		}
	}
}

func checkEndpoints(t *testing.T, src digraph.Source, nodes ...int64) {
	t.Helper()
	for _, v := range nodes {
		out, in := src.AppendArcs(v, nil, nil)
		for _, a := range append(out, in...) {
			if a.To < 0 || a.To >= src.N() {
				t.Errorf("node %d: arc endpoint %d outside [0,%d)", v, a.To, src.N())
			}
		}
	}
}

// TestParseSourcedAllocs: building a sourced family is a handful of
// array allocations, not one per node or arc.
func TestParseSourcedAllocs(t *testing.T) {
	for _, desc := range []string{"torus:64x64", "dcycle:4096"} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Parse(desc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 32 {
			t.Errorf("Parse(%q): %.0f allocations, want at most 32", desc, allocs)
		}
	}
}
