package host

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/digraph"
)

// The families here generate their host node by node under
// digraph.Source. ParseShard returns the source as is, so a 10^8-node
// host never materialises; Parse builds the flat host from the same
// source in one counting pass: digraph.FromSource for the labelled
// families (D is the source's digraph), digraph.UnderlyingOf for the
// plain ones (D nil). The torus source's dimension-indexed labels are
// not FromPorts' compact ones, which depend on a global first-encounter
// order no local rule reproduces, so the flat torus stays plain.

func init() {
	Register(Family{
		Name: "cycle", Syntax: "cycle:<n>", Doc: "the n-cycle (n >= 3)",
		Source: parseCycle, Build: unlabelled(parseCycle),
	})
	Register(Family{
		Name: "dcycle", Syntax: "dcycle:<n>", Doc: "the consistently oriented directed n-cycle (n >= 3)",
		Source: parseDcycle, Build: labelled(parseDcycle),
	})
	Register(Family{
		Name: "torus", Syntax: "torus:<s1>x<s2>[x<s3>...]", Doc: "toroidal grid, every side >= 3",
		Source: parseTorus, Build: unlabelled(parseTorus),
	})
	Register(Family{
		Name:   "shift-regular",
		Syntax: "shift-regular:d=<d>,n=<n>,seed=<s>",
		Doc:    "d-regular circulant on d/2 seeded distinct shifts (shard-generable stand-in for random-regular)",
		Source: parseShiftRegular, Build: labelled(parseShiftRegular),
	})
}

// labelled derives a labelled family's Build from its Source: D is the
// digraph the source generates, G its underlying graph.
func labelled(source func(*Params) (digraph.Source, error)) func(*Params) (*Host, error) {
	return func(p *Params) (*Host, error) {
		p.flat = true
		src, err := source(p)
		if err != nil {
			return nil, err
		}
		d, err := digraph.FromSource(src)
		if err != nil {
			return nil, err
		}
		g, err := d.Underlying()
		if err != nil {
			return nil, err
		}
		return &Host{G: g, D: d}, nil
	}
}

// unlabelled derives a plain family's Build from its Source: G is the
// source's underlying graph and D is left nil.
func unlabelled(source func(*Params) (digraph.Source, error)) func(*Params) (*Host, error) {
	return func(p *Params) (*Host, error) {
		p.flat = true
		src, err := source(p)
		if err != nil {
			return nil, err
		}
		g, err := digraph.UnderlyingOf(src)
		if err != nil {
			return nil, err
		}
		return &Host{G: g}, nil
	}
}

// ShardFamilies returns the names of the families that can generate
// shard-locally (those with a Source), sorted — the escape hatch the
// flat-capacity errors point at.
func ShardFamilies() []string {
	var out []string
	for _, f := range Families() {
		if f.Source != nil {
			out = append(out, f.Name)
		}
	}
	return out
}

// ParseShard resolves a descriptor into an implicit shard source.
// The grammar is exactly Parse's; only families with a Source
// resolve (ShardFamilies lists them).
func ParseShard(desc string) (digraph.Source, error) {
	name, rest := splitDesc(desc)
	regMu.RLock()
	f := registry[name]
	regMu.RUnlock()
	if f.Source == nil {
		return nil, fmt.Errorf("host: family %q has no implicit shard source (shard-capable families: %s)",
			name, strings.Join(ShardFamilies(), ", "))
	}
	p, err := parseParams(rest)
	if err != nil {
		return nil, fmt.Errorf("host: descriptor %q: %w", desc, err)
	}
	src, err := f.Source(p)
	if err != nil {
		return nil, fmt.Errorf("host: %s: %w", desc, err)
	}
	if err := p.unusedErr(); err != nil {
		return nil, fmt.Errorf("host: descriptor %q: %w", desc, err)
	}
	return src, nil
}

func parseCycle(p *Params) (digraph.Source, error) {
	n, err := p.Int64("n", 12)
	if err != nil || n < 3 {
		return nil, orErr(err, "need n >= 3")
	}
	if err := p.fitsFlat(n, 2*n); err != nil {
		return nil, err
	}
	return cycleSource{n: n}, nil
}

func parseDcycle(p *Params) (digraph.Source, error) {
	n, err := p.Int64("n", 12)
	if err != nil || n < 3 {
		return nil, orErr(err, "need n >= 3")
	}
	if err := p.fitsFlat(n, 2*n); err != nil {
		return nil, err
	}
	return dcycleSource{n: n}, nil
}

func parseTorus(p *Params) (digraph.Source, error) {
	dims, err := p.Dims("dims", []int{6, 6})
	if err != nil {
		return nil, err
	}
	for _, s := range dims {
		if s < 3 {
			return nil, fmt.Errorf("side %d < 3", s)
		}
	}
	if p.flat {
		n, err := mulNodes(dims)
		if err != nil {
			return nil, err
		}
		if err := checkFlat(n, 2*int64(len(dims))*n); err != nil {
			return nil, err
		}
	}
	return newTorusSource(dims)
}

func parseShiftRegular(p *Params) (digraph.Source, error) {
	d, err := p.Int("d", 4)
	if err != nil {
		return nil, err
	}
	n, err := p.Int("n", 16)
	if err != nil {
		return nil, err
	}
	seed, err := p.Int64("seed", 1)
	if err != nil {
		return nil, err
	}
	if err := p.fitsFlat(int64(n), int64(n)*int64(d)); err != nil {
		return nil, err
	}
	shifts, err := shiftRegularShifts(n, d, seed)
	if err != nil {
		return nil, err
	}
	return shiftSource{n: int64(n), shifts: shifts}, nil
}

// cycleSource generates the undirected n-cycle with exactly the
// canonical labelling digraph.FromPorts(graph.Cycle(n), nil) assigns:
// compact labels in first-encounter order over the lexicographic edge
// sweep, which for a cycle closes to three labels — (1,1) on 0->1,
// (2,1) on every other forward arc and on 0->n-1, (2,2) on the last
// arc n-2 -> n-1. The equality is pinned by a differential test.
type cycleSource struct{ n int64 }

func (c cycleSource) N() int64      { return c.n }
func (c cycleSource) Alphabet() int { return 3 }

func (c cycleSource) Degree(v int64) (int, int) {
	switch v {
	case 0:
		return 2, 0
	case c.n - 1:
		return 0, 2
	default:
		return 1, 1
	}
}

func (c cycleSource) AppendArcs(v int64, out, in []digraph.SourceArc) ([]digraph.SourceArc, []digraph.SourceArc) {
	n := c.n
	switch {
	case v == 0:
		out = append(out, digraph.SourceArc{To: 1, Label: 0}, digraph.SourceArc{To: n - 1, Label: 1})
	case v == n-1:
		in = append(in, digraph.SourceArc{To: 0, Label: 1}, digraph.SourceArc{To: n - 2, Label: 2})
	default:
		lbl := 1
		if v == n-2 {
			lbl = 2
		}
		out = append(out, digraph.SourceArc{To: v + 1, Label: lbl})
		prev := 1
		if v == 1 {
			prev = 0
		}
		in = append(in, digraph.SourceArc{To: v - 1, Label: prev})
	}
	return out, in
}

// dcycleSource generates the consistently oriented directed n-cycle
// with the registry's labelling: every arc i -> i+1 mod n carries
// label 0. The ends wrap by comparison, not by v - 1 + n, which
// overflows int64 for n past math.MaxInt64/2.
type dcycleSource struct{ n int64 }

func (c dcycleSource) N() int64                { return c.n }
func (c dcycleSource) Alphabet() int           { return 1 }
func (c dcycleSource) Degree(int64) (int, int) { return 1, 1 }

func (c dcycleSource) AppendArcs(v int64, out, in []digraph.SourceArc) ([]digraph.SourceArc, []digraph.SourceArc) {
	next, prev := v+1, v-1
	if next == c.n {
		next = 0
	}
	if v == 0 {
		prev = c.n - 1
	}
	out = append(out, digraph.SourceArc{To: next, Label: 0})
	in = append(in, digraph.SourceArc{To: prev, Label: 0})
	return out, in
}

// torusSource generates the k-dimensional torus (row-major node ids,
// matching graph.Torus) under its own canonical labelling: the +1
// step along dimension e is the out-arc labelled e, the -1 step the
// in-arc labelled e. This is a proper labelling (one out- and one
// in-label per dimension) but NOT the FromPorts compact labelling —
// the implicit torus is its own host family variant, and sharded
// runs compare against its materialised form via
// model.MaterializeSource.
type torusSource struct {
	dims   []int64
	stride []int64
	n      int64
}

// newTorusSource lays out the torus with the given sides (each >= 3).
// Node ids are int64, so a node count past math.MaxInt64 is an error:
// a wrapped count would name endpoints outside [0, N).
func newTorusSource(dims []int) (digraph.Source, error) {
	k := len(dims)
	t := torusSource{dims: make([]int64, k), stride: make([]int64, k), n: 1}
	for i, s := range dims {
		if t.n > math.MaxInt64/int64(s) {
			return nil, fmt.Errorf("node count (the product of the sides) exceeds %d", int64(math.MaxInt64))
		}
		t.dims[i] = int64(s)
		t.n *= int64(s)
	}
	st := int64(1)
	for e := k - 1; e >= 0; e-- {
		t.stride[e] = st
		st *= t.dims[e]
	}
	return t, nil
}

func (t torusSource) N() int64      { return t.n }
func (t torusSource) Alphabet() int { return len(t.dims) }
func (t torusSource) Degree(int64) (int, int) {
	return len(t.dims), len(t.dims)
}

func (t torusSource) AppendArcs(v int64, out, in []digraph.SourceArc) ([]digraph.SourceArc, []digraph.SourceArc) {
	for e := range t.dims {
		s, st := t.dims[e], t.stride[e]
		c := (v / st) % s
		fwd, bwd := v+st, v-st
		if c == s-1 {
			fwd = v - (s-1)*st
		}
		if c == 0 {
			bwd = v + (s-1)*st
		}
		out = append(out, digraph.SourceArc{To: fwd, Label: e})
		in = append(in, digraph.SourceArc{To: bwd, Label: e})
	}
	return out, in
}

// shiftSource generates the shift-regular circulant implicitly: the
// out-arc labelled j goes to v + shifts[j] mod n. The ends wrap by
// comparison, as the dcycle source's do: v + s and v - s + n overflow
// int64 for n past math.MaxInt64/2.
type shiftSource struct {
	n      int64
	shifts []int64
}

func (c shiftSource) N() int64      { return c.n }
func (c shiftSource) Alphabet() int { return len(c.shifts) }
func (c shiftSource) Degree(int64) (int, int) {
	return len(c.shifts), len(c.shifts)
}

func (c shiftSource) AppendArcs(v int64, out, in []digraph.SourceArc) ([]digraph.SourceArc, []digraph.SourceArc) {
	for j, s := range c.shifts {
		fwd, bwd := v+s, v-s
		if v >= c.n-s {
			fwd = v - (c.n - s)
		}
		if v < s {
			bwd = v + (c.n - s)
		}
		out = append(out, digraph.SourceArc{To: fwd, Label: j})
		in = append(in, digraph.SourceArc{To: bwd, Label: j})
	}
	return out, in
}

// shiftRegularShifts derives the d/2 distinct shifts of the
// shift-regular family from (n, d, seed): a splitmix64 stream with
// rejection over [1, (n-1)/2], sorted ascending so shift index j is
// the family's canonical arc label.
func shiftRegularShifts(n, d int, seed int64) ([]int64, error) {
	if d < 2 || d%2 != 0 {
		return nil, fmt.Errorf("need even d >= 2")
	}
	// One node's d slots must fit a shard's int32 slot range; checked
	// before anything is sized from d.
	if d > math.MaxInt32 {
		return nil, fmt.Errorf("need d <= %d (one node's slots must fit the int32 slot range), have d=%d", math.MaxInt32, d)
	}
	half := (n - 1) / 2
	if n < 3 || d/2 > half {
		return nil, fmt.Errorf("need d/2 <= (n-1)/2 distinct shifts, have d=%d n=%d", d, n)
	}
	shifts := make([]int64, 0, d/2)
	seen := make(map[int64]bool, d/2)
	x := uint64(seed)
	// Coupon-collector slack even when d/2 == half. The sum would
	// overflow for n past about 2.3*10^18; there d/2 distinct shifts out
	// of half take a handful of draws, and the bound saturates instead.
	limit := math.MaxInt
	if d < math.MaxInt/128 && half < math.MaxInt/16 {
		limit = 64*(d+16) + 8*half
	}
	for draws := 0; len(shifts) < d/2; draws++ {
		if draws > limit {
			return nil, fmt.Errorf("shift derivation for n=%d d=%d seed=%d did not converge", n, d, seed)
		}
		x = splitmix64(x)
		s := int64(x%uint64(half)) + 1
		if seen[s] {
			continue
		}
		seen[s] = true
		shifts = append(shifts, s)
	}
	slices.Sort(shifts)
	return shifts, nil
}

// splitmix64 is the standard SplitMix64 finaliser, the same mixer the
// fault scheduler builds its coordinate hashes from.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
