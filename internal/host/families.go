package host

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/lift"
)

// plain wraps a *graph.Graph-producing constructor as a Host builder.
func plain(build func(p *Params) (*graph.Graph, error)) func(p *Params) (*Host, error) {
	return func(p *Params) (*Host, error) {
		g, err := build(p)
		if err != nil {
			return nil, err
		}
		return &Host{G: g}, nil
	}
}

func init() {
	Register(Family{
		Name: "path", Syntax: "path:<n>", Doc: "the path on n vertices",
		Build: plain(func(p *Params) (*graph.Graph, error) {
			n, err := p.Int("n", 12)
			if err != nil || n < 1 {
				return nil, orErr(err, "need n >= 1")
			}
			if err := checkFlat(int64(n), 2*(int64(n)-1)); err != nil {
				return nil, err
			}
			return graph.Path(n), nil
		}),
	})
	Register(Family{
		Name: "complete", Syntax: "complete:<n>", Doc: "the complete graph K_n",
		Build: plain(func(p *Params) (*graph.Graph, error) {
			n, err := p.Int("n", 5)
			if err != nil || n < 1 {
				return nil, orErr(err, "need n >= 1")
			}
			if err := checkFlat(int64(n), int64(n)*(int64(n)-1)); err != nil {
				return nil, err
			}
			return graph.Complete(n), nil
		}),
	})
	Register(Family{
		Name: "petersen", Syntax: "petersen", Doc: "the Petersen graph",
		Build: plain(func(p *Params) (*graph.Graph, error) { return graph.Petersen(), nil }),
	})
	Register(Family{
		Name: "grid", Syntax: "grid:<r>x<c>", Doc: "the r x c grid",
		Build: plain(func(p *Params) (*graph.Graph, error) {
			dims, err := p.Dims("dims", []int{4, 4})
			if err != nil {
				return nil, err
			}
			if len(dims) != 2 || dims[0] < 1 || dims[1] < 1 {
				return nil, fmt.Errorf("need two positive dimensions")
			}
			n, err := mulNodes(dims)
			if err != nil {
				return nil, err
			}
			if err := checkFlat(n, 4*n); err != nil {
				return nil, err
			}
			return graph.Grid(dims[0], dims[1]), nil
		}),
	})
	Register(Family{
		Name: "grid3d", Syntax: "grid3d:<x>x<y>x<z>", Doc: "the three-dimensional grid",
		Build: plain(func(p *Params) (*graph.Graph, error) {
			dims, err := p.Dims("dims", []int{3, 3, 3})
			if err != nil {
				return nil, err
			}
			if len(dims) != 3 || dims[0] < 1 || dims[1] < 1 || dims[2] < 1 {
				return nil, fmt.Errorf("need three positive dimensions")
			}
			n, err := mulNodes(dims)
			if err != nil {
				return nil, err
			}
			if err := checkFlat(n, 6*n); err != nil {
				return nil, err
			}
			return graph.Grid3D(dims[0], dims[1], dims[2]), nil
		}),
	})
	Register(Family{
		Name: "hypercube", Syntax: "hypercube:<k>", Doc: "the k-dimensional hypercube",
		Build: plain(func(p *Params) (*graph.Graph, error) {
			k, err := p.Int("k", 4)
			if err != nil || k < 1 || k > 20 {
				return nil, orErr(err, "need 1 <= k <= 20")
			}
			return graph.Hypercube(k), nil
		}),
	})
	Register(Family{
		Name: "circulant", Syntax: "circulant:<n>,<s1>+<s2>+...", Doc: "circulant C_n(S), offsets 0 < s <= n/2",
		Build: plain(func(p *Params) (*graph.Graph, error) {
			n, err := p.Int("n", 16)
			if err != nil || n < 3 {
				return nil, orErr(err, "need n >= 3")
			}
			offs, err := p.IntList("s", []int{1, 2})
			if err != nil {
				return nil, err
			}
			for _, s := range offs {
				if s <= 0 || 2*s > n {
					return nil, fmt.Errorf("offset %d out of range for n=%d", s, n)
				}
			}
			if err := checkFlat(int64(n), 2*int64(len(offs))*int64(n)); err != nil {
				return nil, err
			}
			return graph.Circulant(n, offs...), nil
		}),
	})
	Register(Family{
		Name: "random-regular", Syntax: "random-regular:d=<d>,n=<n>,seed=<s>", Doc: "random d-regular graph (pairing model)",
		Build: plain(func(p *Params) (*graph.Graph, error) {
			d, err := p.Int("d", 3)
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
			if d < 1 || n <= d || n*d%2 != 0 {
				return nil, fmt.Errorf("need 1 <= d < n with n*d even")
			}
			if err := checkFlat(int64(n), int64(n)*int64(d)); err != nil {
				return nil, err
			}
			return graph.RandomRegular(n, d, rand.New(rand.NewSource(seed))), nil
		}),
	})
	Register(Family{
		Name: "margulis-expander", Syntax: "margulis-expander:n=<n>", Doc: "Margulis/Gabber-Galil expander on Z_n x Z_n (degree <= 8)",
		Build: plain(func(p *Params) (*graph.Graph, error) {
			n, err := p.Int("n", 8)
			if err != nil || n < 2 || n > 1024 {
				return nil, orErr(err, "need 2 <= n <= 1024")
			}
			return graph.MargulisExpander(n), nil
		}),
	})
	Register(Family{
		Name:   "cayley",
		Syntax: "cayley:<W|H>,level=<i>,k=<k>,seed=<s>[,m=<m>][,max=<cap>]",
		Doc:    "Cayley graph of the paper's finite groups W_i or H_i(m) on k random generators",
		Build:  buildCayley,
	})
	Register(Family{
		Name:   "lift",
		Syntax: "lift:<base-descriptor>,l=<copies>[,seed=<s>]",
		Doc:    "cyclic l-lift of a base host (seed=0: single twisted arc; else random shifts)",
		Build:  buildLift,
	})
}

// orErr returns err when non-nil, else a new error with the message.
func orErr(err error, msg string) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("%s", msg)
}

// buildCayley materialises the Cayley graph C(G, S) of a finite group
// of the paper — W_level (coordinates mod 2) or H_level(m) — on k
// random distinct non-identity generators. The infinite U is rejected:
// only constant-radius balls of it exist (see homog.UCayley). When a
// generator is an involution the Cayley multigraph has parallel arc
// pairs; the underlying host graph collapses them, and D is left nil
// in that case (no proper simple labelling exists).
func buildCayley(p *Params) (*Host, error) {
	which := strings.ToUpper(p.Str("group", "W"))
	level, err := p.Int("level", 2)
	if err != nil {
		return nil, err
	}
	k, err := p.Int("k", 2)
	if err != nil {
		return nil, err
	}
	seed, err := p.Int64("seed", 1)
	if err != nil {
		return nil, err
	}
	m, err := p.Int("m", 4)
	if err != nil {
		return nil, err
	}
	maxNodes, err := p.Int("max", 1<<15)
	if err != nil {
		return nil, err
	}
	var fam group.Family
	var mod int
	switch which {
	case "W":
		if level < 1 {
			return nil, fmt.Errorf("need level >= 1")
		}
		fam, mod = group.W(level), 2
	case "H":
		fam, err = group.NewFamily(level, m)
		if err != nil {
			return nil, err
		}
		mod = m
	case "U":
		return nil, fmt.Errorf("U is infinite and cannot be materialised; use cayley:W or cayley:H")
	default:
		return nil, fmt.Errorf("unknown group %q (want W or H)", which)
	}
	total := fam.Order()
	if !total.IsInt64() || total.Int64() > int64(maxNodes) {
		return nil, fmt.Errorf("|%s_%d| = %v exceeds the %d-node cap (raise max=)", which, level, total, maxNodes)
	}
	n := int(total.Int64())
	if n <= k {
		return nil, fmt.Errorf("group of order %d cannot host %d distinct non-identity generators", n, k)
	}
	rng := rand.New(rand.NewSource(seed))
	gens, err := randomGenerators(fam, k, rng)
	if err != nil {
		return nil, err
	}
	cay, err := group.NewCayley(fam, gens)
	if err != nil {
		return nil, err
	}
	// Enumerate every element by odometer: S need not generate, so all
	// elements are materialisation starts (the graph may be disconnected).
	nodes := make([]string, n)
	e := make(group.Elem, fam.Dim())
	for i := 0; i < n; i++ {
		nodes[i] = cay.Node(e)
		for j := 0; j < len(e); j++ {
			e[j]++
			if e[j] < mod {
				break
			}
			e[j] = 0
		}
	}
	d, _, _, err := digraph.Materialize[string](cay, nodes, n)
	if err != nil {
		return nil, err
	}
	if g, err := d.Underlying(); err == nil {
		return &Host{G: g, D: d}, nil
	}
	g, err := collapseMultigraph(d)
	if err != nil {
		return nil, err
	}
	return &Host{G: g}, nil
}

// randomGenerators picks k distinct non-identity elements.
func randomGenerators(fam group.Family, k int, rng *rand.Rand) ([]group.Elem, error) {
	seen := map[string]bool{group.EncodeElem(fam.Identity()): true}
	var gens []group.Elem
	for guard := 0; len(gens) < k; guard++ {
		if guard > 200*k {
			return nil, fmt.Errorf("could not draw %d distinct non-identity generators", k)
		}
		e := fam.Rand(rng)
		key := group.EncodeElem(e)
		if seen[key] {
			continue
		}
		seen[key] = true
		gens = append(gens, e)
	}
	return gens, nil
}

// collapseMultigraph builds the simple underlying graph of a digraph
// whose undirected form has parallel arcs (generator involutions),
// deduplicating each neighbour row.
func collapseMultigraph(d *digraph.Digraph) (*graph.Graph, error) {
	n := d.N()
	rows := make([][]int32, n)
	for u := 0; u < n; u++ {
		for _, a := range d.Out(u) {
			rows[u] = append(rows[u], int32(a.To))
			rows[a.To] = append(rows[a.To], int32(u))
		}
	}
	off := make([]int32, n+1)
	for v, row := range rows {
		slices.Sort(row)
		rows[v] = slices.Compact(row)
		off[v+1] = off[v] + int32(len(rows[v]))
	}
	nbr := make([]int32, off[n])
	for v, row := range rows {
		copy(nbr[off[v]:], row)
	}
	return graph.FromCSR(off, nbr)
}

// buildLift resolves the base descriptor recursively, equips it with
// the canonical port labelling when it carries none, and takes a
// cyclic l-lift: seed=0 twists a single arc by one (the connected-lift
// construction of Prop. 4.5), any other seed hashes every arc to a
// pseudo-random shift.
func buildLift(p *Params) (*Host, error) {
	baseDesc := p.Pos()
	if baseDesc == "" {
		return nil, fmt.Errorf("missing base descriptor (e.g. lift:cycle:9,l=3)")
	}
	base, err := Parse(baseDesc)
	if err != nil {
		return nil, err
	}
	l, err := p.Int("l", 2)
	if err != nil {
		return nil, err
	}
	if l < 1 {
		return nil, fmt.Errorf("need l >= 1")
	}
	if err := checkFlat(int64(base.G.N())*int64(l), 4*int64(base.G.M())*int64(l)); err != nil {
		return nil, err
	}
	seed, err := p.Int64("seed", 0)
	if err != nil {
		return nil, err
	}
	bd := base.D
	if bd == nil {
		bd = digraph.FromPorts(base.G, nil).D
	}
	var shift lift.ShiftFunc
	if seed == 0 {
		// Twist the first arc only: l copies of the base re-joined into
		// one cycle of copies along that arc's fibre.
		tu, ta, found := firstArc(bd)
		if !found {
			return nil, fmt.Errorf("base host has no arcs")
		}
		shift = func(u, v, label int) int {
			if u == tu && v == ta.To && label == ta.Label {
				return 1
			}
			return 0
		}
	} else {
		shift = func(u, v, label int) int {
			h := uint64(seed)
			for _, x := range [3]int{u, v, label} {
				h ^= uint64(x) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
			}
			return int(h % uint64(l))
		}
	}
	ld, _, err := lift.Cyclic(bd, l, shift)
	if err != nil {
		return nil, err
	}
	g, err := ld.Underlying()
	if err != nil {
		return nil, err
	}
	return &Host{G: g, D: ld}, nil
}

// firstArc returns the first out-arc of the lowest-numbered vertex
// that has one.
func firstArc(d *digraph.Digraph) (int, digraph.Arc, bool) {
	for v := 0; v < d.N(); v++ {
		if out := d.Out(v); len(out) > 0 {
			return v, out[0], true
		}
	}
	return 0, digraph.Arc{}, false
}
