package order

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// Sweeper is the worker-local scratch of the ball-sweep engine: the
// reusable state one goroutine needs to extract canonical ordered
// balls over a whole host. The visited set is an epoch-stamped array —
// reset is an epoch bump, not a clear — the BFS queue, rank-sorted
// vertex list and candidate CSR are grown once and reused, and the
// candidate is hashed during assembly and resolved against an
// Interner in scratch form. On an interner hit (the steady state of a
// homogeneous host, where few distinct types exist) an extraction
// performs no heap allocation at all; only a miss copies the ball out
// of the scratch and registers it.
//
// A Sweeper belongs to one goroutine. Whole-host scans hand each
// worker its own via par.ForScratch; see SweepMeasure and
// SweepMeasureAll.
type Sweeper struct {
	seen  graph.VisitStamp // visited set; slot = canonical ball index
	queue []int32          // ball vertices in BFS order (host ids)
	depth []int32          // parallel to queue: BFS distance from the centre
	verts []int32          // ball vertices sorted by rank (host ids)
	ints  []int            // verts as []int, for CanonicalBallVerts callers
	off   []int32          // candidate CSR row offsets
	nbr   []int32          // candidate CSR adjacency

	// Layered-sweep scratch (CanonicalBalls). The outermost ball is
	// described in BFS space — depths, adjacency over BFS indices, and
	// the rank permutation of the BFS indices — which is enough to
	// determine the canonical ball at every radius, yet is assembled
	// without any per-row sorting (host rows arrive in a fixed order)
	// and with one packed-integer sort for the permutation.
	keys  []uint64 // packed (rank << 21 | BFS index) sort keys
	perm  []int32  // rank position -> BFS index
	pos   []int32  // BFS index -> rank position (miss path)
	boff  []int32  // BFS-space adjacency row offsets
	bnbr  []int32  // BFS-space adjacency
	dpt   []int32  // depth of rank position p (miss path)
	lslot []int32  // rank position -> layer slot (-1 = outside)
	loff  []int32  // layer CSR row offsets
	lnbr  []int32  // layer CSR adjacency

	// Worker-local bundle cache: the BFS-space structure plus the rank
	// permutation determines the canonical ball at every radius, so
	// repeated local structures — almost every vertex of a homogeneous
	// host — resolve all rmax layers with one probe of this
	// goroutine-private map, no interner traffic at all. The cache is
	// keyed on structure only, so it survives host and rank changes;
	// it is flushed when the interner or rmax changes, since the
	// cached *Ball pointers belong to one interner. Size is capped at
	// maxBundles: on a heterogeneous host where nearly every vertex
	// has a unique layered neighbourhood a full cache stops admitting
	// entries (extractions stay correct, they just canonicalise each
	// time), bounding memory at O(maxBundles × ball footprint)
	// instead of O(host).
	bundles map[uint64][]*ballBundle
	nbund   int
	bin     *Interner
	brmax   int
}

// maxBundles caps the worker-local bundle cache of CanonicalBalls.
const maxBundles = 1 << 12

// ballBundle is one cached layered structure (in BFS space, exactly
// the fields the probe compares) and its per-radius canonical balls
// (balls[r-1] is the radius-r representative). hits counts the
// vertices that resolved to it in the whole-host sweep that made its
// sweeper (sweepMeasureAll makes fresh ones per scan, and the vertex
// that creates a bundle is its first hit), so the sweep tallies one
// count per bundle instead of rmax map increments per vertex.
type ballBundle struct {
	depth []int32
	boff  []int32
	bnbr  []int32
	perm  []int32
	balls []*Ball
	hits  int
}

// NewSweeper returns an empty sweeper; its buffers are sized on first
// use and grow to the largest host swept.
func NewSweeper() *Sweeper { return &Sweeper{} }

// CanonicalBall extracts the canonical ordered neighbourhood
// τ(g, <, v) of radius r into the sweeper's scratch and resolves it
// against the interner, returning the canonical representative. The
// result is pointer-identical to in.Canon(CanonicalBall(g, rank, v, r))
// and, on an interner hit, is produced without allocating.
func (s *Sweeper) CanonicalBall(g *graph.Graph, rank Rank, v, r int, in *Interner) *Ball {
	s.sweep(g, rank, v, r)
	root := int(s.seen.Slot(int32(v)))
	s.off = append(s.off[:0], 0)
	s.nbr = s.nbr[:0]
	h := typeHashBegin(len(s.verts), root)
	for i, u := range s.verts {
		start := len(s.nbr)
		for _, w := range g.Neighbors(int(u)) {
			if s.seen.Visited(w) {
				s.nbr = append(s.nbr, s.seen.Slot(w))
			}
		}
		row := s.nbr[start:]
		slices.Sort(row)
		for _, j := range row {
			if int32(i) < j {
				h = typeHashEdge(h, i, int(j))
			}
		}
		s.off = append(s.off, int32(len(s.nbr)))
	}
	return in.canonScratch(h, root, s.off, s.nbr)
}

// bundleFold is the cheap polynomial fold of the bundle hash (FNV
// prime); the bucket compare verifies the full structure, so hash
// quality only affects chain length, and the per-entry cost matters
// more than avalanche.
const bundleFold = 0x100000001b3

// maxBallBits bounds the BFS index in the packed rank-sort keys: a
// single ball may hold at most 2^21 vertices, far beyond any
// feasible whole-host sweep.
const maxBallBits = 21

// CanonicalBalls is the layered multi-radius extraction: ONE radius-
// rmax BFS from v, then the canonical ordered ball at every radius
// r = 1..rmax (result[r-1]), each pointer-identical to what
// CanonicalBall(g, rank, v, r, in) returns.
//
// The extraction describes the outermost ball in BFS space: the depth
// vector, the adjacency over BFS indices (host rows arrive in a fixed
// deterministic order, so no per-row sorting happens here), and the
// rank permutation of the BFS indices, obtained by one packed-integer
// sort with no comparator closure. That triple determines the
// canonical ball at every radius r — layer membership from the
// depths, vertex order from the permutation, edges from the adjacency
// — and is hashed during assembly and resolved against a worker-local
// bundle cache. A vertex whose layered neighbourhood was seen before
// (the steady state of a homogeneous host) therefore gets all rmax
// representatives back with one map probe: no locking, no interner
// traffic, no allocation, and none of the canonical-form sorting the
// single-radius path pays. Only a new structure converts to rank
// space and canonicalises its layers against the interner
// (copy-on-miss, as CanonicalBall).
//
// The returned slice is shared cache state: callers must not modify
// it, but unlike the sweeper's other outputs it remains valid across
// extractions. rmax must be >= 1.
func (s *Sweeper) CanonicalBalls(g *graph.Graph, rank Rank, v, rmax int, in *Interner) []*Ball {
	if rmax < 1 {
		return nil
	}
	balls, _ := s.canonicalBalls(g, rank, v, rmax, in)
	return balls
}

// canonicalBalls is CanonicalBalls (rmax >= 1) also returning the
// cached bundle the balls came from, or nil when the structure is not
// in the cache and the cache is full.
func (s *Sweeper) canonicalBalls(g *graph.Graph, rank Rank, v, rmax int, in *Interner) ([]*Ball, *ballBundle) {
	if s.bundles == nil || s.bin != in || s.brmax != rmax {
		s.bundles = make(map[uint64][]*ballBundle)
		s.nbund = 0
		s.bin, s.brmax = in, rmax
	}
	// Radius-rmax BFS; the visit slot is the BFS index.
	s.seen.Reset(g.N())
	s.queue = append(s.queue[:0], int32(v))
	s.depth = append(s.depth[:0], 0)
	s.seen.Visit(int32(v), 0)
	for head := 0; head < len(s.queue); head++ {
		u, du := s.queue[head], s.depth[head]
		if int(du) == rmax {
			continue
		}
		for _, w := range g.Neighbors(int(u)) {
			if !s.seen.Visited(w) {
				s.seen.Visit(w, int32(len(s.queue)))
				s.queue = append(s.queue, w)
				s.depth = append(s.depth, du+1)
			}
		}
	}
	k := len(s.queue)
	h := uint64(k)*bundleFold + uint64(rmax)
	for _, d := range s.depth {
		h = h*bundleFold + uint64(d)
	}
	// BFS-space adjacency: row qi lists the BFS indices of the in-ball
	// neighbours of queue[qi], in host-row order.
	s.boff = append(s.boff[:0], 0)
	s.bnbr = s.bnbr[:0]
	for qi := 0; qi < k; qi++ {
		for _, w := range g.Neighbors(int(s.queue[qi])) {
			if s.seen.Visited(w) {
				j := s.seen.Slot(w)
				s.bnbr = append(s.bnbr, j)
				h = h*bundleFold + uint64(qi)<<32 + uint64(j)
			}
		}
		s.boff = append(s.boff, int32(len(s.bnbr)))
	}
	if k >= 1<<maxBallBits {
		// The packed sort key below would overflow silently; no
		// feasible whole-host sweep extracts 2M-vertex balls.
		panic("order: CanonicalBalls ball exceeds 2^21 vertices")
	}
	// Rank permutation of the BFS indices, by packed-integer sort.
	s.keys = s.keys[:0]
	for qi, u := range s.queue {
		s.keys = append(s.keys, uint64(rank[u])<<maxBallBits|uint64(qi))
	}
	sortKeys(s.keys)
	s.perm = s.perm[:0]
	for _, key := range s.keys {
		qi := int32(key & (1<<maxBallBits - 1))
		s.perm = append(s.perm, qi)
		h = h*bundleFold + uint64(qi)
	}
	h = mix64(h)
	for _, b := range s.bundles[h] {
		if slices.Equal(b.depth, s.depth) && slices.Equal(b.boff, s.boff) &&
			slices.Equal(b.bnbr, s.bnbr) && slices.Equal(b.perm, s.perm) {
			return b.balls, b
		}
	}
	balls := s.layerBalls(in, rmax)
	if s.nbund == maxBundles {
		return balls, nil
	}
	b := &ballBundle{
		depth: slices.Clone(s.depth),
		boff:  slices.Clone(s.boff),
		bnbr:  slices.Clone(s.bnbr),
		perm:  slices.Clone(s.perm),
		balls: balls,
	}
	s.bundles[h] = append(s.bundles[h], b)
	s.nbund++
	return balls, b
}

// sortKeys sorts the packed rank keys in place. Balls are small on the
// hosts a whole-host sweep can afford, and below 17 keys an insertion
// loop beats the call into slices.Sort.
func sortKeys(keys []uint64) {
	if len(keys) > 16 {
		slices.Sort(keys)
		return
	}
	for i := 1; i < len(keys); i++ {
		x, j := keys[i], i
		for ; j > 0 && keys[j-1] > x; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = x
	}
}

// layerBalls converts the BFS-space structure to rank space (the
// canonical vertex order) and canonicalises every layer 1..rmax
// against the interner. This is the bundle-miss path — it runs once
// per distinct layered structure.
func (s *Sweeper) layerBalls(in *Interner, rmax int) []*Ball {
	k := len(s.queue)
	if cap(s.pos) < k {
		s.pos = make([]int32, k)
	}
	s.pos = s.pos[:k]
	for p, qi := range s.perm {
		s.pos[qi] = int32(p)
	}
	s.dpt = s.dpt[:0]
	s.off = append(s.off[:0], 0)
	s.nbr = s.nbr[:0]
	for p := 0; p < k; p++ {
		qi := s.perm[p]
		s.dpt = append(s.dpt, s.depth[qi])
		start := len(s.nbr)
		for _, j := range s.bnbr[s.boff[qi]:s.boff[qi+1]] {
			s.nbr = append(s.nbr, s.pos[j])
		}
		slices.Sort(s.nbr[start:])
		s.off = append(s.off, int32(len(s.nbr)))
	}
	root := int(s.pos[0])
	balls := make([]*Ball, rmax)
	for r := 1; r <= rmax; r++ {
		balls[r-1] = s.layerBall(in, root, r)
	}
	return balls
}

// layerBall canonicalises the depth<=r layer of the rank-space
// structure layerBalls assembled: rank positions are re-numbered
// monotonically (so rows stay sorted), the layer CSR is assembled in
// scratch with the incremental type hash, and the interner is probed
// in scratch form — exactly the spelling CanonicalBall uses, which is
// what makes the two paths pointer-identical.
func (s *Sweeper) layerBall(in *Interner, root, r int) *Ball {
	s.lslot = s.lslot[:0]
	n := 0
	for _, d := range s.dpt {
		if int(d) <= r {
			s.lslot = append(s.lslot, int32(n))
			n++
		} else {
			s.lslot = append(s.lslot, -1)
		}
	}
	lroot := int(s.lslot[root])
	h := typeHashBegin(n, lroot)
	s.loff = append(s.loff[:0], 0)
	s.lnbr = s.lnbr[:0]
	for i := range s.dpt {
		li := s.lslot[i]
		if li < 0 {
			continue
		}
		for _, j := range s.nbr[s.off[i]:s.off[i+1]] {
			lj := s.lslot[j]
			if lj < 0 {
				continue
			}
			s.lnbr = append(s.lnbr, lj)
			if li < lj {
				h = typeHashEdge(h, int(li), int(lj))
			}
		}
		s.loff = append(s.loff, int32(len(s.lnbr)))
	}
	return in.canonScratch(h, lroot, s.loff, s.lnbr)
}

// CanonicalBallVerts is CanonicalBall additionally returning the host
// vertex named by each canonical ball index (verts[i] is the host
// vertex of ball vertex i). The slice is the sweeper's scratch: it is
// valid until the next extraction on this sweeper and must be copied
// if retained.
func (s *Sweeper) CanonicalBallVerts(g *graph.Graph, rank Rank, v, r int, in *Interner) (*Ball, []int) {
	b := s.CanonicalBall(g, rank, v, r, in)
	s.ints = s.ints[:0]
	for _, u := range s.verts {
		s.ints = append(s.ints, int(u))
	}
	return b, s.ints
}

// sweep runs the radius-r BFS from v, leaving the ball's vertices
// rank-sorted in s.verts and each one's canonical index in the
// visited set's slot.
func (s *Sweeper) sweep(g *graph.Graph, rank Rank, v, r int) {
	s.seen.Reset(g.N())
	s.queue = append(s.queue[:0], int32(v))
	s.depth = append(s.depth[:0], 0)
	s.seen.Visit(int32(v), 0)
	for head := 0; head < len(s.queue); head++ {
		u, du := s.queue[head], s.depth[head]
		if int(du) == r {
			continue
		}
		for _, w := range g.Neighbors(int(u)) {
			if !s.seen.Visited(w) {
				s.seen.Visit(w, 0) // slot assigned after the sort
				s.queue = append(s.queue, w)
				s.depth = append(s.depth, du+1)
			}
		}
	}
	s.verts = append(s.verts[:0], s.queue...)
	slices.SortFunc(s.verts, func(a, b int32) int { return rank[a] - rank[b] })
	for i, u := range s.verts {
		s.seen.SetSlot(u, int32(i))
	}
}

// SweepMeasure computes the homogeneity of (g, rank) at radius r by a
// batched whole-host sweep: each parallel worker owns one Sweeper and
// one local count map (par.ForScratchMerge), every vertex's ball is
// assembled in scratch and resolved against one shared interner
// copy-on-miss, and the per-worker counts are merged after the join —
// no per-vertex result slots, no O(n) sequential tally pass. The
// result is identical to the retained per-vertex reference
// MeasureReference at every parallelism level — a property the
// differential tests pin down — while the steady-state per-vertex
// allocation count is zero.
func SweepMeasure(g *graph.Graph, rank Rank, r int) Homogeneity {
	return SweepMeasureInto(NewInterner(), g, rank, r)
}

// radiusTally is the worker-local tallying scratch of SweepMeasure:
// one sweeper and one count map per worker.
type radiusTally struct {
	sw     *Sweeper
	counts map[*Ball]int
}

// SweepMeasureInto is SweepMeasure over a caller-supplied interner, so
// callers (and tests) can compare interned pointers across measurement
// strategies — homog's exact scan counts its τ* ball this way.
func SweepMeasureInto(in *Interner, g *graph.Graph, rank Rank, r int) Homogeneity {
	n := g.N()
	merged := make(map[*Ball]int)
	par.ForScratchMerge(n,
		func() *radiusTally {
			return &radiusTally{sw: NewSweeper(), counts: make(map[*Ball]int)}
		},
		func(v int, t *radiusTally) {
			t.counts[t.sw.CanonicalBall(g, rank, v, r, in)]++
		},
		func(t *radiusTally) {
			for b, c := range t.counts {
				merged[b] += c
			}
		})
	return tallyCounts(n, merged)
}

// SweepMeasureAll computes the homogeneity of (g, rank) at every
// radius r = 1..rmax (result[r-1]) in a single whole-host pass: one
// BFS per vertex (Sweeper.CanonicalBalls), one shared interner, and
// worker-local tallies merged after the join. A vertex resolved by a
// cached bundle bumps that bundle's count, and the merge adds each
// bundle's count to its per-radius balls, so a homogeneous host
// tallies as a handful of class counts; only vertices that miss a full
// bundle cache count in the per-radius maps. Each
// entry is identical — same counts, and the same interned majority
// *Ball when probed through a shared interner — to a separate
// SweepMeasure call at that radius, which is what the differential
// tests pin down; the layered pass just stops paying for rmax
// redundant BFS traversals and rank sorts per vertex.
func SweepMeasureAll(g *graph.Graph, rank Rank, rmax int) []Homogeneity {
	return SweepMeasureAllInto(NewInterner(), g, rank, rmax)
}

// sweepTally is the worker-local tallying scratch of SweepMeasureAll:
// one sweeper, whose cached bundles count the vertices they resolve,
// and one count map per radius for the vertices no bundle holds, plus
// this worker's processed-vertex counter driving the cancellation
// poll.
type sweepTally struct {
	sw     *Sweeper
	counts []map[*Ball]int
	done   int
}

// sweepPollMask throttles the cancellation poll of cancellable
// sweeps: each worker checks ctx.Err() once per 64 vertices
// processed, so the poll never shows up next to the BFS cost of a
// single extraction.
const sweepPollMask = 63

// SweepMeasureAllInto is SweepMeasureAll over a caller-supplied
// interner (see SweepMeasureInto). rmax < 1 yields nil.
func SweepMeasureAllInto(in *Interner, g *graph.Graph, rank Rank, rmax int) []Homogeneity {
	out, _ := sweepMeasureAll(nil, in, g, rank, rmax)
	return out
}

// SweepMeasureAllCtx is SweepMeasureAll under cooperative
// cancellation: every sweep worker polls ctx.Err() once per 64
// vertices and a cancelled or deadline-expired context makes all
// workers stop claiming vertices, so the whole scan winds down within
// one poll interval per worker and its par slots return to the
// budget. On cancellation the partial tallies are discarded and the
// error wraps ctx.Err() (errors.Is-able against
// context.DeadlineExceeded). This is the service layer's deadline
// hook for homogeneity measurement, where a 10^6-node sweep must be
// abandonable mid-scan.
func SweepMeasureAllCtx(ctx context.Context, g *graph.Graph, rank Rank, rmax int) ([]Homogeneity, error) {
	return SweepMeasureAllIntoCtx(ctx, NewInterner(), g, rank, rmax)
}

// SweepMeasureAllIntoCtx is SweepMeasureAllCtx over a caller-supplied
// interner.
func SweepMeasureAllIntoCtx(ctx context.Context, in *Interner, g *graph.Graph, rank Rank, rmax int) ([]Homogeneity, error) {
	return sweepMeasureAll(ctx, in, g, rank, rmax)
}

// sweepMeasureAll is the shared core of the layered whole-host sweep.
// A nil ctx disarms cancellation entirely — the uncancellable
// entry points pay nothing for the hook but one nil check per vertex.
func sweepMeasureAll(ctx context.Context, in *Interner, g *graph.Graph, rank Rank, rmax int) ([]Homogeneity, error) {
	if rmax < 1 {
		return nil, nil
	}
	n := g.N()
	merged := make([]map[*Ball]int, rmax)
	for r := range merged {
		merged[r] = make(map[*Ball]int)
	}
	// stop is the shared kill switch: the first worker to observe a
	// dead context raises it, and every worker checks it before each
	// vertex, so cancellation propagates without any worker having to
	// touch the (mutex-guarded) context on the per-vertex fast path.
	var stop atomic.Bool
	par.ForScratchMerge(n,
		func() *sweepTally {
			t := &sweepTally{sw: NewSweeper(), counts: make([]map[*Ball]int, rmax)}
			for r := range t.counts {
				t.counts[r] = make(map[*Ball]int)
			}
			return t
		},
		func(v int, t *sweepTally) {
			if ctx != nil {
				if stop.Load() {
					return
				}
				if t.done&sweepPollMask == 0 && ctx.Err() != nil {
					stop.Store(true)
					return
				}
				t.done++
			}
			balls, b := t.sw.canonicalBalls(g, rank, v, rmax, in)
			if b != nil {
				b.hits++
				return
			}
			for r, ball := range balls {
				t.counts[r][ball]++
			}
		},
		func(t *sweepTally) {
			for r, counts := range t.counts {
				for b, c := range counts {
					merged[r][b] += c
				}
			}
			for _, chain := range t.sw.bundles {
				for _, b := range chain {
					for r, ball := range b.balls {
						merged[r][ball] += b.hits
					}
				}
			}
		})
	if stop.Load() {
		return nil, fmt.Errorf("order: sweep cancelled: %w", ctx.Err())
	}
	out := make([]Homogeneity, rmax)
	for r := range out {
		out[r] = tallyCounts(n, merged[r])
	}
	return out, nil
}

// tally merges a vertex-ordered slice of canonical balls into the
// Homogeneity result (the spelling the per-vertex reference
// measurement uses; the sweep entries tally worker-locally and merge).
func tally(balls []*Ball) Homogeneity {
	counts := make(map[*Ball]int)
	for _, b := range balls {
		counts[b]++
	}
	return tallyCounts(len(balls), counts)
}

// tallyCounts selects the majority type from a merged count map. Ties
// break deterministically on the canonical encoding; the running
// majority's encoding is cached across the scan, so each tie costs one
// Encode (the candidate's), not two, and the winning encoding is
// reused for the Type field instead of being rendered again.
func tallyCounts(n int, counts map[*Ball]int) Homogeneity {
	h := Homogeneity{N: n, Counts: counts}
	majEnc := ""
	for b, c := range counts {
		switch {
		case c > h.Count:
			h.Count, h.Majority, majEnc = c, b, ""
		case c == h.Count && h.Majority != nil:
			if majEnc == "" {
				majEnc = h.Majority.Encode()
			}
			if e := b.Encode(); e < majEnc {
				h.Majority, majEnc = b, e
			}
		}
	}
	if h.Majority != nil {
		if majEnc == "" {
			majEnc = h.Majority.Encode()
		}
		h.Type = majEnc
	}
	if n > 0 {
		h.Alpha = float64(h.Count) / float64(n)
	}
	return h
}
