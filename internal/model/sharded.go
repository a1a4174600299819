package model

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/digraph"
	"repro/internal/par"
	"repro/internal/view"
)

// This file is the sharded giant-host round engine: the word lane of
// the flat WordEngine (see engine.go) partitioned into P shards so that
// hosts past the int32 flat-CSR capacity — or simply past what one
// contiguous plane should hold — run with per-shard bounded memory.
//
// Each shard owns a contiguous global node range, its own slot plane
// (off/dest and two cell arenas, exactly the WordEngine's layout
// restricted to the range) and its own state column. Arcs whose
// endpoints live in different shards are resolved at construction
// into a compact exchange buffer: the sender's dest entry points past
// the shard's slots, into staging cells at the tail of each arena
// (total+xi, total being the shard's slot count), so a send writes one
// cell whether its peer is local or not, and at the round barrier each
// destination shard drains every staging range aimed at it — the same
// CONS/GOSSIP boundary shape cometbft draws between the consensus
// state machine and the gossip plane.
//
// Determinism. Slot numbering concatenates the per-node letter-sorted
// slot rows in global node order, so a node's slots, its inbox order
// and the global (round, slot) fault coordinates are all identical to
// the flat WordEngine's — with P=1 the sharded plane IS the flat
// plane, and the differential tests pin clean and faulty runs
// byte-identical at every P. Cross-shard staging cannot disturb this:
// every staging entry targets a unique destination slot, and inboxes
// are read in slot (letter) order at the receiver regardless of which
// shard, worker or drain pass wrote them.

// ShardArc is one labelled arc of an implicitly generated host: the
// global id of the other endpoint plus the arc label. It aliases
// digraph.SourceArc so source implementations live below the model.
type ShardArc = digraph.SourceArc

// ShardSource generates a properly labelled host digraph node by
// node, without ever materialising it — digraph.Source, under the
// name the engine API uses. Construction verifies reciprocity for
// every cross-shard arc and fails loudly on inconsistent sources.
type ShardSource = digraph.Source

// hostSource adapts a materialised host to the ShardSource contract,
// so any registry host can be sharded — the differential tests run
// Petersen and random-regular through exactly this adapter.
type hostSource struct{ h *Host }

// SourceOf wraps a materialised host as a ShardSource. The host must
// carry an L-digraph (equip plain graphs with digraph.FromPorts
// first, as every engine workload does).
func SourceOf(h *Host) ShardSource {
	if h.D == nil {
		panic("model: SourceOf needs a host with an L-digraph (use digraph.FromPorts)")
	}
	return hostSource{h: h}
}

func (s hostSource) N() int64      { return int64(s.h.G.N()) }
func (s hostSource) Alphabet() int { return s.h.D.Alphabet() }
func (s hostSource) Degree(v int64) (int, int) {
	return len(s.h.D.Out(int(v))), len(s.h.D.In(int(v)))
}
func (s hostSource) AppendArcs(v int64, out, in []ShardArc) ([]ShardArc, []ShardArc) {
	for _, a := range s.h.D.Out(int(v)) {
		out = append(out, ShardArc{To: int64(a.To), Label: a.Label})
	}
	for _, a := range s.h.D.In(int(v)) {
		in = append(in, ShardArc{To: int64(a.To), Label: a.Label})
	}
	return out, in
}

// shard is one partition of the sharded plane: a contiguous global
// node range with its own CSR slot layout, double-buffered cell
// arenas, state column, worklist and outgoing exchange staging.
type shard struct {
	lo, hi   int64 // global node range [lo, hi)
	n        int32 // hi - lo
	slotBase int64 // global index of local slot 0

	off  []int32 // local slot offsets, len n+1
	dest []int32 // < off[n]: local destination slot; else off[n]+x, staging entry x

	// cells are the two arenas: off[n] slot cells, then one staging
	// cell per exchange entry.
	cells [2][]cell

	col    []uint64
	halted []bool
	active []int32
	// halts counts the nodes that halted in the last step phase;
	// without node faults drainAndCompact leaves the worklist as it is
	// when it is 0.
	halts int

	// Exchange staging, grouped by destination shard: entries
	// xoff[d]:xoff[d+1] go to shard d. xdst holds destination-local
	// slot indices; the staged word and its round stamp sit in the
	// arena written that round, at off[n]+x (monotone stamps, like the
	// slot cells — never cleared).
	xoff []int32
	xdst []int32

	// crashed marks permanently crashed nodes on faulty runs (lazily
	// allocated, as on the flat plane).
	crashed []bool

	// First bad send of the smallest failing local node this round.
	err runErr

	// Observability: activeN is the worklist length after the last
	// barrier, exchanged counts cross-shard words delivered into this
	// shard since construction. Both read live by /metrics.
	activeN   atomic.Int64
	exchanged atomic.Int64
}

// ShardedEngine runs word algorithms over P shards. Like the
// WordEngine it may be reused for any number of runs (arenas warm up
// once, stamps stay monotone), but must not execute two runs
// concurrently.
type ShardedEngine struct {
	src    ShardSource
	shards []*shard
	nTotal int64
	slots  int64
	// maxSlots is the widest slot row of any node: the workers' lanes
	// (newLanes) and the row scratch (rows) are sized from it.
	maxSlots int32
	tick     int64
	ctx      context.Context
}

// NewShardedEngine partitions the source into p contiguous shards and
// resolves every cross-shard arc into the exchange buffers. It fails
// if any single shard's slots plus its exchange cells would overflow
// the int32 per-shard plane (shardPlaneFits; raise p) or if the source
// is inconsistent.
func NewShardedEngine(src ShardSource, p int) (*ShardedEngine, error) {
	n := src.N()
	if n <= 0 {
		return nil, fmt.Errorf("model: sharded engine needs a non-empty host, have n=%d", n)
	}
	if p < 1 {
		return nil, fmt.Errorf("model: need at least one shard, have %d", p)
	}
	if int64(p) > n {
		p = int(n)
	}
	se := &ShardedEngine{src: src, nTotal: n, shards: make([]*shard, p)}

	// Pass 1: ranges, degrees, per-shard slot offsets.
	slotBase := int64(0)
	for i := 0; i < p; i++ {
		lo := int64(i) * n / int64(p)
		hi := int64(i+1) * n / int64(p)
		sh := &shard{lo: lo, hi: hi, n: int32(hi - lo), slotBase: slotBase}
		sh.off = make([]int32, sh.n+1)
		slots := int64(0)
		for v := int32(0); v < sh.n; v++ {
			out, in := src.Degree(lo + int64(v))
			row := int64(out + in)
			slots += row
			if slots > math.MaxInt32 {
				return nil, fmt.Errorf("model: shard %d/%d needs %d+ slots, exceeding the int32 per-shard plane capacity %d: raise the shard count",
					i, p, slots, int64(math.MaxInt32))
			}
			sh.off[v+1] = sh.off[v] + int32(row)
			if int32(row) > se.maxSlots {
				se.maxSlots = int32(row)
			}
		}
		slotBase += slots
		se.slots += slots
		se.shards[i] = sh
	}

	// Pass 2: routing. For each slot, locate the peer's slot for the
	// inverse letter; local peers route directly, remote peers get a
	// staging entry. Staging entries are discovered in slot order and
	// then bucketed by destination shard (counting sort), so xoff
	// ranges are contiguous and construction is deterministic.
	rows := newRows(src, se.maxSlots)
	type xent struct {
		dshard int32
		dslot  int32
		slot   int32
	}
	for i, sh := range se.shards {
		total := int(sh.off[sh.n])
		sh.dest = make([]int32, total)
		var cross []xent
		for v := int32(0); v < sh.n; v++ {
			gv := sh.lo + int64(v)
			letters, peers := rows.row(gv)
			for k, u := range peers {
				s := sh.off[v] + int32(k)
				uj := se.shardOf(u)
				ush := se.shards[uj]
				ds, err := rows.peerSlot(u, letters[k], gv)
				if err != nil {
					return nil, fmt.Errorf("model: shard source inconsistent at arc (%d,%d) letter %v: %w", gv, u, letters[k], err)
				}
				uv := int32(u - ush.lo)
				dslot := ush.off[uv] + ds
				if uj == i {
					sh.dest[s] = dslot
				} else {
					cross = append(cross, xent{dshard: int32(uj), dslot: dslot, slot: s})
				}
			}
		}
		// Bucket the staging entries by destination shard.
		sh.xoff = make([]int32, p+1)
		for _, x := range cross {
			sh.xoff[x.dshard+1]++
		}
		for d := 0; d < p; d++ {
			sh.xoff[d+1] += sh.xoff[d]
		}
		if err := shardPlaneFits(i, p, int64(total), int64(len(cross))); err != nil {
			return nil, err
		}
		sh.xdst = make([]int32, len(cross))
		fill := make([]int32, p)
		copy(fill, sh.xoff[:p])
		for _, x := range cross {
			xi := fill[x.dshard]
			fill[x.dshard]++
			sh.xdst[xi] = x.dslot
			sh.dest[x.slot] = int32(total) + xi
		}
		for a := range sh.cells {
			sh.cells[a] = make([]cell, total+len(cross))
		}
		sh.col = make([]uint64, sh.n)
		sh.halted = make([]bool, sh.n)
		sh.active = make([]int32, 0, sh.n)
	}
	return se, nil
}

// shardPlaneFits reports whether shard i of p, with the given slot
// count and cross-shard arcs, fits the int32 per-shard plane: its
// arenas hold a cell for each slot and, at their tail, a staging cell
// for each cross arc, all addressed by int32 dest entries. Each cross
// arc is also a slot, so a shard whose slots all cross fits only half
// the slots a shard without cross arcs does.
func shardPlaneFits(i, p int, slots, cross int64) error {
	if slots+cross > math.MaxInt32 {
		return fmt.Errorf("model: shard %d/%d needs %d slots and %d exchange cells, exceeding the int32 per-shard plane capacity %d: raise the shard count",
			i, p, slots, cross, int64(math.MaxInt32))
	}
	return nil
}

// rows builds nodes' slot rows from a source into reusable scratch, on
// both planes: construction routes each slot from them and every run
// hands them to Init as NodeInfo.Letters and Peers.
type rows struct {
	src                ShardSource
	out, in, pOut, pIn []ShardArc
	letters            []view.Letter
	peers              []int64
}

// newRows sizes the scratch for rows of at most width slots, the
// widest row the source's Degree reports.
func newRows(src ShardSource, width int32) *rows {
	return &rows{src: src, letters: make([]view.Letter, 0, width), peers: make([]int64, 0, width)}
}

// row builds node v's slot row: the letter naming each slot and the
// slot's far endpoint, valid until the next call.
func (r *rows) row(v int64) ([]view.Letter, []int64) {
	r.out, r.in = r.src.AppendArcs(v, r.out[:0], r.in[:0])
	return mergeLetters(r, r.out, r.in)
}

// peerSlot returns the local slot at u of the arc v names by letter l.
func (r *rows) peerSlot(u int64, l view.Letter, v int64) (int32, error) {
	r.pOut, r.pIn = r.src.AppendArcs(u, r.pOut[:0], r.pIn[:0])
	return peerSlot(r.pOut, r.pIn, l.Inv(), v)
}

// mergeLetters merges label-sorted out- and in-arc rows into the
// letter-sorted slot row (out before in on equal labels), writing each
// slot's letter and peer into r's scratch. It takes r rather than its
// two slices so that its arguments fit in registers.
func mergeLetters(r *rows, out, in []ShardArc) ([]view.Letter, []int64) {
	n := len(out) + len(in)
	ls, ts := r.letters[:n], r.peers[:n]
	i, j := 0, 0
	for k := range ls {
		if i < len(out) && (j >= len(in) || out[i].Label <= in[j].Label) {
			ls[k] = view.Letter{Label: out[i].Label}
			ts[k] = out[i].To
			i++
		} else {
			ls[k] = view.Letter{Label: in[j].Label, In: true}
			ts[k] = in[j].To
			j++
		}
	}
	return ls, ts
}

// peerSlot returns the local slot index of letter l at a node with
// the given arc rows, verifying the arc at that letter really leads
// back to the expected endpoint. The rows are label-sorted, so two
// binary searches place the letter.
func peerSlot(out, in []ShardArc, l view.Letter, back int64) (int32, error) {
	i, j := labelRank(out, l.Label), labelRank(in, l.Label)
	if l.In {
		if j == len(in) || in[j].Label != l.Label {
			return 0, fmt.Errorf("no in-arc labelled %d", l.Label)
		}
		if in[j].To != back {
			return 0, fmt.Errorf("in-arc labelled %d comes from %d, not %d", l.Label, in[j].To, back)
		}
		// An out-arc of the same label sorts before the in-arc.
		if i < len(out) && out[i].Label == l.Label {
			i++
		}
		return int32(i + j), nil
	}
	if i == len(out) || out[i].Label != l.Label {
		return 0, fmt.Errorf("no out-arc labelled %d", l.Label)
	}
	if out[i].To != back {
		return 0, fmt.Errorf("out-arc labelled %d goes to %d, not %d", l.Label, out[i].To, back)
	}
	return int32(i + j), nil
}

// labelRank returns the number of arcs of a label-sorted row whose
// label is below label.
func labelRank(row []ShardArc, label int) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid].Label < label {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// shardOf returns the shard index owning global node v. Ranges are
// lo_i = floor(i*n/P), so the arithmetic estimate is off by at most
// one; the loops correct it.
func (se *ShardedEngine) shardOf(v int64) int {
	p := len(se.shards)
	i := int(v * int64(p) / se.nTotal)
	if i >= p {
		i = p - 1
	}
	for i > 0 && v < se.shards[i].lo {
		i--
	}
	for i+1 < p && v >= se.shards[i+1].lo {
		i++
	}
	return i
}

// N returns the total node count.
func (se *ShardedEngine) N() int64 { return se.nTotal }

// Source returns the shard source the engine was built over, so
// algorithm wrappers can validate host structure and re-derive arcs
// at extraction time without holding their own reference.
func (se *ShardedEngine) Source() ShardSource { return se.src }

// StateAt returns node v's current state word — random access for
// checkers that cross shard boundaries (VisitStates is the bulk
// path). Only meaningful between runs.
func (se *ShardedEngine) StateAt(v int64) uint64 {
	sh := se.shards[se.shardOf(v)]
	return sh.col[int32(v-sh.lo)]
}

// Shards returns the shard count.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// WithContext arms cooperative cancellation exactly as on the flat
// engine: the round loop polls ctx.Err() once per round barrier.
func (se *ShardedEngine) WithContext(ctx context.Context) *ShardedEngine {
	se.ctx = ctx
	return se
}

// ShardStats is one shard's observability snapshot, served by
// /metrics on sharded jobs.
type ShardStats struct {
	// Shard is the shard index; Lo/Hi its global node range.
	Shard int
	Lo    int64
	Hi    int64
	// Slots is the shard's plane width, ExchangeOut its outgoing
	// staging capacity (resident cross-shard arcs).
	Slots       int64
	ExchangeOut int64
	// Active is the worklist occupancy at the last round barrier;
	// Exchanged counts cross-shard words delivered into the shard
	// since construction. Both are safe to read during a run.
	Active    int64
	Exchanged int64
}

// Stats snapshots every shard's occupancy and exchange counters.
func (se *ShardedEngine) Stats() []ShardStats {
	out := make([]ShardStats, len(se.shards))
	for i, sh := range se.shards {
		out[i] = ShardStats{
			Shard:       i,
			Lo:          sh.lo,
			Hi:          sh.hi,
			Slots:       int64(sh.off[sh.n]),
			ExchangeOut: int64(len(sh.xdst)),
			Active:      sh.activeN.Load(),
			Exchanged:   sh.exchanged.Load(),
		}
	}
	return out
}

// VisitStates calls fn for every node in increasing global order with
// the node's final state — the extraction path that never builds a
// full-length column (10^8-node results are consumed streaming).
func (se *ShardedEngine) VisitStates(fn func(v int64, state uint64)) {
	for _, sh := range se.shards {
		for v := int32(0); v < sh.n; v++ {
			fn(sh.lo+int64(v), sh.col[v])
		}
	}
}

// runErr holds the error of the smallest failing node of a round: on
// the flat plane of the run, on the sharded plane of one shard (the
// run surfaces the first shard's).
type runErr struct {
	mu  sync.Mutex
	v   int32
	err error
}

// record keeps err when v is smaller than every node recorded so far.
func (r *runErr) record(v int32, err error) {
	r.mu.Lock()
	if r.err == nil || v < r.v {
		r.v, r.err = v, err
	}
	r.mu.Unlock()
}

// IDFunc assigns the global id NodeInfo.ID carries for node v; nil
// runs anonymously (ID = -1). See SeededIDs for a giant-host id
// assignment that needs no materialised table.
type IDFunc func(v int64) int

// Run executes a word algorithm and streams no outputs:
// consume results with VisitStates (or Outputs for small hosts).
func (se *ShardedEngine) Run(ids IDFunc, algo WordAlgo, maxRounds int) (int, error) {
	rounds, _, err := se.run(ids, algo, maxRounds, nil)
	return rounds, err
}

// RunFaulty is Run under a fault schedule with the flat engine's
// exact semantics: fates, liveness and reorder draws use the global
// (round, slot) and (round, node) coordinates, so a sharded faulty
// run degrades identically to the unsharded run of the same
// algorithm. Faulty runs require the global node and slot counts to
// fit int32 (the Schedule coordinate width); clean runs do not.
func (se *ShardedEngine) RunFaulty(ids IDFunc, algo WordAlgo, maxRounds int, sched Schedule) (int, *FaultReport, error) {
	rounds, rep, err := se.run(ids, algo, maxRounds, sched)
	if err != nil {
		return 0, nil, err
	}
	if rep == nil {
		rep = &FaultReport{Profile: "clean"}
	}
	return rounds, rep, nil
}

// Outputs extracts every node's output into a slice — small hosts
// and differential tests only (it materialises n entries).
func (se *ShardedEngine) Outputs(algo WordAlgo) []Output {
	outs := make([]Output, se.nTotal)
	se.VisitStates(func(v int64, st uint64) {
		outs[int(v)] = algo.Out(&st)
	})
	return outs
}

// run is the sharded round-loop core: sequential global-order Init,
// then per round a step phase (workers claim whole shards; each
// shard's active sweep is sequential within it) and a barrier phase
// (exchange drain + worklist compaction, again shard-parallel), with
// error surfacing between them.
func (se *ShardedEngine) run(ids IDFunc, algo WordAlgo, maxRounds int, sched Schedule) (int, *FaultReport, error) {
	p := len(se.shards)
	if sched != nil {
		if se.nTotal > math.MaxInt32 || se.slots > math.MaxInt32 {
			return 0, nil, fmt.Errorf("model: faulty sharded runs need n and slot count within int32 fault coordinates (n=%d slots=%d)", se.nTotal, se.slots)
		}
	}
	prof := ""
	if sched != nil {
		prof = sched.String()
	}

	// Sequential Init in increasing global node order, each node's row
	// built into one reusable scratch.
	rows := newRows(se.src, se.maxSlots)
	for _, sh := range se.shards {
		for v := int32(0); v < sh.n; v++ {
			gv := sh.lo + int64(v)
			letters, peers := rows.row(gv)
			info := NodeInfo{ID: -1, Letters: letters, Peers: peers}
			if ids != nil {
				info.ID = ids(gv)
			}
			sh.col[v] = algo.Init(gv, info)
			sh.halted[v] = false
		}
		sh.err.err = nil
	}

	// Worklists (schedule-aware, as on the flat plane).
	fp := planFaults(sched)
	for _, sh := range se.shards {
		if sched != nil {
			if sh.crashed == nil {
				sh.crashed = make([]bool, sh.n)
			} else {
				for v := range sh.crashed {
					sh.crashed[v] = false
				}
			}
		}
		active := sh.active[:0]
		for v := int32(0); v < sh.n; v++ {
			if fp.nodeFaults && sched.State(0, int32(sh.lo+int64(v))) == StateCrashed {
				sh.crashed[v] = true
				continue
			}
			active = append(active, v)
		}
		sh.active = active
		sh.activeN.Store(int64(len(active)))
	}

	base := se.tick
	var (
		round    int
		curArena int
		curWant  int64
		phase    int // 0: step, 1: drain+compact
		cursor   atomic.Int64

		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	defer func() {
		se.tick = base + int64(round) + 2
	}()

	phaseWork := func(c *Chunk) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicked == nil {
					panicked = r
				}
				panicMu.Unlock()
			}
		}()
		for {
			i := cursor.Add(1) - 1
			if i >= int64(p) {
				return
			}
			sh := se.shards[i]
			if phase == 0 {
				c.enter(round, sh.cells[curArena], sh.cells[curArena^1], curWant)
				c.errs, c.gbase, c.off, c.dest, c.halted = &sh.err, sh.lo, sh.off, sh.dest, sh.halted
				c.halts = 0
				stepChunk(algo.Step, c, sh.active, sh.col, &fp, sh.slotBase, sh.lo)
				sh.halts = int(c.halts)
			} else {
				se.drainAndCompact(int(i), round, curArena, curWant, &fp)
			}
		}
	}

	workers := 0
	if p > 1 {
		workers = par.Reserve(min(par.N()-1, p-1))
	}
	defer par.Release(workers)
	cs := newLanes(workers+1, se.maxSlots, &fp, func(c *Chunk) { c.prof = prof })
	start := make([]chan struct{}, workers)
	for w := range start {
		start[w] = make(chan struct{}, 1)
		go func(ch chan struct{}, c *Chunk) {
			for range ch {
				phaseWork(c)
				wg.Done()
			}
		}(start[w], cs[w])
	}
	defer func() {
		for _, ch := range start {
			close(ch)
		}
	}()
	master := cs[workers]

	runPhase := func(ph int) {
		phase = ph
		cursor.Store(0)
		wg.Add(workers)
		for _, ch := range start {
			ch <- struct{}{}
		}
		phaseWork(master)
		wg.Wait()
	}

	totalActive := int64(0)
	for _, sh := range se.shards {
		totalActive += int64(len(sh.active))
	}

	for ; round < maxRounds && totalActive > 0; round++ {
		if se.ctx != nil {
			if err := se.ctx.Err(); err != nil {
				if prof != "" {
					return 0, nil, fmt.Errorf("model: round %d [%s]: run cancelled: %w", round, prof, err)
				}
				return 0, nil, fmt.Errorf("model: round %d: run cancelled: %w", round, err)
			}
		}
		curArena = round & 1
		curWant = base + int64(round) + 1

		runPhase(0)
		if panicked != nil {
			panic(panicked)
		}
		for _, sh := range se.shards {
			if err := sh.err.err; err != nil {
				return 0, nil, err
			}
		}
		runPhase(1)
		if panicked != nil {
			panic(panicked)
		}
		totalActive = 0
		for _, sh := range se.shards {
			totalActive += int64(len(sh.active))
		}
	}
	if totalActive > 0 {
		for _, sh := range se.shards {
			if len(sh.active) > 0 {
				v := sh.lo + int64(sh.active[0])
				if prof != "" {
					return 0, nil, fmt.Errorf("model: node %d did not halt within %d rounds [%s]", v, maxRounds, prof)
				}
				return 0, nil, fmt.Errorf("model: node %d did not halt within %d rounds", v, maxRounds)
			}
		}
	}
	var rep *FaultReport
	if sched != nil {
		r := sumFaults(FaultReport{Profile: prof}, cs)
		rep = &r
		rep.Crashed = make([]bool, se.nTotal)
		for _, sh := range se.shards {
			copy(rep.Crashed[sh.lo:sh.hi], sh.crashed)
		}
		for _, c := range rep.Crashed {
			if c {
				rep.NumCrashed++
			}
		}
	}
	return round, rep, nil
}

// drainAndCompact is the barrier phase for destination shard d: pull
// every staged word aimed at d out of the source shards' exchange
// buffers into d's next-round arena, then compact d's worklist
// (halted nodes leave; under node faults nodes whose crash round
// arrived leave for good; otherwise a shard where no node halted keeps
// its list as it is). Each destination slot is written by exactly one
// staging entry, so destination-parallel draining is race-free, and
// the one worker draining d owns d's worklist, so compact filters it
// in place.
func (se *ShardedEngine) drainAndCompact(d, round, curArena int, curWant int64, fp *faultPlan) {
	dst := se.shards[d]
	cells := dst.cells[curArena^1]
	want := curWant + 1
	delivered := int64(0)
	for _, src := range se.shards {
		xs, xe := src.xoff[d], src.xoff[d+1]
		xdst := src.xdst[xs:xe]
		stage := src.cells[curArena^1][src.off[src.n]:]
		for i, c := range stage[xs:xe] {
			if c.stamp == want {
				cells[xdst[i]] = c
				delivered++
			}
		}
	}
	if delivered > 0 {
		dst.exchanged.Add(delivered)
	}
	if !fp.nodeFaults && dst.halts == 0 {
		return
	}
	dst.active = compact(dst.active, dst.halted, dst.crashed, fp, round, dst.lo)
	dst.activeN.Store(int64(len(dst.active)))
}

// SeededIDs returns an IDFunc computing a seeded permutation of
// [0, n) without materialising a table: a 4-round Feistel permutation
// over the smallest even-bit-width domain covering n, cycle-walked
// back into range (every walk terminates because the start is already
// in range, so its cycle re-enters [0, n)). Ids are distinct and the
// maximum id is n-1 — exactly what Cole–Vishkin's id-space check
// wants at 10^8 nodes.
func SeededIDs(n int64, seed int64) IDFunc {
	bits := 2
	for int64(1)<<bits < n {
		bits += 2
	}
	half := uint(bits / 2)
	mask := uint64(1)<<half - 1
	perm := func(x uint64) uint64 {
		l, r := x>>half, x&mask
		for i := 0; i < 4; i++ {
			l, r = r, l^(splitmixModel(r+uint64(seed)+uint64(i)*0x9e3779b97f4a7c15)&mask)
		}
		return l<<half | r
	}
	return func(v int64) int {
		x := uint64(v)
		for {
			x = perm(x)
			if int64(x) < n {
				return int(x)
			}
		}
	}
}

// splitmixModel is the SplitMix64 finaliser (the fault scheduler's
// mixer, duplicated here to keep faults.go's hashes untouched).
func splitmixModel(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MaterializeSource builds the flat host a ShardSource generates
// (digraph.FromSource, then NewHost) — the bridge the
// implicit-vs-materialised differential tests and the unsharded
// comparison runs use. Only hosts within the int32 flat capacity can
// come back out; giant sources stay implicit.
func MaterializeSource(src ShardSource) (*Host, error) {
	n := src.N()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("model: source has %d nodes, past the flat-CSR capacity %d: host exceeds flat-CSR capacity, use shards", n, int64(math.MaxInt32))
	}
	d, err := digraph.FromSource(src)
	if err != nil {
		return nil, fmt.Errorf("model: materialize: %w", err)
	}
	return NewHost(d)
}
