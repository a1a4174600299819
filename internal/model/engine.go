package model

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

// WordEngine is the flat batched worker-parallel round engine: the
// operational analogue of the sweep engine. It sizes a CSR message
// plane and a state column once from the host's arc structure and then
// executes synchronous rounds of a WordAlgo with no per-round slice
// churn at all.
//
// Layout. Every incident (arc, direction) pair of every node is one
// slot: node v's slots are off[v]:off[v+1], ordered by the letter
// naming the arc at v (view.Letter.Less), so an inbox is always
// delivered in the receiver's letter order regardless of worker
// schedule. dest[s] maps a send on slot s's letter to the slot naming
// the same arc by the inverse letter at the other endpoint. A node's
// letters and peers are built from the host's arc rows (rows) when
// construction or Init needs them.
//
// Double buffering. Messages for round r live in arena r&1 and the
// sends of round r are written into arena (r+1)&1, so a slot is
// written by exactly one sender and read by exactly one receiver and
// no round ever races with the next. Slots carry monotone int64
// stamps instead of being cleared: a slot holds a live message for
// round r iff its stamp equals the run's base tick + r + 1, so
// neither arena is ever zeroed, not even between runs.
//
// Payloads. Messages are fixed-width words: each arena holds one
// 16-byte cell per slot — the payload word beside its stamp, so a
// liveness check, a payload read and a send touch one cache line.
// Pointer-shaped payloads ride the same lane as column handles (see
// RunGather).
//
// Worklist. Halted nodes leave the active list and cost nothing: each
// round is a worker-sharded sweep of the active list only (dynamic
// chunk handoff over a shared cursor, par.ForScratch-style; each
// claimed chunk goes to the algorithm's step whole, so the per-run
// columns and rows are loaded once per chunk, not once per node), and
// the workers are persistent for the whole run — spawned once against
// par's global budget (par.Reserve), released at the end — so a
// steady-state round performs no allocation and no goroutine churn. A
// round in which no node halted leaves the list as it was, and the
// barrier skips its compaction, unless the run's fault plan has node
// faults (faultPlan): then the barrier also removes crashed nodes.
//
// Determinism. A step writes, for each node of its chunk, only that
// node's state word, halt flag and outgoing message slots, so parallel
// and sequential runs are byte-identical; any randomness must be drawn
// before the run (Init is invoked sequentially in increasing node
// order for exactly this reason).
//
// A WordEngine may be reused for any number of runs on its host, of
// any algorithms (arenas warm up once; the monotone stamps keep runs
// from ever reading each other's messages), but must not execute two
// runs concurrently.
type WordEngine struct {
	n int

	// Slot layout (see above) and the source rows are built from.
	src  ShardSource
	off  []int32
	dest []int32
	// maxSlots is the widest slot row (the plane's maximum in-degree):
	// the bound the workers' identity delivery order and fault scratch
	// (newLanes) and the row scratch (rows) are sized from.
	maxSlots int32

	// Message plane: double-buffered cell arenas (payload and stamp
	// side by side) and the tick their stamps are based on.
	cells [2][]cell
	tick  int64

	// Run state, reused across runs: the state column, indexed by
	// node, and the worklist.
	col    []uint64
	halted []bool
	active []int32
	err    runErr

	// crashed marks permanently crashed nodes on faulty runs; lazily
	// allocated on the first faulty run so clean engines pay nothing.
	crashed []bool

	// ctx, when non-nil, arms cooperative cancellation: runCore polls
	// ctx.Err() at every round barrier and aborts the run with a
	// wrapped context error. See WithContext.
	ctx context.Context

	// Durability (snapshot.go). ck arms barrier checkpointing. resume
	// holds a snapshot armed for the next run; resumeFrom (-1 when
	// disarmed) and repBase carry the restored round cursor and
	// fault-counter bases into runCore.
	ck         *Checkpointer
	resume     *Snapshot
	resumeFrom int
	repBase    FaultReport
}

// WithContext arms cooperative cancellation for this engine's
// subsequent runs (clean and faulty alike — they share runCore): the
// round loop polls ctx.Err() once per round barrier, and a cancelled
// or deadline-expired context aborts the run between rounds with an
// error wrapping ctx.Err() (so callers can errors.Is against
// context.DeadlineExceeded). The persistent workers
// are released and the message-plane tick advanced on that exit path
// exactly as on any other, so a cancelled run hands its whole worker
// reservation back mid-run — this is what makes a long-running
// service able to kill a 10^6-node request that blew its deadline.
// The poll is one atomic-ish Err call per round, so the steady-state
// round stays allocation-free. A nil ctx (the default) disarms the
// check. Returns e for chaining.
func (e *WordEngine) WithContext(ctx context.Context) *WordEngine {
	e.ctx = ctx
	return e
}

// cell is one word-lane slot: the payload word and the stamp saying
// which round, if any, it is live for.
type cell struct {
	w     uint64
	stamp int64
}

// NewWordEngine sizes a flat engine for the host: one slot per
// incident (arc, direction) pair with its routing (4 B per slot) and
// its two 16-byte arena cells, plus the offsets and the state, halt
// and worklist columns. It resolves dest row by row from the host's
// arc rows, as NewShardedEngine does. Runs reuse everything.
func NewWordEngine(h *Host) *WordEngine {
	n := h.G.N()
	e := &WordEngine{n: n, src: SourceOf(h)}
	e.off = make([]int32, n+1)
	slots := int64(0)
	for v := 0; v < n; v++ {
		slots += int64(len(h.D.Out(v)) + len(h.D.In(v)))
		if slots > math.MaxInt32 {
			panic(fmt.Errorf("model: message plane needs %d+ slots, exceeding the int32 flat-plane capacity %d: host exceeds flat-CSR capacity, use shards (NewShardedEngine)",
				slots, int64(math.MaxInt32)))
		}
		e.off[v+1] = e.off[v] + int32(len(h.D.Out(v))+len(h.D.In(v)))
		if w := e.off[v+1] - e.off[v]; w > e.maxSlots {
			e.maxSlots = w
		}
	}
	total := int(e.off[n])
	e.dest = make([]int32, total)
	rows := newRows(e.src, e.maxSlots)
	for v := int64(0); v < int64(n); v++ {
		letters, peers := rows.row(v)
		for k, u := range peers {
			ds, err := rows.peerSlot(u, letters[k], v)
			if err != nil {
				panic(fmt.Errorf("model: host inconsistent at arc (%d,%d) letter %v: %w", v, u, letters[k], err))
			}
			e.dest[e.off[v]+int32(k)] = e.off[u] + ds
		}
	}
	e.cells[0] = make([]cell, total)
	e.cells[1] = make([]cell, total)
	e.col = make([]uint64, n)
	e.halted = make([]bool, n)
	e.active = make([]int32, 0, n)
	e.resumeFrom = -1
	return e
}

// Run executes a word algorithm and extracts the per-node outputs.
func (e *WordEngine) Run(ids []int, algo WordAlgo, maxRounds int) ([]Output, int, error) {
	states, rounds, err := e.RunStates(ids, algo, maxRounds)
	if err != nil {
		return nil, 0, err
	}
	outs := make([]Output, len(states))
	for v := range states {
		outs[v] = algo.Out(&states[v])
	}
	return outs, rounds, nil
}

// RunStates executes a word algorithm and returns the final state
// column and the number of rounds, failing if some node has not
// halted after maxRounds. Pass ids for the ID model, nil for
// anonymous execution. The column is owned by the engine and
// overwritten by its next run.
func (e *WordEngine) RunStates(ids []int, algo WordAlgo, maxRounds int) ([]uint64, int, error) {
	col, rounds, _, err := e.run(ids, algo, maxRounds, nil)
	return col, rounds, err
}

// RunStatesFaulty is RunStates under a fault schedule: the schedule's
// Fate is applied to every delivery when the receiver's chunk is
// prepared (so drops, duplicates and reorderings happen between the
// sender's Send or Broadcast and the receiver's Inbox), its State gates
// which nodes step each round (down nodes skip the round silently;
// crashed nodes leave the worklist for good), and the returned
// FaultReport counts what actually happened. Fates are pure hashes of
// (seed, round, slot), so the sharded engine degrades identically. A
// nil schedule is the clean profile: the run takes the engine's exact
// clean path and the report is all-zero. Crashed nodes keep the last
// state they reached; callers decide how to treat their outputs
// (FaultReport.CrashedNode).
func (e *WordEngine) RunStatesFaulty(ids []int, algo WordAlgo, maxRounds int, sched Schedule) ([]uint64, int, *FaultReport, error) {
	col, rounds, rep, err := e.run(ids, algo, maxRounds, sched)
	if err != nil {
		return nil, 0, nil, err
	}
	if rep == nil {
		rep = &FaultReport{Profile: "clean"}
	}
	return col, rounds, rep, nil
}

// run initialises the state column, restores an armed snapshot and
// runs the round loop; the report is nil on a clean run.
func (e *WordEngine) run(ids []int, algo WordAlgo, maxRounds int, sched Schedule) ([]uint64, int, *FaultReport, error) {
	if ids != nil && len(ids) != e.n {
		return nil, 0, nil, fmt.Errorf("model: RunRounds: %d ids for %d nodes", len(ids), e.n)
	}
	// Sequential Init in increasing node order, each node's row built
	// into one reusable scratch, as on the sharded plane.
	rows := newRows(e.src, e.maxSlots)
	for v := 0; v < e.n; v++ {
		letters, peers := rows.row(int64(v))
		info := NodeInfo{ID: -1, Letters: letters, Peers: peers}
		if ids != nil {
			info.ID = ids[v]
		}
		e.col[v] = algo.Init(int64(v), info)
		e.halted[v] = false
	}
	if snap := e.resume; snap != nil {
		e.resume = nil
		if err := e.restore(snap, sched != nil, maxRounds); err != nil {
			return nil, 0, nil, err
		}
	}
	fp := planFaults(sched)
	rounds, rep, err := e.runCore(algo.Step, &fp, maxRounds)
	if err != nil {
		return nil, 0, nil, err
	}
	return e.col, rounds, rep, nil
}

// runCore is the round loop shared by the clean and faulty paths:
// active-worklist management (including schedule-driven crash
// removal), persistent workers with dynamic chunk handoff, the
// per-round barrier, error surfacing, and fault-report assembly. Each
// claimed chunk of the worklist is stepped by stepChunk: the faulty
// preparation and the algorithm's step (Chunk.Halt counts the nodes
// that halted). fp is the run's fault plan: State is asked only when
// the plan has node faults, and otherwise the barrier compacts by the
// clean rule.
func (e *WordEngine) runCore(step func(*Chunk, []uint64), fp *faultPlan, maxRounds int) (int, *FaultReport, error) {
	sched := fp.sched
	// A restored snapshot (snapshot.go) shifts the start round and
	// seeds the fault counters; the worklist is then rebuilt from the
	// restored bitsets instead of the schedule's round-0 fates, and
	// e.crashed must survive as restored rather than be cleared.
	startRound, resumed := 0, e.resumeFrom >= 0
	if resumed {
		startRound = e.resumeFrom
	}
	defer func() {
		e.resumeFrom = -1
		e.repBase = FaultReport{}
	}()
	prof := ""
	if sched != nil {
		prof = sched.String()
		if e.crashed == nil {
			e.crashed = make([]bool, e.n)
		} else if !resumed {
			for v := range e.crashed {
				e.crashed[v] = false
			}
		}
	}
	e.err.err = nil
	active := e.active[:0]
	for v := 0; v < e.n; v++ {
		if resumed {
			if e.halted[v] || (sched != nil && e.crashed[v]) {
				continue
			}
		} else if fp.nodeFaults && sched.State(0, int32(v)) == StateCrashed {
			e.crashed[v] = true
			continue
		}
		active = append(active, int32(v))
	}
	base := e.tick

	// Per-round fields shared with the workers. Writes happen between
	// rounds on this goroutine; the start-channel send publishes them
	// to the workers and wg.Wait closes the round barrier.
	var (
		curArena int
		curWant  int64
		round    int
		chunk    int64
		cursor   atomic.Int64

		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	// Advance the tick past every stamp this run can have written, on
	// every exit path (including errors and re-raised panics): a
	// reused engine must never mistake a stale stamp for a live one.
	defer func() {
		e.tick = base + int64(round) + 2
	}()

	roundWork := func(c *Chunk) {
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
			hi := cursor.Add(chunk)
			lo := hi - chunk
			if lo >= int64(len(active)) {
				return
			}
			if hi > int64(len(active)) {
				hi = int64(len(active))
			}
			stepChunk(step, c, active[lo:hi], e.col, fp, 0, 0)
		}
	}

	// Persistent workers: spawned once against par's global budget,
	// released after the last round; each owns one Chunk for the run.
	workers := 0
	if e.n > 1 {
		workers = par.Reserve(min(par.N()-1, e.n-1))
	}
	defer par.Release(workers)
	// Cursors live outside the goroutines (master's is last) so the
	// per-worker fault counters are collectable after the run.
	cs := newLanes(workers+1, e.maxSlots, fp, func(c *Chunk) {
		c.errs, c.prof = &e.err, prof
		c.off, c.dest, c.halted = e.off, e.dest, e.halted
	})
	start := make([]chan struct{}, workers)
	for w := range start {
		start[w] = make(chan struct{}, 1)
		go func(ch chan struct{}, c *Chunk) {
			for range ch {
				c.enter(round, e.cells[curArena], e.cells[curArena^1], curWant)
				roundWork(c)
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

	round = startRound
	for ; round < maxRounds && len(active) > 0; round++ {
		if e.ctx != nil {
			if err := e.ctx.Err(); err != nil {
				if prof != "" {
					return 0, nil, fmt.Errorf("model: round %d [%s]: run cancelled: %w", round, prof, err)
				}
				return 0, nil, fmt.Errorf("model: round %d: run cancelled: %w", round, err)
			}
		}
		curArena = round & 1
		curWant = base + int64(round) + 1
		chunk = int64(len(active)/((workers+1)*4)) + 1
		cursor.Store(0)
		wg.Add(workers)
		for _, ch := range start {
			ch <- struct{}{}
		}
		master.enter(round, e.cells[curArena], e.cells[curArena^1], curWant)
		roundWork(master)
		wg.Wait()
		if panicked != nil {
			panic(panicked)
		}
		if err := e.err.err; err != nil {
			return 0, nil, err
		}
		// Compact the active worklist in place: the workers are
		// stopped. Under node faults nodes whose crash round has arrived
		// leave the worklist permanently; otherwise a round in which no
		// node halted leaves it as it was.
		if halts := takeHalts(cs); fp.nodeFaults || halts > 0 {
			active = compact(active, e.halted, e.crashed, fp, round, 0)
		}
		// Barrier checkpoint: after compaction (so crashes landing at
		// round+1 are in the bitsets) and before the next round's
		// cancellation poll (so RequestNow-then-cancel captures state
		// right at the cancellation point). The idle cost is one nil
		// check; a finished run (empty worklist) never checkpoints.
		if e.ck != nil && len(active) > 0 && e.ck.due(round+1) {
			if err := e.snapshotAt(round+1, base, sched, cs); err != nil {
				return 0, nil, err
			}
		}
	}
	e.active = active[:0]
	if len(active) > 0 {
		if prof != "" {
			return 0, nil, fmt.Errorf("model: node %d did not halt within %d rounds [%s]", active[0], maxRounds, prof)
		}
		return 0, nil, fmt.Errorf("model: node %d did not halt within %d rounds", active[0], maxRounds)
	}
	var rep *FaultReport
	if sched != nil {
		r := sumFaults(e.repBase, cs)
		r.Profile = prof
		rep = &r
		rep.Crashed = append([]bool(nil), e.crashed...)
		for _, c := range rep.Crashed {
			if c {
				rep.NumCrashed++
			}
		}
	}
	return round, rep, nil
}

// compact filters a worklist in place after round: halted nodes leave
// it, and under node faults so do nodes whose crash round has come
// (marked in crashed). Entries index a column starting at global node
// gbase; the schedule is asked at the global node.
func compact(list []int32, halted, crashed []bool, fp *faultPlan, round int, gbase int64) []int32 {
	keep := list[:0]
	for _, v := range list {
		if halted[v] {
			continue
		}
		if fp.nodeFaults && fp.sched.State(round+1, int32(gbase+int64(v))) == StateCrashed {
			crashed[v] = true
			continue
		}
		keep = append(keep, v)
	}
	return keep
}
