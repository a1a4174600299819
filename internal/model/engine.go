package model

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/view"
)

// Engine is the batched worker-parallel round simulator behind
// RunRounds: the operational analogue of the sweep engine. It sizes a
// CSR message plane once from the host's arc structure and then
// executes synchronous rounds with no per-round slice churn at all.
//
// Layout. Every incident (arc, direction) pair of every node is one
// slot: node v's slots are off[v]:off[v+1], ordered by the letter
// naming the arc at v (view.Letter.Less), so an inbox is always
// delivered in the receiver's letter order regardless of worker
// schedule. dest[s] maps a send on slot s's letter to the slot naming
// the same arc by the inverse letter at the other endpoint.
//
// Double buffering. Messages for round r live in arena r&1 and the
// outboxes of round r are written into arena (r+1)&1, so a slot is
// written by exactly one sender and read by exactly one receiver and
// no round ever races with the next. Slots carry monotone int64
// stamps instead of being cleared: a slot holds a live message for
// round r iff its stamp equals the run's base tick + r + 1, so
// neither arena is ever zeroed, not even between runs.
//
// Payload lanes. Untyped runs carry any payloads in the boxed lane
// (the Msg arenas buf with their own stamp arenas, the dense inbox
// arena, the NodeInfo letter arena and the state column); typed runs
// (see TypedEngine) carry fixed-width payloads in the word lane, whose
// arenas hold one 16-byte cell per slot — the payload word beside its
// stamp, so a liveness check, a payload read and a send touch one
// cache line. Both lanes share the same slots, routing, letter order
// and tick, and each is allocated on its first use — the word lane on
// the first typed attachment, the boxed lane on the first untyped run
// — so an engine pays only for the lanes it runs. A send on the other
// lane is a run error.
//
// Worklist. Halted nodes leave the active list and cost nothing: each
// round is a worker-sharded sweep of the active list only (dynamic
// chunk handoff over a shared cursor, par.ForScratch-style; each
// claimed chunk goes to the run's step function whole, so the per-run
// columns and rows are loaded once per chunk, not once per node), and
// the workers are persistent for the whole run — spawned once against
// par's global budget (par.Reserve), released at the end — so a
// steady-state round performs no allocation and no goroutine churn. A
// clean round in which no node halted leaves the list as it was, and
// the barrier skips its compaction.
//
// Determinism. Each node's Step writes only that node's state slot,
// halt flag, dense-inbox region and outgoing message slots, so
// parallel and sequential runs are byte-identical; any randomness
// must be drawn before the run (Init is invoked sequentially in
// increasing node order for exactly this reason).
//
// An Engine may be reused for any number of runs on its host (arenas
// warm up once), and typed and untyped runs may alternate on one
// plane (the monotone stamps keep them from ever reading each other's
// messages), but a single Engine must not execute two runs
// concurrently.
type Engine struct {
	h *Host
	n int

	// Slot layout (see above).
	off     []int32
	letters []view.Letter
	dest    []int32
	// maxSlots is the widest slot row (the plane's maximum in-degree):
	// the bound every per-worker inbox-compaction scratch is pre-sized
	// from (2x for fault scratch, so duplicated deliveries fit).
	maxSlots int32
	// info holds every node's NodeInfo letters (out-arcs then in-arcs,
	// as lettersOf produces) in one flat arena, sliced per node at
	// Init time so a run performs no per-node letter allocation.
	// Handed-out slices are shared: algorithms must treat them as
	// read-only, which every RoundAlgo/EngineAlgo in the repo does.
	// Boxed lane: nil until the first untyped run.
	info []view.Letter

	// Message plane: double-buffered arenas with monotone stamps. cells
	// is the typed word lane (payload and stamp side by side), nil until
	// the first TypedOn attachment; buf with its stamps is the boxed
	// lane, nil until the first untyped run. The tick is shared.
	cells [2][]cell
	buf   [2][]Msg
	stamp [2][]int64
	tick  int64

	// Run state, reused across runs. states and dense are boxed-lane
	// arrays, nil until the first untyped run.
	states  []any
	halted  []bool
	active  []int32
	spare   []int32
	dense   []Msg
	errs    []error
	errFlag atomic.Bool

	// crashed marks permanently crashed nodes on faulty runs; lazily
	// allocated on the first faulty run so clean engines pay nothing.
	crashed []bool

	// ctx, when non-nil, arms cooperative cancellation: runCore polls
	// ctx.Err() at every round barrier and aborts the run with a
	// wrapped context error. See WithContext.
	ctx context.Context

	// Durability (snapshot.go). ck arms barrier checkpointing; the
	// ckEnc* closures and ckTyped flag are installed per run by
	// runStates (they capture the run's codecs and column). resume
	// holds a snapshot armed for the next run; resumeFrom (-1 when
	// disarmed) and repBase carry the restored round cursor and
	// fault-counter bases into runCore.
	ck          *Checkpointer
	ckTyped     bool
	ckEncStates func(dst []byte) []byte
	ckEncData   func(dst []byte, data any) []byte
	resume      *Snapshot
	resumeFrom  int
	repBase     FaultReport
}

// WithContext arms cooperative cancellation for this engine's
// subsequent runs (typed, untyped, clean and faulty alike — they all
// share runCore): the round loop polls ctx.Err() once per round
// barrier, and a cancelled or deadline-expired context aborts the run
// between rounds with an error wrapping ctx.Err() (so callers can
// errors.Is against context.DeadlineExceeded). The persistent workers
// are released and the message-plane tick advanced on that exit path
// exactly as on any other, so a cancelled run hands its whole worker
// reservation back mid-run — this is what makes a long-running
// service able to kill a 10^6-node request that blew its deadline.
// The poll is one atomic-ish Err call per round, so the steady-state
// round stays allocation-free. A nil ctx (the default) disarms the
// check. Returns e for chaining.
func (e *Engine) WithContext(ctx context.Context) *Engine {
	e.ctx = ctx
	return e
}

// EngineAlgo is the engine-native form of a round algorithm: Step
// writes its outbox through the Outbox instead of returning a slice,
// so a non-allocating Step makes the whole round allocation-free.
// The inbox slice is valid only for the duration of the Step call
// (it aliases the engine's dense arena); Step must not retain it.
// At most one message may be sent per letter per round.
type EngineAlgo struct {
	// Init returns the initial state. It is called sequentially in
	// increasing node order, so it may consume a shared RNG or a
	// pre-drawn per-node table deterministically.
	Init func(info NodeInfo) any
	// Step consumes the inbox (in receiver letter order), emits
	// messages for the next round through out, and returns the new
	// state and whether the node halts.
	Step func(state any, round int, inbox []Msg, out *Outbox) (any, bool)
	// Out extracts the final output from a state.
	Out func(state any) Output

	// Optional checkpoint codecs (snapshot.go): EncodeState appends a
	// self-delimiting encoding of a state's dynamic fields and
	// DecodeState consumes one from the front of src — it receives the
	// state Init just produced (so static per-node context like letter
	// slices survives a resume without being serialised) and returns
	// the state to run with, usually the same one mutated in place.
	// EncodeData and DecodeData do the same for message payloads.
	// Required only for checkpointed or resumed runs (the Data pair
	// only when messages are in flight at a barrier).
	EncodeState func(dst []byte, state any) []byte
	DecodeState func(src []byte, state any) (dec any, rest []byte, err error)
	EncodeData  func(dst []byte, data any) []byte
	DecodeData  func(src []byte) (data any, rest []byte, err error)
}

// engine adapts the classical slice-returning RoundAlgo form.
func (a RoundAlgo) engine() EngineAlgo {
	return EngineAlgo{
		Init: a.Init,
		Step: func(state any, round int, inbox []Msg, out *Outbox) (any, bool) {
			st, msgs, done := a.Step(state, round, inbox)
			for _, m := range msgs {
				out.Send(m.L, m.Data)
			}
			return st, done
		},
		Out: a.Out,
	}
}

// cell is one word-lane slot: the payload word and the stamp saying
// which round, if any, it is live for.
type cell struct {
	w     uint64
	stamp int64
}

// NewEngine sizes the part of a message plane both payload lanes
// share: one slot per incident (arc, direction) pair with its letter
// and routing (20 B per slot), plus the halt, worklist and error
// columns. Each lane's own arrays, stamps included, come with its
// first use: the word lane on the first typed attachment
// (ensureWordLane), the boxed lane on the first untyped run
// (ensureAnyPlane). Runs reuse everything.
func NewEngine(h *Host) *Engine {
	n := h.G.N()
	e := &Engine{h: h, n: n}
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
	e.letters = make([]view.Letter, total)
	e.dest = make([]int32, total)
	for v := 0; v < n; v++ {
		// Merge the label-sorted out- and in-rows into letter order;
		// dest holds each slot's far endpoint until every row is
		// lettered.
		outs, ins := h.D.Out(v), h.D.In(v)
		i, j := 0, 0
		for s := e.off[v]; s < e.off[v+1]; s++ {
			takeOut := i < len(outs) &&
				(j >= len(ins) || outs[i].Label <= ins[j].Label)
			if takeOut {
				e.letters[s] = view.Letter{Label: outs[i].Label}
				e.dest[s] = int32(outs[i].To)
				i++
			} else {
				e.letters[s] = view.Letter{Label: ins[j].Label, In: true}
				e.dest[s] = int32(ins[j].To)
				j++
			}
		}
	}
	for s, u := range e.dest {
		e.dest[s] = e.slot(int(u), e.letters[s].Inv())
	}
	e.halted = make([]bool, n)
	e.active = make([]int32, 0, n)
	e.spare = make([]int32, 0, n)
	e.errs = make([]error, n)
	e.resumeFrom = -1
	return e
}

// ensureWordLane allocates the typed word lane's two cell arenas
// (32 B per slot; routing and letter order are shared with the boxed
// lane) on the first typed attachment.
func (e *Engine) ensureWordLane() {
	if e.cells[0] == nil {
		total := len(e.letters)
		e.cells[0] = make([]cell, total)
		e.cells[1] = make([]cell, total)
	}
}

// ensureAnyPlane builds the boxed lane on the first untyped run: the
// two Msg arenas with every slot's arrival letter written in and their
// two stamp arenas, the dense inbox arena, the NodeInfo letter arena
// and the state column (128 B per slot and 16 B per node, mostly
// pointer words the garbage collector scans). The fresh stamps are 0,
// below every live stamp, so the arenas never read a stale message.
func (e *Engine) ensureAnyPlane() {
	if e.buf[0] != nil {
		return
	}
	total := len(e.letters)
	for a := range e.buf {
		e.stamp[a] = make([]int64, total)
		e.buf[a] = make([]Msg, total)
		for s := range e.buf[a] {
			// A slot's arrival letter never changes; senders only
			// write Data and the stamp.
			e.buf[a][s].L = e.letters[s]
		}
	}
	e.dense = make([]Msg, total)
	e.info = make([]view.Letter, total)
	for v := 0; v < e.n; v++ {
		s := e.off[v]
		for _, a := range e.h.D.Out(v) {
			e.info[s] = view.Letter{Label: a.Label}
			s++
		}
		for _, a := range e.h.D.In(v) {
			e.info[s] = view.Letter{Label: a.Label, In: true}
			s++
		}
	}
	e.states = make([]any, e.n)
}

// slot returns the index of v's slot for letter l, or off[v+1] when v
// has no such letter (binary search over the letter-sorted slot row).
func (e *Engine) slot(v int, l view.Letter) int32 {
	lo, hi := e.off[v], e.off[v+1]
	end := hi
	for lo < hi {
		mid := (lo + hi) >> 1
		if e.letters[mid].Less(l) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && e.letters[lo] == l {
		return lo
	}
	return end
}

// fail records v's first send error; the run surfaces the error of
// the smallest failing node after the round's barrier.
func (e *Engine) fail(v int, err error) {
	if e.errs[v] == nil {
		e.errs[v] = err
		e.errFlag.Store(true)
	}
}

// Outbox routes one node's outgoing messages straight into the next
// round's arena. Each worker owns one Outbox for the whole run
// (allocated by newLanes, cache lines apart from every other
// worker's); the engine repoints it at the current node before every
// Step.
type Outbox struct {
	e    *Engine
	v    int32
	nxt  int   // arena written this round
	want int64 // stamp marking next-round messages

	// The word lane's rows for this run and round: the slot offsets,
	// the routing and the arena written this round.
	off  []int32
	dest []int32
	next []cell

	// round and prof contextualise error strings (prof is "" on clean
	// runs; see errf).
	round int
	prof  string
	// typed is the run's payload lane: SendWord and BroadcastWord are
	// errors on an untyped run, Send on a typed one.
	typed bool

	// This worker's fault counters and inbox-compaction scratch.
	lane
}

// enter points the outbox at a round that reads arena cur at stamp
// want: it writes the other arena at stamp want+1.
func (ob *Outbox) enter(round, cur int, want int64) {
	ob.nxt, ob.want, ob.round = cur^1, want+1, round
	ob.next = ob.e.cells[ob.nxt]
}

// errf builds a run error carrying the round number and, on faulty
// runs, the fault-profile descriptor.
func (ob *Outbox) errf(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if ob.prof != "" {
		return fmt.Errorf("model: round %d [%s]: %s", ob.round, ob.prof, msg)
	}
	return fmt.Errorf("model: round %d: %s", ob.round, msg)
}

// Send emits a message on the arc named l at the sending node, to be
// delivered next round. Sends on absent letters, second sends on one
// letter in the same round and sends during a typed run are errors
// (reported by the run).
func (ob *Outbox) Send(l view.Letter, data any) {
	e := ob.e
	v := int(ob.v)
	if ob.typed {
		e.fail(v, ob.errf("node %d sent on the boxed lane during a typed run", v))
		return
	}
	s := e.slot(v, l)
	if s == e.off[v+1] {
		e.fail(v, ob.errf("node %d sent on absent letter %v", v, l))
		return
	}
	d := ob.e.dest[s]
	st := e.stamp[ob.nxt]
	if st[d] == ob.want {
		e.fail(v, ob.errf("node %d sent twice on letter %v", v, l))
		return
	}
	e.buf[ob.nxt][d].Data = data
	st[d] = ob.want
}

// SendWord emits the payload word w on the sender's local incident
// slot (the letter-sorted index: typed info.Letters[slot] names the
// arc) — the typed lane's analogue of Send, with the same contract:
// sends on absent slots, second sends on one slot in the same round
// and sends during an untyped run are errors reported by the run.
// Unlike Send there is no letter lookup at all; the slot index
// addresses the plane directly.
func (ob *Outbox) SendWord(slot int, w uint64) {
	v := int(ob.v)
	if !ob.typed {
		ob.e.fail(v, ob.errf("node %d sent on the word lane during an untyped run", v))
		return
	}
	lo, hi := ob.off[v], ob.off[v+1]
	if slot < 0 || int32(slot) >= hi-lo {
		ob.e.fail(v, ob.errf("node %d sent on absent slot %d (node has %d)", v, slot, hi-lo))
		return
	}
	c := &ob.next[ob.dest[lo+int32(slot)]]
	if c.stamp == ob.want {
		ob.e.fail(v, ob.errf("node %d sent twice on slot %d", v, slot))
		return
	}
	*c = cell{w: w, stamp: ob.want}
}

// BroadcastWord emits w on every incident slot of the sending node —
// the whole-row fast path of the typed lane: one pass over the
// sender's slot row, no per-letter lookup and no double-send
// bookkeeping (it overwrites anything already sent this round on
// those slots; a second BroadcastWord in one Step simply wins). Like
// SendWord it is an error during an untyped run.
func (ob *Outbox) BroadcastWord(w uint64) {
	v := ob.v
	if !ob.typed {
		ob.e.fail(int(v), ob.errf("node %d sent on the word lane during an untyped run", v))
		return
	}
	next, c := ob.next, cell{w: w, stamp: ob.want}
	for _, d := range ob.dest[ob.off[v]:ob.off[v+1]] {
		next[d] = c
	}
}

// Run executes an engine algorithm and extracts the per-node outputs.
func (e *Engine) Run(ids []int, algo EngineAlgo, maxRounds int) ([]Output, int, error) {
	states, rounds, err := e.RunStates(ids, algo, maxRounds)
	if err != nil {
		return nil, 0, err
	}
	outs := make([]Output, len(states))
	for v, st := range states {
		outs[v] = algo.Out(st)
	}
	return outs, rounds, nil
}

// RunStates executes an engine algorithm on the host and returns the
// final per-node states and the number of rounds, failing if some
// node has not halted after maxRounds. The returned slice is owned by
// the engine and is overwritten by its next run.
func (e *Engine) RunStates(ids []int, algo EngineAlgo, maxRounds int) ([]any, int, error) {
	states, rounds, _, err := e.runStates(ids, algo, maxRounds, nil)
	return states, rounds, err
}

// RunStatesFaulty is RunStates executing under a fault schedule: the
// schedule's Fate is applied to every delivery at inbox-compaction
// time (so drops, duplicates and reorderings happen between
// Outbox.Send and the receiver's Step), its State gates which nodes
// step each round (down nodes skip the round silently; crashed nodes
// leave the worklist for good), and the returned FaultReport counts
// what actually happened. A nil schedule is the clean profile: the
// run takes the engine's exact clean path and the report is all-zero.
// Crashed nodes keep the last state they reached; callers decide how
// to treat their outputs (FaultReport.CrashedNode).
func (e *Engine) RunStatesFaulty(ids []int, algo EngineAlgo, maxRounds int, sched Schedule) ([]any, int, *FaultReport, error) {
	states, rounds, rep, err := e.runStates(ids, algo, maxRounds, sched)
	if err != nil {
		return nil, 0, nil, err
	}
	if rep == nil {
		rep = &FaultReport{Profile: "clean"}
	}
	return states, rounds, rep, nil
}

// runStates initialises the untyped state column and dispatches the
// clean or faulty step path into the shared round-loop core.
func (e *Engine) runStates(ids []int, algo EngineAlgo, maxRounds int, sched Schedule) ([]any, int, *FaultReport, error) {
	if ids != nil && len(ids) != e.n {
		return nil, 0, nil, fmt.Errorf("model: RunRounds: %d ids for %d nodes", len(ids), e.n)
	}
	e.ensureAnyPlane()
	for v := 0; v < e.n; v++ {
		info := NodeInfo{ID: -1, Letters: e.info[e.off[v]:e.off[v+1]:e.off[v+1]]}
		if ids != nil {
			info.ID = ids[v]
		}
		e.states[v] = algo.Init(info)
		e.halted[v] = false
		e.errs[v] = nil
	}
	if e.ck != nil {
		if algo.EncodeState == nil {
			return nil, 0, nil, fmt.Errorf("model: checkpointing armed but algorithm has no EncodeState codec")
		}
		e.ckTyped = false
		e.ckEncStates = func(dst []byte) []byte {
			for v := 0; v < e.n; v++ {
				dst = algo.EncodeState(dst, e.states[v])
			}
			return dst
		}
		e.ckEncData = algo.EncodeData
	}
	if snap := e.resume; snap != nil {
		e.resume = nil
		if err := e.restoreUntyped(snap, algo, sched != nil); err != nil {
			e.failedResume(snap, false)
			return nil, 0, nil, err
		}
	}
	step := e.stepAny(algo)
	if sched != nil {
		step = e.stepAnyFaulty(algo, sched)
	}
	rounds, rep, err := e.runCore(step, false, sched, maxRounds)
	if err != nil {
		return nil, 0, nil, err
	}
	return e.states, rounds, rep, nil
}

// stepAny is the clean untyped step over one chunk of the worklist:
// compact each node's live slots into its disjoint region of the
// global dense arena, then Step. The current round's arena and stamp
// are recovered from the Outbox (the next-round arena is nxt^1 and
// next-round stamps are want, so this round reads arena nxt^1 at stamp
// want-1).
func (e *Engine) stepAny(algo EngineAlgo) func([]int32, *Outbox) {
	step := algo.Step
	return func(chunk []int32, ob *Outbox) {
		off, states, halted, dense := e.off, e.states, e.halted, e.dense
		cur, want := ob.nxt^1, ob.want-1
		st, buf := e.stamp[cur], e.buf[cur]
		round, halts := ob.round, int64(0)
		for _, v := range chunk {
			lo, hi := off[v], off[v+1]
			k := lo
			for s := lo; s < hi; s++ {
				if st[s] == want {
					dense[k] = buf[s]
					k++
				}
			}
			ob.v = v
			ns, done := step(states[v], round, dense[lo:k], ob)
			states[v] = ns
			halted[v] = done
			if done {
				halts++
			}
		}
		ob.halts += halts
	}
}

// stepAnyFaulty is stepAny with the schedule interposed between the
// plane and the receiver: liveness gating, per-delivery fates
// (compacted into the worker's double-width fdense scratch so
// duplicates fit), and adversarial inbox permutation.
func (e *Engine) stepAnyFaulty(algo EngineAlgo, sched Schedule) func([]int32, *Outbox) {
	step := algo.Step
	return func(chunk []int32, ob *Outbox) {
		off, states, halted, fd := e.off, e.states, e.halted, ob.fdense
		cur, want := ob.nxt^1, ob.want-1
		st, buf := e.stamp[cur], e.buf[cur]
		round := ob.round
		for _, v := range chunk {
			switch sched.State(round, v) {
			case StateDown:
				ob.downSteps++
				continue
			case StateCrashed:
				continue
			}
			k := 0
			for s := off[v]; s < off[v+1]; s++ {
				if st[s] != want {
					continue
				}
				switch sched.Fate(round, s) {
				case Drop:
					ob.dropped++
					continue
				case Duplicate:
					ob.duped++
					fd[k] = buf[s]
					k++
				}
				fd[k] = buf[s]
				k++
			}
			inbox := fd[:k]
			if seed := sched.Reorder(round, v); seed != 0 && len(inbox) > 1 {
				shuffleMsgs(inbox, seed)
				ob.reordered++
			}
			ob.v = v
			ns, done := step(states[v], round, inbox, ob)
			states[v] = ns
			halted[v] = done
		}
	}
}

// runCore is the round-loop machinery shared by the untyped and typed
// paths: active-worklist management (including schedule-driven crash
// removal), persistent workers with dynamic chunk handoff, the
// per-round barrier, error surfacing, and fault-report assembly. step
// performs the round of one chunk of the worklist (compaction, fate
// draws and the algorithm's Step all live in the caller's closure;
// clean steps add the nodes that halted to the worker's lane.halts);
// typed says whether step takes the typed path, which sizes each
// worker's inbox-compaction scratch (newLanes).
func (e *Engine) runCore(step func([]int32, *Outbox), typed bool, sched Schedule, maxRounds int) (int, *FaultReport, error) {
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
	e.errFlag.Store(false)
	active := e.active[:0]
	for v := 0; v < e.n; v++ {
		if resumed {
			if e.halted[v] || (sched != nil && e.crashed[v]) {
				continue
			}
		} else if sched != nil && sched.State(0, int32(v)) == StateCrashed {
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

	roundWork := func(ob *Outbox) {
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
			step(active[lo:hi], ob)
		}
	}

	// Persistent workers: spawned once against par's global budget,
	// released after the last round; each owns one Outbox for the run.
	workers := 0
	if e.n > 1 {
		workers = par.Reserve(min(par.N()-1, e.n-1))
	}
	defer par.Release(workers)
	// Outboxes live outside the goroutines (master's is last) so the
	// per-worker fault counters are collectable after the run.
	obs, lanes := newLanes(workers+1, e.maxSlots, typed, sched != nil, func(ob *Outbox) *lane {
		ob.e, ob.prof, ob.typed = e, prof, typed
		ob.off, ob.dest = e.off, e.dest
		return &ob.lane
	})
	start := make([]chan struct{}, workers)
	for w := range start {
		start[w] = make(chan struct{}, 1)
		go func(ch chan struct{}, ob *Outbox) {
			for range ch {
				ob.enter(round, curArena, curWant)
				roundWork(ob)
				wg.Done()
			}
		}(start[w], obs[w])
	}
	defer func() {
		for _, ch := range start {
			close(ch)
		}
	}()
	masterOb := obs[workers]

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
		masterOb.enter(round, curArena, curWant)
		roundWork(masterOb)
		wg.Wait()
		if panicked != nil {
			panic(panicked)
		}
		if e.errFlag.Load() {
			for _, v := range active {
				if err := e.errs[v]; err != nil {
					return 0, nil, err
				}
			}
		}
		// Compact the active worklist; the spare buffer flips roles so
		// neither list is reallocated. On the faulty path nodes whose
		// crash round has arrived leave the worklist permanently; on the
		// clean path a round in which no node halted leaves it as it was.
		if sched != nil {
			nxt := e.spare[:0]
			for _, v := range active {
				if e.halted[v] {
					continue
				}
				if sched.State(round+1, v) == StateCrashed {
					e.crashed[v] = true
					continue
				}
				nxt = append(nxt, v)
			}
			e.spare, active = active[:0], nxt
		} else if takeHalts(lanes) > 0 {
			nxt := e.spare[:0]
			for _, v := range active {
				if !e.halted[v] {
					nxt = append(nxt, v)
				}
			}
			e.spare, active = active[:0], nxt
		}
		// Barrier checkpoint: after compaction (so crashes landing at
		// round+1 are in the bitsets) and before the next round's
		// cancellation poll (so RequestNow-then-cancel captures state
		// right at the cancellation point). The idle cost is one nil
		// check; a finished run (empty worklist) never checkpoints.
		if e.ck != nil && len(active) > 0 && e.ck.due(round+1) {
			if err := e.snapshotAt(round+1, base, sched, lanes); err != nil {
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
		r := sumFaults(e.repBase, lanes)
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
