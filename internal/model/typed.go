package model

import (
	"encoding/binary"
	"fmt"

	"repro/internal/view"
)

// This file is the typed columnar path of the round engine: states
// live in a contiguous []S column owned by the TypedEngine (no
// interface boxing, no per-node pointer chase) and message payloads
// travel in the Engine's fixed-width uint64 word lane, parallel to the
// any-payload arenas and sharing their slots, stamps, routing,
// letter-sort order, worklist and fault hashing. Msg.Data remains the
// supported slow path for unbounded payloads (GatherViews); the typed
// gather below shows how a pointer-shaped payload rides the word lane
// anyway, as a column handle.

// WordMsg is one inbox entry of the typed message plane: the payload
// word plus the receiver-local incident-slot index of the arrival arc
// (the position of the arc in the receiver's letter-sorted slot row —
// the typed analogue of Msg.L; the letter itself is info.Letters[Slot]
// under the typed Init contract). 16 bytes, pointer-free: compacting a
// typed inbox is a flat copy the garbage collector never scans.
type WordMsg struct {
	// W is the payload word.
	W uint64
	// Slot is the receiver-local incident-slot index (letter order).
	Slot int32
}

// TypedAlgo is the typed engine-native form of a round algorithm.
// Contract deltas from EngineAlgo, all in service of the columnar
// layout:
//
//   - Init receives the node index v (so columnar algorithms can index
//     pre-drawn per-node tables directly) and info.Letters in the
//     letter-sorted slot order of the message plane — local slot i is
//     named by info.Letters[i], and sends address slots, not letters.
//   - Step mutates the state in place through *S and returns only the
//     halt flag. The inbox aliases per-worker scratch and is valid
//     only during the call.
//   - Sends go through Outbox.SendWord (one slot, checked like Send)
//     or Outbox.BroadcastWord (whole slot row, unchecked overwrite).
type TypedAlgo[S any] struct {
	// Init returns node v's initial state; called sequentially in
	// increasing node order, so pre-drawn randomness stays
	// deterministic exactly as on the untyped path.
	Init func(v int, info NodeInfo) S
	// Step consumes the inbox (receiver letter order) and returns
	// whether the node halts.
	Step func(state *S, round int, inbox []WordMsg, out *Outbox) bool
	// Out extracts the final output from a state.
	Out func(state *S) Output

	// Optional checkpoint codecs (snapshot.go): EncodeState appends a
	// self-delimiting encoding of a state and DecodeState consumes one
	// from the front of src, returning the remainder. Required only
	// for checkpointed or resumed runs; uint64 states (WordAlgo) fall
	// back to a fixed-width little-endian default, so every packed
	// word workload is checkpointable with no codec at all. Payloads
	// need no codec on the typed plane — they are the word lane.
	EncodeState func(dst []byte, state *S) []byte
	DecodeState func(src []byte, state *S) (rest []byte, err error)
}

// WordAlgo is the fully packed fixed-width instantiation: the whole
// node state is one uint64 (the Cole–Vishkin colour pipeline and the
// matching proposal protocol both fit), so a run touches exactly two
// contiguous uint64 columns — the state column and the word lane.
type WordAlgo = TypedAlgo[uint64]

// TypedEngine couples an Engine's message plane with a columnar state
// array. The plane is shared: one Engine may alternate typed and
// untyped runs (the monotone stamp discipline keeps them from ever
// reading each other's messages), but, exactly like the Engine
// itself, a TypedEngine must not execute two runs concurrently.
type TypedEngine[S any] struct {
	e   *Engine
	col []S
}

// WordEngine is the uint64-state instantiation of TypedEngine.
type WordEngine = TypedEngine[uint64]

// NewTypedEngine sizes a typed engine (plane plus state column) for
// the host.
func NewTypedEngine[S any](h *Host) *TypedEngine[S] { return TypedOn[S](NewEngine(h)) }

// NewWordEngine sizes a fixed-width typed engine for the host.
func NewWordEngine(h *Host) *WordEngine { return NewTypedEngine[uint64](h) }

// TypedOn attaches a columnar state array to an existing engine,
// sharing its message plane, worklists and stamps. The word lane is
// allocated on the first attachment; purely untyped engines never pay
// for it.
func TypedOn[S any](e *Engine) *TypedEngine[S] {
	e.ensureWordLane()
	return &TypedEngine[S]{e: e, col: make([]S, e.n)}
}

// Engine returns the underlying engine, e.g. to alternate typed and
// untyped runs on one warmed-up plane.
func (te *TypedEngine[S]) Engine() *Engine { return te.e }

// Run executes a typed algorithm and extracts the per-node outputs.
func (te *TypedEngine[S]) Run(ids []int, algo TypedAlgo[S], maxRounds int) ([]Output, int, error) {
	states, rounds, err := te.RunStates(ids, algo, maxRounds)
	if err != nil {
		return nil, 0, err
	}
	outs := make([]Output, len(states))
	for v := range states {
		outs[v] = algo.Out(&states[v])
	}
	return outs, rounds, nil
}

// RunStates executes a typed algorithm and returns the final state
// column and the number of rounds, failing if some node has not
// halted after maxRounds. The column is owned by the typed engine and
// overwritten by its next run.
func (te *TypedEngine[S]) RunStates(ids []int, algo TypedAlgo[S], maxRounds int) ([]S, int, error) {
	col, rounds, _, err := te.runStates(ids, algo, maxRounds, nil)
	return col, rounds, err
}

// RunStatesFaulty is RunStates under a fault schedule, with exactly
// the semantics of Engine.RunStatesFaulty: fates are drawn per
// (round, slot) from the same hashes, so a typed run degrades
// identically to the untyped run of the same algorithm.
func (te *TypedEngine[S]) RunStatesFaulty(ids []int, algo TypedAlgo[S], maxRounds int, sched Schedule) ([]S, int, *FaultReport, error) {
	col, rounds, rep, err := te.runStates(ids, algo, maxRounds, sched)
	if err != nil {
		return nil, 0, nil, err
	}
	if rep == nil {
		rep = &FaultReport{Profile: "clean"}
	}
	return col, rounds, rep, nil
}

// runStates initialises the state column and dispatches the typed
// clean or faulty step path into the shared round-loop core.
func (te *TypedEngine[S]) runStates(ids []int, algo TypedAlgo[S], maxRounds int, sched Schedule) ([]S, int, *FaultReport, error) {
	e := te.e
	if ids != nil && len(ids) != e.n {
		return nil, 0, nil, fmt.Errorf("model: RunRounds: %d ids for %d nodes", len(ids), e.n)
	}
	for v := 0; v < e.n; v++ {
		// Typed NodeInfo letters are the letter-sorted slot row itself
		// (shared, read-only): local slot i is info.Letters[i].
		info := NodeInfo{ID: -1, Letters: e.letters[e.off[v]:e.off[v+1]:e.off[v+1]]}
		if ids != nil {
			info.ID = ids[v]
		}
		te.col[v] = algo.Init(v, info)
		e.halted[v] = false
		e.errs[v] = nil
	}
	if e.ck != nil {
		enc, err := te.encStates(algo)
		if err != nil {
			return nil, 0, nil, err
		}
		e.ckTyped = true
		e.ckEncStates = enc
		e.ckEncData = nil
	}
	if snap := e.resume; snap != nil {
		e.resume = nil
		if err := te.restoreTyped(snap, algo, sched != nil); err != nil {
			e.failedResume(snap)
			return nil, 0, nil, err
		}
	}
	step := te.stepTyped(algo)
	if sched != nil {
		step = te.stepTypedFaulty(algo, sched)
	}
	rounds, rep, err := e.runCore(step, true, sched, maxRounds)
	if err != nil {
		return nil, 0, nil, err
	}
	return te.col, rounds, rep, nil
}

// encStates builds the state-column encoder for a checkpointed typed
// run: the algorithm's EncodeState per node, or the fixed-width
// little-endian default when the column is []uint64 (WordAlgo).
func (te *TypedEngine[S]) encStates(algo TypedAlgo[S]) (func(dst []byte) []byte, error) {
	if algo.EncodeState != nil {
		return func(dst []byte) []byte {
			for v := range te.col {
				dst = algo.EncodeState(dst, &te.col[v])
			}
			return dst
		}, nil
	}
	wcol, ok := any(te.col).([]uint64)
	if !ok {
		return nil, fmt.Errorf("model: checkpointing armed but typed algorithm has no EncodeState codec")
	}
	return func(dst []byte) []byte {
		for _, w := range wcol {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
		return dst
	}, nil
}

// restoreTyped restores a typed run from snap: the shared plane state,
// the state column through the algorithm's codec (or the uint64
// default), and the pending word-lane payloads.
func (te *TypedEngine[S]) restoreTyped(snap *Snapshot, algo TypedAlgo[S], faulty bool) error {
	e := te.e
	if algo.DecodeState == nil {
		if _, ok := any(te.col).([]uint64); !ok {
			return fmt.Errorf("model: resume: typed algorithm has no DecodeState codec")
		}
	}
	if err := e.restoreCommon(snap, true, faulty); err != nil {
		return err
	}
	if algo.DecodeState != nil {
		src := snap.States
		for v := 0; v < e.n; v++ {
			rest, err := algo.DecodeState(src, &te.col[v])
			if err != nil {
				return fmt.Errorf("model: resume: state of node %d: %w", v, err)
			}
			src = rest
		}
		if len(src) != 0 {
			return fmt.Errorf("model: resume: %d trailing state bytes", len(src))
		}
	} else {
		wcol := any(te.col).([]uint64)
		if len(snap.States) != 8*e.n {
			return fmt.Errorf("model: resume: state column is %d bytes (want %d)", len(snap.States), 8*e.n)
		}
		for v := range wcol {
			wcol[v] = binary.LittleEndian.Uint64(snap.States[8*v:])
		}
	}
	if len(snap.Words) != len(snap.Pending) {
		return fmt.Errorf("model: resume: %d payload words for %d pending slots", len(snap.Words), len(snap.Pending))
	}
	arena := snap.Round & 1
	for i, s := range snap.Pending {
		e.wbuf[arena][s] = snap.Words[i]
	}
	return nil
}

// stepTyped is the clean typed step: compact the node's live word
// slots into the worker's scratch (tagged with their local slot
// indices), then Step against the state column in place.
func (te *TypedEngine[S]) stepTyped(algo TypedAlgo[S]) func(int, *Outbox) {
	e := te.e
	return func(v int, ob *Outbox) {
		lo, hi := e.off[v], e.off[v+1]
		cur, want := ob.nxt^1, ob.want-1
		st := e.stamp[cur]
		wb := e.wbuf[cur]
		wd := ob.wdense
		k := 0
		for s := lo; s < hi; s++ {
			if st[s] == want {
				wd[k] = WordMsg{W: wb[s], Slot: s - lo}
				k++
			}
		}
		ob.v = int32(v)
		e.halted[v] = algo.Step(&te.col[v], ob.round, wd[:k], ob)
	}
}

// stepTypedFaulty is stepTyped with the fault schedule interposed:
// liveness gating and per-(round, slot) fates are drawn from exactly
// the hashes the untyped faulty path draws, so typed and untyped runs
// of one algorithm under one schedule see the same delivered,
// duplicated and reordered messages.
func (te *TypedEngine[S]) stepTypedFaulty(algo TypedAlgo[S], sched Schedule) func(int, *Outbox) {
	e := te.e
	return func(v int, ob *Outbox) {
		round := ob.round
		switch sched.State(round, int32(v)) {
		case StateDown:
			ob.downSteps++
			return
		case StateCrashed:
			return
		}
		lo, hi := e.off[v], e.off[v+1]
		cur, want := ob.nxt^1, ob.want-1
		st := e.stamp[cur]
		wb := e.wbuf[cur]
		fd := ob.fwdense
		k := 0
		for s := lo; s < hi; s++ {
			if st[s] != want {
				continue
			}
			switch sched.Fate(round, s) {
			case Drop:
				ob.dropped++
				continue
			case Duplicate:
				ob.duped++
				fd[k] = WordMsg{W: wb[s], Slot: s - lo}
				k++
			}
			fd[k] = WordMsg{W: wb[s], Slot: s - lo}
			k++
		}
		inbox := fd[:k]
		if seed := sched.Reorder(round, int32(v)); seed != 0 && len(inbox) > 1 {
			shuffleWordMsgs(inbox, seed)
			ob.reordered++
		}
		ob.v = int32(v)
		e.halted[v] = algo.Step(&te.col[v], round, inbox, ob)
	}
}

// RunRoundsTyped executes a typed round algorithm on the host — the
// typed twin of RunRounds. Pass ids for the ID model, nil for
// anonymous execution.
func RunRoundsTyped[S any](h *Host, ids []int, algo TypedAlgo[S], maxRounds int) ([]Output, int, error) {
	return NewTypedEngine[S](h).Run(ids, algo, maxRounds)
}

// RunRoundsTypedFaulty is RunRoundsTyped under a fault schedule — the
// typed twin of RunRoundsFaulty (nil schedule runs clean; crashed
// nodes' outputs are extracted from the last state they reached).
func RunRoundsTypedFaulty[S any](h *Host, ids []int, algo TypedAlgo[S], maxRounds int, sched Schedule) ([]Output, int, *FaultReport, error) {
	col, rounds, rep, err := NewTypedEngine[S](h).RunStatesFaulty(ids, algo, maxRounds, sched)
	if err != nil {
		return nil, 0, nil, err
	}
	outs := make([]Output, len(col))
	for v := range col {
		outs[v] = algo.Out(&col[v])
	}
	return outs, rounds, rep, nil
}

// gatherTypedState is the per-node state of the typed gather: the
// node's column index and its letter-sorted slot letters. The view
// trees themselves live in the run's tree columns (see
// gatherViewsTyped), not in the state.
type gatherTypedState struct {
	v       int32
	letters []view.Letter
}

// gatherViewsTyped is GatherViews on the typed plane, demonstrating
// how a pointer-shaped payload rides the fixed-width word lane: the
// lane carries column handles — each message word is the sender's
// node index — and the hash-consed trees live in two round-parity
// columns (the round-r assembly reads trees[r&1], which round r-1's
// senders wrote, and publishes into trees[(r+1)&1]; distinct parities
// keep same-round reads and writes on different arrays, so workers
// never race). final[v] tracks node v's latest assembled view for
// extraction after the run. Assembly order, duplicate-letter dedup
// and the starved-inbox stale-view rule mirror GatherViews exactly,
// which the differential tests pin down.
func gatherViewsTyped(n, r int) (TypedAlgo[gatherTypedState], []*view.Tree) {
	var trees [2][]*view.Tree
	trees[0] = make([]*view.Tree, n)
	trees[1] = make([]*view.Tree, n)
	final := make([]*view.Tree, n)
	algo := TypedAlgo[gatherTypedState]{
		Init: func(v int, info NodeInfo) gatherTypedState {
			final[v] = view.Leaf()
			return gatherTypedState{v: int32(v), letters: info.Letters}
		},
		Step: func(st *gatherTypedState, round int, inbox []WordMsg, out *Outbox) bool {
			t := final[st.v]
			if round > 0 && len(inbox) > 0 {
				cur := trees[round&1]
				children := make([]view.Child, 0, len(inbox))
				for _, m := range inbox {
					// Duplicated deliveries repeat a slot; keep the first.
					dup := false
					for _, c := range children {
						if c.L == st.letters[m.Slot] {
							dup = true
							break
						}
					}
					if dup {
						continue
					}
					l := st.letters[m.Slot]
					children = append(children, view.Child{L: l, T: pruneChild(cur[m.W], l.Inv())})
				}
				t = view.NewTree(children)
				final[st.v] = t
			}
			if round >= r {
				return true
			}
			trees[(round+1)&1][st.v] = t
			out.BroadcastWord(uint64(st.v))
			return false
		},
		Out: func(*gatherTypedState) Output { return Output{} },
	}
	return algo, final
}

// SimulatePORoundsTyped is SimulatePORounds driven through the typed
// message plane: the radius-r views are gathered by word-lane message
// passing (column handles to hash-consed trees) and the algorithm's
// view function is applied to the final views. By equation (1) the
// result coincides with RunPO, SimulatePO and SimulatePORounds.
func SimulatePORoundsTyped(h *Host, alg PO, kind Kind) (*Solution, error) {
	r := alg.Radius()
	n := h.G.N()
	algo, final := gatherViewsTyped(n, r)
	if _, _, err := NewTypedEngine[gatherTypedState](h).RunStates(nil, algo, r+2); err != nil {
		return nil, err
	}
	sol := NewSolution(kind, n)
	for v, t := range final {
		if err := applyPOOut(sol, h, v, alg.EvalPO(t)); err != nil {
			return nil, err
		}
	}
	return sol, nil
}

// SimulatePORoundsTypedFaulty is SimulatePORoundsTyped under a fault
// schedule, with the semantics of SimulatePORoundsFaulty: views are
// whatever fragments survived the schedule and crashed nodes produce
// no output. maxRounds bounds the run (pass slack beyond Radius()+2
// when the schedule can keep nodes transiently down).
func SimulatePORoundsTypedFaulty(h *Host, alg PO, kind Kind, sched Schedule, maxRounds int) (*Solution, *FaultReport, error) {
	r := alg.Radius()
	n := h.G.N()
	algo, final := gatherViewsTyped(n, r)
	_, _, rep, err := NewTypedEngine[gatherTypedState](h).RunStatesFaulty(nil, algo, maxRounds, sched)
	if err != nil {
		return nil, nil, err
	}
	sol := NewSolution(kind, n)
	for v, t := range final {
		if rep.CrashedNode(v) {
			continue
		}
		if err := applyPOOut(sol, h, v, alg.EvalPO(t)); err != nil {
			return nil, nil, err
		}
	}
	return sol, rep, nil
}
