package model

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/view"
)

// This file is the typed columnar path of the round engine: states
// live in a contiguous []S column owned by the TypedEngine (no
// interface boxing, no per-node pointer chase) and message payloads
// travel in the Engine's fixed-width word lane (one {word, stamp} cell
// per slot). The gather below shows how a pointer-shaped payload
// rides the word lane anyway, as a column handle.

// WordMsg is one inbox entry of the typed message plane: the payload
// word plus the receiver-local incident-slot index of the arrival arc
// (the position of the arc in the receiver's letter-sorted slot row;
// the letter itself is info.Letters[Slot] under the typed Init
// contract). 16 bytes, pointer-free: compacting a typed inbox is a
// flat copy the garbage collector never scans.
type WordMsg struct {
	// W is the payload word.
	W uint64
	// Slot is the receiver-local incident-slot index (letter order).
	Slot int32
}

// TypedAlgo is the engine-native form of a round algorithm. Contract
// deltas from the specification form RoundAlgo, all in service of the
// columnar layout:
//
//   - Init receives the node index v (so columnar algorithms can index
//     pre-drawn per-node tables directly) and info.Letters in the
//     letter-sorted slot order of the message plane — local slot i is
//     named by info.Letters[i], and sends address slots, not letters.
//   - Step mutates the state in place through *S and returns only the
//     halt flag. The inbox aliases per-worker scratch and is valid
//     only during the call.
//   - Sends go through Outbox.SendWord (one slot, at most one message
//     per slot per round) or Outbox.BroadcastWord (whole slot row,
//     unchecked overwrite).
type TypedAlgo[S any] struct {
	// Init returns node v's initial state; called sequentially in
	// increasing node order, so pre-drawn randomness stays
	// deterministic.
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
// array. The plane may be shared: typed engines of different state
// types may alternate runs on one Engine (the monotone stamp
// discipline keeps them from ever reading each other's messages), but,
// exactly like the Engine itself, a TypedEngine must not execute two
// runs concurrently.
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
// sharing its message plane, worklists and stamps.
func TypedOn[S any](e *Engine) *TypedEngine[S] {
	return &TypedEngine[S]{e: e, col: make([]S, e.n)}
}

// Engine returns the underlying engine, e.g. to arm its context or to
// attach a typed engine of another state type to one warmed-up plane.
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

// RunStatesFaulty is RunStates under a fault schedule: the schedule's
// Fate is applied to every delivery at inbox-compaction time (so
// drops, duplicates and reorderings happen between the sender's
// SendWord or BroadcastWord and the receiver's Step), its State gates
// which nodes step each round (down nodes skip the round silently;
// crashed nodes leave the worklist for good), and the returned
// FaultReport counts what actually happened. Fates are pure hashes of
// (seed, round, slot), so the sharded engine degrades identically. A
// nil schedule is the clean profile: the run takes the engine's exact
// clean path and the report is all-zero. Crashed nodes keep the last
// state they reached; callers decide how to treat their outputs
// (FaultReport.CrashedNode).
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
		e.ckEncStates = enc
	}
	if snap := e.resume; snap != nil {
		e.resume = nil
		if err := te.restoreTyped(snap, algo, sched != nil); err != nil {
			e.failedResume(snap)
			return nil, 0, nil, err
		}
	}
	fp := planFaults(sched)
	step := te.stepTyped(algo)
	if sched != nil {
		step = te.stepTypedFaulty(algo, fp)
	}
	rounds, rep, err := e.runCore(step, fp, maxRounds)
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
	if err := e.restoreCommon(snap, faulty); err != nil {
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
		e.cells[arena][s].w = snap.Words[i]
	}
	return nil
}

// stepTyped is the clean typed step over one chunk of the worklist:
// compact each node's live word slots into the worker's scratch
// (tagged with their local slot indices), then Step against the state
// column in place.
func (te *TypedEngine[S]) stepTyped(algo TypedAlgo[S]) func([]int32, *Outbox) {
	e, step := te.e, algo.Step
	return func(chunk []int32, ob *Outbox) {
		off, col, halted, wd := e.off, te.col, e.halted, ob.dense
		cur, want := e.cells[ob.nxt^1], ob.want-1
		round, halts := ob.round, int64(0)
		for _, v := range chunk {
			row := cur[off[v]:off[v+1]]
			k := 0
			for i := range row {
				if row[i].stamp == want {
					wd[k] = WordMsg{W: row[i].w, Slot: int32(i)}
					k++
				}
			}
			ob.v = v
			done := step(&col[v], round, wd[:k], ob)
			halted[v] = done
			if done {
				halts++
			}
		}
		ob.halts += halts
	}
}

// stepTypedFaulty is stepTyped with the fault schedule interposed:
// liveness gating, per-(round, slot) fates (compacted into the
// worker's double-width scratch so duplicates fit) and adversarial
// inbox permutation, drawn from exactly the hashes the sharded engine
// draws. The plan's loop-invariant branches skip the queries whose
// answers the profile fixes. Halts are counted as in stepTyped, for
// the barrier's clean compaction rule.
//
// It is kept out of line: inlined into runStates, its closure would be
// compiled as a copy that calls uniformDrop instead of inlining it.
//
//go:noinline
func (te *TypedEngine[S]) stepTypedFaulty(algo TypedAlgo[S], fp faultPlan) func([]int32, *Outbox) {
	e, step, sched := te.e, algo.Step, fp.sched
	return func(chunk []int32, ob *Outbox) {
		off, col, halted, fd := e.off, te.col, e.halted, ob.dense
		cur, want := e.cells[ob.nxt^1], ob.want-1
		round, halts := ob.round, int64(0)
		for _, v := range chunk {
			if fp.nodeFaults {
				switch sched.State(round, v) {
				case StateDown:
					ob.downSteps++
					continue
				case StateCrashed:
					continue
				}
			}
			lo := off[v]
			row := cur[lo:off[v+1]]
			k := 0
			for i := range row {
				if row[i].stamp != want {
					continue
				}
				m := WordMsg{W: row[i].w, Slot: int32(i)}
				if fp.uniform {
					if uniformDrop(fp.fateSeed, fp.dropThr, round, lo+int32(i)) {
						ob.dropped++
						continue
					}
				} else {
					switch sched.Fate(round, lo+int32(i)) {
					case Drop:
						ob.dropped++
						continue
					case Duplicate:
						ob.duped++
						fd[k] = m
						k++
					}
				}
				fd[k] = m
				k++
			}
			inbox := fd[:k]
			if fp.reorder {
				if seed := sched.Reorder(round, v); seed != 0 && len(inbox) > 1 {
					shuffleWordMsgs(inbox, seed)
					ob.reordered++
				}
			}
			ob.v = v
			done := step(&col[v], round, inbox, ob)
			halted[v] = done
			if done {
				halts++
			}
		}
		ob.halts += halts
	}
}

// RunRoundsTyped executes a typed round algorithm on the host. Pass
// ids for the ID model, nil for anonymous execution. It returns the
// per-node outputs and the number of rounds executed, failing if some
// node has not halted after maxRounds.
func RunRoundsTyped[S any](h *Host, ids []int, algo TypedAlgo[S], maxRounds int) ([]Output, int, error) {
	return NewTypedEngine[S](h).Run(ids, algo, maxRounds)
}

// RunRoundsTypedFaulty is RunRoundsTyped under a fault schedule (see
// Schedule and ParseProfile): messages are dropped, duplicated and
// reordered and nodes crashed or churned exactly as the schedule
// decides, deterministically in (host, algo, seed, profile). A nil
// schedule runs clean; crashed nodes' outputs are extracted from the
// last state they reached, and FaultReport.CrashedNode says which
// those are.
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
	}
	return algo, final
}

// RunGather gathers every node's radius-r view tree by message passing
// on the word lane (GatherViews' rounds, with tree payloads carried as
// column handles) and returns the trees, the number of rounds run and,
// when sched is non-nil, the fault report. Under a schedule each tree
// is whatever fragments survived it; crashed nodes keep the tree they
// had assembled when they crashed. maxRounds bounds the run: r+2
// suffices on a clean run, and a schedule that keeps nodes transiently
// down needs slack beyond it, since a down node halts only at its
// first up round at or after r. The run polls ctx at every round
// barrier.
func RunGather(ctx context.Context, h *Host, r, maxRounds int, sched Schedule) ([]*view.Tree, int, *FaultReport, error) {
	algo, final := gatherViewsTyped(h.G.N(), r)
	te := TypedOn[gatherTypedState](NewEngine(h).WithContext(ctx))
	_, rounds, rep, err := te.runStates(nil, algo, maxRounds, sched)
	if err != nil {
		return nil, 0, nil, err
	}
	return final, rounds, rep, nil
}
