package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/ckpt"
)

// This file is the engine's durability layer: Snapshot captures a
// run's complete resumable state at a round barrier — the next round
// number, the state column, the pending message plane, the halt and
// crash bitsets, and the accumulated fault counters — and Resume
// replays it into a fresh (or reused) engine so the remainder of the
// run is byte-identical to the uninterrupted run.
//
// Why barriers, and why it is exact. Between rounds the engine's whole
// dynamic state is: the per-node states, which nodes have halted or
// crashed, and the messages written for the next round (arena
// (round)&1 stamped base+round+1, where base is the run's tick). All
// fault decisions (Fate/State/Reorder) are pure hashes of the
// schedule's seed and *absolute* coordinates (round, slot/node), so a
// resumed run that keeps absolute round numbering replays the exact
// fate sequence of the original; and the worklist is always the
// increasing-vertex-order filter of the halt/crash bitsets (round-0
// construction and every compaction preserve order), so it is
// reconstructed rather than stored. Stamps are re-based on the
// resuming engine's own tick; stale stamps from that engine's earlier
// runs are strictly below its tick, so a restored message can never
// be confused with a leftover one.
//
// Encoding. States and payloads are words: the state column is stored
// as 8 little-endian bytes per node, payloads as they are, so every
// word algorithm is checkpointable with no codec of its own.

// SnapshotKind is the ckpt container kind of an encoded engine
// Snapshot.
const SnapshotKind = "engine-run"

// snapshotVersion is bumped on any change to the Snapshot encoding.
const snapshotVersion = 1

// Snapshot is a run's resumable state at a round barrier. It is
// produced by a Checkpointer sink, serialised with Encode, and
// consumed (once) by WordEngine.Resume. All fields are deterministic
// functions of the run's state — no timestamps, no map order — so
// equal run states encode to equal bytes.
type Snapshot struct {
	// Faulty records whether the run executed under a fault schedule.
	Faulty bool
	// N and Slots pin the plane geometry the snapshot belongs to.
	N     int
	Slots int
	// Round is the next round to execute (the snapshot was taken at
	// the barrier after round Round-1).
	Round int
	// Halted and Crashed are the per-node bitsets at the barrier
	// (Crashed is nil on clean runs).
	Halted  []bool
	Crashed []bool
	// Accumulated fault counters at the barrier; they seed the resumed
	// run's FaultReport so the final report equals the uninterrupted
	// run's.
	Dropped    int64
	Duplicated int64
	Reordered  int64
	DownSteps  int64
	// Pending lists the plane slots holding messages for round Round,
	// in increasing slot order; Words carries their payloads.
	Pending []int32
	Words   []uint64
	// States is the state column: each node's word, 8 bytes
	// little-endian, in increasing node order.
	States []byte

	// consumed rejects resuming one in-memory snapshot twice: the
	// second resume would replay messages into an engine whose tick
	// has already moved past them.
	consumed bool
}

// Encode serialises the snapshot payload (wrap with ckpt.Encode /
// store with ckpt.Store under SnapshotKind for the on-disk container).
// The byte after the version is the plane byte and always says word
// lane: it keeps encodings, and the content-addressed checkpoint names
// derived from them, those of the format that also had a boxed-payload
// lane.
func (s *Snapshot) Encode() []byte {
	var w ckpt.Writer
	w.Uvarint(snapshotVersion)
	w.Bool(true)
	w.Bool(s.Faulty)
	w.Uvarint(uint64(s.N))
	w.Uvarint(uint64(s.Slots))
	w.Uvarint(uint64(s.Round))
	w.Bits(s.Halted)
	if s.Faulty {
		w.Bits(s.Crashed)
		w.I64(s.Dropped)
		w.I64(s.Duplicated)
		w.I64(s.Reordered)
		w.I64(s.DownSteps)
	}
	w.Uvarint(uint64(len(s.Pending)))
	prev := int32(0)
	for _, p := range s.Pending {
		w.Uvarint(uint64(p - prev)) // increasing order: deltas are non-negative
		prev = p
	}
	for _, wd := range s.Words {
		w.U64(wd)
	}
	w.Blob(s.States)
	return w.Bytes()
}

// DecodeSnapshot parses an encoded snapshot payload.
func DecodeSnapshot(payload []byte) (*Snapshot, error) {
	r := ckpt.NewReader(payload)
	if v := r.Uvarint(); v != snapshotVersion {
		if r.Err() == nil {
			return nil, fmt.Errorf("model: snapshot version %d (want %d)", v, snapshotVersion)
		}
		return nil, r.Err()
	}
	if word := r.Bool(); !word && r.Err() == nil {
		return nil, fmt.Errorf("model: snapshot is marked for the boxed message lane, which the engine no longer has")
	}
	s := &Snapshot{}
	s.Faulty = r.Bool()
	s.N = int(r.Uvarint())
	s.Slots = int(r.Uvarint())
	round := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	// A round past the int range would decode as a negative round,
	// which a resumed run would mistake for no round at all.
	if round > math.MaxInt {
		return nil, fmt.Errorf("model: snapshot round %d out of range", round)
	}
	s.Round = int(round)
	if s.N < 0 || s.N > 1<<31 || s.Slots < 0 || s.Slots > 1<<31 {
		return nil, fmt.Errorf("model: snapshot geometry out of range (n=%d slots=%d)", s.N, s.Slots)
	}
	s.Halted = r.Bits(s.N)
	if s.Faulty {
		s.Crashed = r.Bits(s.N)
		s.Dropped = r.I64()
		s.Duplicated = r.I64()
		s.Reordered = r.I64()
		s.DownSteps = r.I64()
	}
	np := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if np > uint64(s.Slots) {
		return nil, fmt.Errorf("model: snapshot pending count %d exceeds %d slots", np, s.Slots)
	}
	// Every pending slot takes at least one delta byte and eight more
	// for its word: a count the remaining bytes cannot hold is rejected
	// before anything is sized from it.
	if np > uint64(r.Len())/9 {
		return nil, fmt.Errorf("model: snapshot pending count %d exceeds what its %d remaining bytes can hold", np, r.Len())
	}
	s.Pending = make([]int32, np)
	prev := int64(0)
	for i := range s.Pending {
		d := r.Uvarint()
		if d >= uint64(s.Slots) || prev+int64(d) >= int64(s.Slots) {
			return nil, fmt.Errorf("model: snapshot pending slot %d+%d out of range", prev, d)
		}
		prev += int64(d)
		s.Pending[i] = int32(prev)
	}
	s.Words = make([]uint64, np)
	for i := range s.Words {
		s.Words[i] = r.U64()
	}
	s.States = r.Blob()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("model: snapshot has %d trailing bytes", r.Len())
	}
	return s, nil
}

// Checkpointer arms barrier checkpointing on an engine (see
// WordEngine.WithCheckpoints). At each round barrier where a
// checkpoint is due — every Every rounds, or once after RequestNow —
// the engine builds a Snapshot and hands it to Sink; a Sink error
// aborts the run.
// The idle cost (a barrier where no checkpoint is due) is one nil/int
// check, which is what keeps the steady-state round at 0 allocs/op.
type Checkpointer struct {
	// Every takes a checkpoint at every barrier whose next-round
	// number is a positive multiple of Every; 0 checkpoints only on
	// request.
	Every int
	// Sink receives each snapshot. The pointer is not retained by the
	// engine; the sink may serialise and discard it.
	Sink func(*Snapshot) error

	reqNow atomic.Bool
}

// RequestNow asks for one checkpoint at the next round barrier. It is
// safe to call from any goroutine (the watchdog calls it immediately
// before cancelling a job's context, so the barrier checkpoint runs
// before the loop-top cancellation poll).
func (ck *Checkpointer) RequestNow() { ck.reqNow.Store(true) }

// due reports whether a checkpoint should be taken at the barrier
// entering nextRound, consuming a pending RequestNow.
func (ck *Checkpointer) due(nextRound int) bool {
	if ck.reqNow.CompareAndSwap(true, false) {
		return true
	}
	return ck.Every > 0 && nextRound%ck.Every == 0
}

// Resume arms the engine to resume its next run from snap instead of
// starting at round 0: the run's Init pass executes as usual (so
// callers regenerate ids and pre-drawn randomness exactly as the
// original run did), then states, halt/crash bitsets, pending messages
// and fault counters are restored from the snapshot and the round loop
// starts at snap.Round. The snapshot must match the run it is applied
// to (plane geometry, clean/faulty, a round within the run's budget)
// and is consumed: resuming one snapshot twice is rejected. A rejected
// snapshot leaves the engine as it was. Returns e for chaining.
func (e *WordEngine) Resume(snap *Snapshot) *WordEngine {
	e.resume = snap
	return e
}

// WithCheckpoints arms barrier checkpointing for this engine's
// subsequent runs (clean and faulty alike — the hook lives in
// runCore). A nil ck disarms. Returns e for chaining.
func (e *WordEngine) WithCheckpoints(ck *Checkpointer) *WordEngine {
	e.ck = ck
	return e
}

// snapshotAt builds the Snapshot for the barrier entering nextRound
// and hands it to the checkpointer's sink. It runs on the master
// goroutine between rounds (after the barrier's wg.Wait and worklist
// compaction), so every field it reads is quiescent.
func (e *WordEngine) snapshotAt(nextRound int, base int64, sched Schedule, cs []*Chunk) error {
	snap := &Snapshot{
		Faulty: sched != nil,
		N:      e.n,
		Slots:  len(e.letters),
		Round:  nextRound,
		Halted: append([]bool(nil), e.halted...),
	}
	if sched != nil {
		snap.Crashed = append([]bool(nil), e.crashed...)
		f := sumFaults(e.repBase, cs)
		snap.Dropped, snap.Duplicated, snap.Reordered, snap.DownSteps = f.Dropped, f.Duplicated, f.Reordered, f.DownSteps
	}
	// Messages for round nextRound live in arena nextRound&1, stamped
	// base+nextRound+1 (the writing round's want was curWant+1).
	arena := nextRound & 1
	want := base + int64(nextRound) + 1
	for s, c := range e.cells[arena] {
		if c.stamp == want {
			snap.Pending = append(snap.Pending, int32(s))
			snap.Words = append(snap.Words, c.w)
		}
	}
	snap.States = make([]byte, 0, 8*e.n)
	for _, w := range e.col {
		snap.States = binary.LittleEndian.AppendUint64(snap.States, w)
	}
	if e.ck.Sink == nil {
		return nil
	}
	if err := e.ck.Sink(snap); err != nil {
		return fmt.Errorf("model: checkpoint at round %d: %w", nextRound, err)
	}
	return nil
}

// restore validates a snapshot against the run being started and,
// only when every check passes, restores it: the halt/crash bitsets,
// the state column, the pending payloads with their stamps re-based on
// this engine's tick, the resume round and the fault-counter bases.
func (e *WordEngine) restore(snap *Snapshot, faulty bool, maxRounds int) error {
	switch {
	case snap.consumed:
		return fmt.Errorf("model: resume: snapshot already resumed (double resume rejected)")
	case snap.Faulty && !faulty:
		return fmt.Errorf("model: resume: snapshot is from a faulty run; pass the same schedule")
	case !snap.Faulty && faulty:
		return fmt.Errorf("model: resume: snapshot is from a clean run; drop the schedule")
	case snap.N != e.n || snap.Slots != len(e.letters):
		return fmt.Errorf("model: resume: snapshot geometry (n=%d slots=%d) does not match host (n=%d slots=%d)",
			snap.N, snap.Slots, e.n, len(e.letters))
	case len(snap.Halted) != e.n || (snap.Faulty && len(snap.Crashed) != e.n):
		return fmt.Errorf("model: resume: snapshot bitset length mismatch")
	case len(snap.States) != 8*e.n:
		return fmt.Errorf("model: resume: state column is %d bytes (want %d)", len(snap.States), 8*e.n)
	case len(snap.Words) != len(snap.Pending):
		return fmt.Errorf("model: resume: %d payload words for %d pending slots", len(snap.Words), len(snap.Pending))
	case snap.Round < 0 || snap.Round > maxRounds:
		return fmt.Errorf("model: resume: snapshot round %d outside the run's %d rounds", snap.Round, maxRounds)
	}
	for _, s := range snap.Pending {
		if s < 0 || int(s) >= len(e.letters) {
			return fmt.Errorf("model: resume: pending slot %d out of range", s)
		}
	}
	snap.consumed = true
	copy(e.halted, snap.Halted)
	if snap.Faulty {
		if e.crashed == nil {
			e.crashed = make([]bool, e.n)
		}
		copy(e.crashed, snap.Crashed)
	}
	for v := range e.col {
		e.col[v] = binary.LittleEndian.Uint64(snap.States[8*v:])
	}
	cells, stamp := e.cells[snap.Round&1], e.tick+int64(snap.Round)+1
	for i, s := range snap.Pending {
		cells[s] = cell{w: snap.Words[i], stamp: stamp}
	}
	e.resumeFrom = snap.Round
	e.repBase = FaultReport{
		Dropped:    snap.Dropped,
		Duplicated: snap.Duplicated,
		Reordered:  snap.Reordered,
		DownSteps:  snap.DownSteps,
	}
	return nil
}
