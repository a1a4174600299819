package model

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/graph"
	"repro/internal/par"
)

// snapFloodState is a checkpointable flood state that is not a word:
// id is static context reconstructed by Init on resume; best and ticks
// are the dynamic fields the codec carries.
type snapFloodState struct {
	id    int
	best  int
	ticks int
}

// snapFloodAlgo is floodMaxAlgo on the word lane with a state codec:
// states carry two varints.
func snapFloodAlgo() TypedAlgo[snapFloodState] {
	return TypedAlgo[snapFloodState]{
		Init: func(v int, info NodeInfo) snapFloodState {
			return snapFloodState{id: info.ID, best: info.ID, ticks: 1 + info.ID%4}
		},
		Step: chunkStep(func(s *snapFloodState, round int, inbox []wordMsg, out sends) bool {
			for _, m := range inbox {
				if v := int(m.W); v > s.best {
					s.best = v
				}
			}
			if s.ticks == 0 {
				return true
			}
			s.ticks--
			out.Broadcast(uint64(s.best))
			return false
		}),
		Out: func(s *snapFloodState) Output { return Output{Member: s.best > s.id} },
		EncodeState: func(dst []byte, s *snapFloodState) []byte {
			dst = binary.AppendVarint(dst, int64(s.best))
			return binary.AppendVarint(dst, int64(s.ticks))
		},
		DecodeState: func(src []byte, s *snapFloodState) ([]byte, error) {
			best, n := binary.Varint(src)
			if n <= 0 {
				return nil, fmt.Errorf("bad best")
			}
			ticks, m := binary.Varint(src[n:])
			if m <= 0 {
				return nil, fmt.Errorf("bad ticks")
			}
			s.best, s.ticks = int(best), int(ticks)
			return src[n+m:], nil
		},
	}
}

// snapWordAlgo is the packed flood twin: state packs best<<8 | ticks
// in one word (so the default uint64 codec applies), messages carry
// the packed state.
func snapWordAlgo() WordAlgo {
	return WordAlgo{
		Init: func(v int, info NodeInfo) uint64 {
			return uint64(info.ID)<<8 | uint64(1+info.ID%4)
		},
		Step: chunkStep(func(state *uint64, round int, inbox []wordMsg, out sends) bool {
			best, ticks := *state>>8, *state&0xff
			for _, m := range inbox {
				if b := m.W >> 8; b > best {
					best = b
				}
			}
			*state = best<<8 | ticks
			if ticks == 0 {
				return true
			}
			*state = best<<8 | (ticks - 1)
			out.Broadcast(*state)
			return false
		}),
		Out: func(state *uint64) Output { return Output{Member: *state>>8 > 0} },
	}
}

// snapHosts is the snapshot differential host set (a subset of
// engineHosts: one regular, one irregular).
func snapHosts() map[string]*Host {
	rng := rand.New(rand.NewSource(7))
	return map[string]*Host{
		"torus6x6":      HostFromGraph(graph.Torus(6, 6)),
		"randomregular": HostFromGraph(graph.RandomRegular(20, 3, rng)),
	}
}

// snapSink collects every snapshot's encoded payload by round.
func snapSink(dst map[int][]byte) *Checkpointer {
	return &Checkpointer{Every: 1, Sink: func(s *Snapshot) error {
		dst[s.Round] = s.Encode()
		return nil
	}}
}

// boxedPayload encodes a snapshot marked for the boxed message lane
// (plane byte 0), with its self-delimiting payload blob: the format
// the engine no longer resumes.
func boxedPayload() []byte {
	var w ckpt.Writer
	w.Uvarint(snapshotVersion)
	w.Bool(false) // plane: boxed lane
	w.Bool(false) // clean
	w.Uvarint(3)  // n
	w.Uvarint(6)  // slots
	w.Uvarint(2)  // round
	w.Bits([]bool{false, false, true})
	w.Uvarint(2) // pending slots 2 and 5, as deltas
	w.Uvarint(2)
	w.Uvarint(3)
	w.Blob([]byte{9, 9})
	w.Blob([]byte{1})
	return w.Bytes()
}

// TestSnapshotResumeCodec pins resume byte-identical for a state that
// needs the algorithm's codec: for every host, clean and under two
// fault profiles, resuming from each checkpoint round reproduces the
// uninterrupted run's final states, round count, fault report AND
// every later checkpoint's encoded bytes (content addressing makes
// that last check equivalent to whole-state equality at every
// subsequent barrier).
func TestSnapshotResumeCodec(t *testing.T) {
	defer par.Set(par.Set(4))
	for _, prof := range []string{"", "lossy:p=0.2", "crash:f=5,by=2"} {
		for name, h := range snapHosts() {
			n := h.G.N()
			ids := rand.New(rand.NewSource(int64(n))).Perm(4 * n)[:n]
			var sched Schedule
			if prof != "" {
				sched = MustParseProfile(prof).New(h, 99)
			}
			control := map[int][]byte{}
			e1 := NewTypedEngine[snapFloodState](h).WithCheckpoints(snapSink(control))
			col1, rounds1, rep1, err := e1.RunStatesFaulty(ids, snapFloodAlgo(), 64, sched)
			if err != nil {
				t.Fatalf("%s/%s: control: %v", name, prof, err)
			}
			final1 := append([]snapFloodState(nil), col1...)
			if len(control) == 0 {
				t.Fatalf("%s/%s: control run took no checkpoints", name, prof)
			}
			for k, payload := range control {
				snap, err := DecodeSnapshot(payload)
				if err != nil {
					t.Fatalf("%s/%s: decode round %d: %v", name, prof, k, err)
				}
				resumed := map[int][]byte{}
				e2 := NewTypedEngine[snapFloodState](h).WithCheckpoints(snapSink(resumed)).Resume(snap)
				col2, rounds2, rep2, err := e2.RunStatesFaulty(ids, snapFloodAlgo(), 64, sched)
				if err != nil {
					t.Fatalf("%s/%s: resume from %d: %v", name, prof, k, err)
				}
				if rounds2 != rounds1 {
					t.Errorf("%s/%s: resume from %d: %d rounds (control %d)", name, prof, k, rounds2, rounds1)
				}
				if !reflect.DeepEqual(col2, final1) {
					t.Errorf("%s/%s: resume from %d: final states differ", name, prof, k)
				}
				if !reflect.DeepEqual(rep1, rep2) {
					t.Errorf("%s/%s: resume from %d: fault report differs:\n  control %+v\n  resumed %+v", name, prof, k, rep1, rep2)
				}
				for j, want := range control {
					if j <= k {
						continue
					}
					if got, ok := resumed[j]; !ok || string(got) != string(want) {
						t.Errorf("%s/%s: resume from %d: checkpoint at %d not byte-identical to control (present=%v)", name, prof, k, j, ok)
					}
				}
			}
		}
	}
}

// TestSnapshotResumeTyped is the packed-word twin, exercising the
// default uint64 state codec.
func TestSnapshotResumeTyped(t *testing.T) {
	defer par.Set(par.Set(4))
	for _, prof := range []string{"", "lossy:p=0.2", "crash:f=5,by=2"} {
		for name, h := range snapHosts() {
			n := h.G.N()
			ids := rand.New(rand.NewSource(int64(n))).Perm(4 * n)[:n]
			var sched Schedule
			if prof != "" {
				sched = MustParseProfile(prof).New(h, 99)
			}
			control := map[int][]byte{}
			e1 := NewWordEngine(h).WithCheckpoints(snapSink(control))
			col1, rounds1, rep1, err := e1.RunStatesFaulty(ids, snapWordAlgo(), 64, sched)
			if err != nil {
				t.Fatalf("%s/%s: control: %v", name, prof, err)
			}
			final1 := append([]uint64(nil), col1...)
			if len(control) == 0 {
				t.Fatalf("%s/%s: control run took no checkpoints", name, prof)
			}
			for k, payload := range control {
				snap, err := DecodeSnapshot(payload)
				if err != nil {
					t.Fatalf("%s/%s: decode round %d: %v", name, prof, k, err)
				}
				resumed := map[int][]byte{}
				e2 := NewWordEngine(h).WithCheckpoints(snapSink(resumed)).Resume(snap)
				col2, rounds2, rep2, err := e2.RunStatesFaulty(ids, snapWordAlgo(), 64, sched)
				if err != nil {
					t.Fatalf("%s/%s: resume from %d: %v", name, prof, k, err)
				}
				if rounds2 != rounds1 || !reflect.DeepEqual(col2, final1) {
					t.Errorf("%s/%s: resume from %d: rounds/column differ", name, prof, k)
				}
				if !reflect.DeepEqual(rep1, rep2) {
					t.Errorf("%s/%s: resume from %d: fault report differs", name, prof, k)
				}
				for j, want := range control {
					if j <= k {
						continue
					}
					if got, ok := resumed[j]; !ok || string(got) != string(want) {
						t.Errorf("%s/%s: resume from %d: checkpoint at %d not byte-identical", name, prof, k, j)
					}
				}
			}
		}
	}
}

// TestSnapshotRequestNowCancel is the watchdog pattern: RequestNow
// then cancel captures a checkpoint at the very barrier the
// cancellation lands on, and resuming it completes with the control
// run's exact result.
func TestSnapshotRequestNowCancel(t *testing.T) {
	h := HostFromGraph(graph.Torus(6, 6))
	n := h.G.N()
	ids := rand.New(rand.NewSource(5)).Perm(4 * n)[:n]

	e1 := NewWordEngine(h)
	col1, rounds1, err := e1.RunStates(ids, snapWordAlgo(), 64)
	if err != nil {
		t.Fatal(err)
	}
	final1 := append([]uint64(nil), col1...)

	// Interrupted run: on the round-2 barrier the sink fires (due to
	// RequestNow pre-armed via Every=0 + explicit request below) and
	// the context is cancelled before the next round.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *Snapshot
	ck := &Checkpointer{Sink: func(s *Snapshot) error {
		last = s
		cancel()
		return nil
	}}
	e2 := NewWordEngine(h)
	e2.Engine().WithContext(ctx)
	e2.WithCheckpoints(ck)
	ck.RequestNow()
	if _, _, err := e2.RunStates(ids, snapWordAlgo(), 64); err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if last == nil {
		t.Fatal("no checkpoint captured before cancellation")
	}

	// Round-trip through bytes, resume on a fresh engine.
	snap, err := DecodeSnapshot(last.Encode())
	if err != nil {
		t.Fatal(err)
	}
	e3 := NewWordEngine(h).Resume(snap)
	col3, rounds3, err := e3.RunStates(ids, snapWordAlgo(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if rounds3 != rounds1 || !reflect.DeepEqual(col3, final1) {
		t.Fatalf("resume after cancel: rounds=%d (control %d), column equal=%v", rounds3, rounds1, reflect.DeepEqual(col3, final1))
	}
}

// TestSnapshotDoubleResumeRejected: one in-memory snapshot resumes
// exactly once; the second resume fails without running.
func TestSnapshotDoubleResumeRejected(t *testing.T) {
	h := HostFromGraph(graph.Torus(6, 6))
	n := h.G.N()
	ids := rand.New(rand.NewSource(5)).Perm(4 * n)[:n]
	var snaps []*Snapshot
	ck := &Checkpointer{Every: 2, Sink: func(s *Snapshot) error { snaps = append(snaps, s); return nil }}
	if _, _, err := NewWordEngine(h).WithCheckpoints(ck).RunStates(ids, snapWordAlgo(), 64); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no checkpoints")
	}
	snap := snaps[0]
	if _, _, err := NewWordEngine(h).Resume(snap).RunStates(ids, snapWordAlgo(), 64); err != nil {
		t.Fatalf("first resume: %v", err)
	}
	if _, _, err := NewWordEngine(h).Resume(snap).RunStates(ids, snapWordAlgo(), 64); err == nil {
		t.Fatal("second resume of one snapshot accepted")
	}
}

// TestSnapshotMismatchRejected: a snapshot only resumes the run shape
// it was taken from — plane kind, schedule presence and host geometry
// are all validated.
func TestSnapshotMismatchRejected(t *testing.T) {
	h := HostFromGraph(graph.Torus(6, 6))
	n := h.G.N()
	ids := rand.New(rand.NewSource(5)).Perm(4 * n)[:n]
	grab := func() *Snapshot {
		var snaps []*Snapshot
		ck := &Checkpointer{Every: 2, Sink: func(s *Snapshot) error { snaps = append(snaps, s); return nil }}
		if _, _, err := NewWordEngine(h).WithCheckpoints(ck).RunStates(ids, snapWordAlgo(), 64); err != nil {
			t.Fatal(err)
		}
		return snaps[0]
	}

	// A snapshot of the boxed message lane.
	if _, err := DecodeSnapshot(boxedPayload()); err == nil || !strings.Contains(err.Error(), "boxed message lane") {
		t.Errorf("boxed-lane snapshot: err %v", err)
	}
	// Clean snapshot into a faulty run.
	sched := MustParseProfile("lossy:p=0.2").New(h, 99)
	if _, _, _, err := NewWordEngine(h).Resume(grab()).RunStatesFaulty(ids, snapWordAlgo(), 64, sched); err == nil {
		t.Error("clean snapshot accepted by faulty run")
	}
	// Wrong host geometry.
	h2 := HostFromGraph(graph.Torus(8, 8))
	n2 := h2.G.N()
	ids2 := rand.New(rand.NewSource(5)).Perm(4 * n2)[:n2]
	if _, _, err := NewWordEngine(h2).Resume(grab()).RunStates(ids2, snapWordAlgo(), 64); err == nil {
		t.Error("snapshot accepted by mismatched host")
	}
	// A failed resume must not poison the engine for an ordinary run.
	e := NewWordEngine(h2)
	if _, _, err := e.Resume(grab()).RunStates(ids2, snapWordAlgo(), 64); err == nil {
		t.Fatal("mismatched resume accepted")
	}
	if _, _, err := e.RunStates(ids2, snapWordAlgo(), 64); err != nil {
		t.Errorf("fresh run after failed resume: %v", err)
	}
}

// TestSnapshotDecodeCorrupt: truncations and bit flips never decode.
func TestSnapshotDecodeCorrupt(t *testing.T) {
	h := HostFromGraph(graph.Torus(6, 6))
	n := h.G.N()
	ids := rand.New(rand.NewSource(5)).Perm(4 * n)[:n]
	var payload []byte
	ck := &Checkpointer{Every: 2, Sink: func(s *Snapshot) error { payload = s.Encode(); return nil }}
	if _, _, err := NewWordEngine(h).WithCheckpoints(ck).RunStates(ids, snapWordAlgo(), 64); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(payload); err != nil {
		t.Fatalf("intact payload rejected: %v", err)
	}
	for _, cut := range []int{0, 1, len(payload) / 2, len(payload) - 1} {
		if _, err := DecodeSnapshot(payload[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded", cut)
		}
	}
	bad := append([]byte(nil), payload...)
	bad[0] = 0xff // version byte
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Error("wrong version decoded")
	}
}

// FuzzDecodeSnapshot: DecodeSnapshot never panics; a payload it
// accepts re-encodes to bytes that decode to the same snapshot; and it
// allocates within a small multiple of the payload's size, so a count
// the payload claims but cannot hold is rejected before anything is
// sized from it. The bound is 32 B per payload byte plus 64 KiB: the
// halt and crash bitsets take 8 B per byte each, the pending slots at
// most 4 B per delta byte and their words 8 B per 9 bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	typed := &Snapshot{
		Faulty: true, N: 5, Slots: 12, Round: 9,
		Halted:  []bool{true, false, true, false, true},
		Crashed: []bool{false, true, false, false, false},
		Dropped: 3, Duplicated: 1, Reordered: 4, DownSteps: 1,
		Pending: []int32{0, 3, 11},
		Words:   []uint64{7, 8, 9},
		States:  []byte{1, 2, 3, 4},
	}
	f.Add(typed.Encode())
	f.Add(boxedPayload())
	// An 11-byte typed payload claiming 2^20 pending slots of 2^20.
	var claim ckpt.Writer
	claim.Uvarint(snapshotVersion)
	claim.Bool(true)
	claim.Bool(false)
	claim.Uvarint(0)
	claim.Uvarint(1 << 20)
	claim.Uvarint(0)
	claim.Uvarint(1 << 20)
	f.Add(claim.Bytes())
	f.Fuzz(func(t *testing.T, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := DecodeSnapshot(payload)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32*uint64(len(payload))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(payload), grew)
		}
		if err != nil {
			return
		}
		again, err := DecodeSnapshot(s.Encode())
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", s, again)
		}
	})
}

// TestSnapshotCheckpointIdleAllocs: an armed checkpointer whose
// cadence never fires must keep the steady-state round at 0
// allocs/op (the acceptance criterion behind the benchdelta gate).
func TestSnapshotCheckpointIdleAllocs(t *testing.T) {
	defer par.Set(par.Set(1))
	te := NewWordEngine(HostFromGraph(graph.Cycle(512)))
	te.WithCheckpoints(&Checkpointer{Every: 1 << 30})
	runFor := func(rounds int) func() {
		return func() {
			if _, _, err := te.RunStates(nil, typedPulseAlgo(rounds), rounds+2); err != nil {
				t.Fatal(err)
			}
		}
	}
	runFor(8)() // warm-up
	short := testing.AllocsPerRun(3, runFor(8))
	long := testing.AllocsPerRun(3, runFor(264))
	if perRound := (long - short) / 256; perRound > 0.01 {
		t.Errorf("idle-checkpoint round allocates: %.3f allocs/round (short %.0f, long %.0f)", perRound, short, long)
	}
}

// TestSnapshotEncodeDecodeRoundTrip covers the payload codec field by
// field, including the faulty counter block, and the plane byte every
// encoding carries.
func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	s := &Snapshot{
		Faulty:  true,
		N:       5,
		Slots:   12,
		Round:   9,
		Halted:  []bool{true, false, true, false, true},
		Crashed: []bool{false, true, false, false, false},
		Dropped: 3, Duplicated: 1, Reordered: 4, DownSteps: 1,
		Pending: []int32{0, 3, 11},
		Words:   []uint64{7, 8, 9},
		States:  []byte{1, 2, 3, 4},
	}
	payload := s.Encode()
	if payload[1] != 1 {
		t.Errorf("plane byte %d, want 1 (word lane)", payload[1])
	}
	got, err := DecodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", s, got)
	}
	if _, err := DecodeSnapshot(boxedPayload()); err == nil {
		t.Fatal("boxed-lane payload decoded")
	}
}
