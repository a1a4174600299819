package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/digraph"
	"repro/internal/model"
	"repro/internal/problems"
)

// directedPath returns the n-path 0→1→…→n−1: its radius-r views are
// asymmetric (distance-to-end matters), so the type catalogue is
// nontrivial and the enumeration long enough to checkpoint.
func directedPath(t testing.TB, n int) *model.Host {
	t.Helper()
	b := digraph.NewBuilder(n, 1)
	for i := 0; i < n-1; i++ {
		b.MustAddArc(i, i+1, 0)
	}
	d, err := b.Build().WithAlphabet(1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := model.NewHost(d)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// collectCertify runs a checkpointed certification and returns the
// bound plus the encoded checkpoint stream keyed by cursor.
func collectCertify(t testing.TB, h *model.Host, p problems.Problem, r, every int, resume *CertifySnapshot) (*LowerBound, map[int][]byte) {
	t.Helper()
	stream := map[int][]byte{}
	lb, err := CertifyPOLowerBoundOpts(h, p, r, 1<<20, CertifyOpts{
		Every:  every,
		Resume: resume,
		Checkpoint: func(s *CertifySnapshot) error {
			stream[s.Next] = s.Encode()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return lb, stream
}

func TestCertifyOptsMatchesPlain(t *testing.T) {
	h := directedPath(t, 16)
	p := problems.MinVertexCover{}
	plain, err := CertifyPOLowerBound(h, p, 2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Algorithms < 32 || plain.Types < 5 {
		t.Fatalf("path instance too small to exercise checkpoints: %+v", plain)
	}
	var calls, lastDone int
	lb, err := CertifyPOLowerBoundOpts(h, p, 2, 1<<20, CertifyOpts{
		Every:    5,
		Progress: func(done, total int) { calls++; lastDone = done },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, lb) {
		t.Fatalf("opts run differs from plain:\n  %+v\n  %+v", plain, lb)
	}
	if calls == 0 || lastDone != plain.Algorithms {
		t.Fatalf("progress calls=%d lastDone=%d (want final done=%d)", calls, lastDone, plain.Algorithms)
	}
}

// TestCertifyResumeEquality: resume from every checkpoint reproduces
// the uninterrupted bound, and the checkpoints a resumed run emits are
// byte-identical to the control run's from the resume point on.
func TestCertifyResumeEquality(t *testing.T) {
	h := directedPath(t, 16)
	p := problems.MinVertexCover{}
	const every = 5
	control, stream := collectCertify(t, h, p, 2, every, nil)
	if len(stream) == 0 {
		t.Fatal("control run produced no checkpoints")
	}
	for next, payload := range stream {
		snap, err := DecodeCertifySnapshot(payload)
		if err != nil {
			t.Fatalf("decode checkpoint at %d: %v", next, err)
		}
		resumed, rstream := collectCertify(t, h, p, 2, every, snap)
		if !reflect.DeepEqual(control, resumed) {
			t.Fatalf("resume from %d differs:\n  control %+v\n  resumed %+v", next, control, resumed)
		}
		for rn, rp := range rstream {
			if rn < next {
				t.Fatalf("resume from %d emitted earlier checkpoint %d", next, rn)
			}
			if !bytes.Equal(rp, stream[rn]) {
				t.Fatalf("resume from %d: checkpoint %d not byte-identical to control", next, rn)
			}
		}
	}
}

func TestCertifySnapshotRoundTrip(t *testing.T) {
	h := directedPath(t, 12)
	p := problems.MinVertexCover{}
	_, stream := collectCertify(t, h, p, 2, 7, nil)
	for next, payload := range stream {
		snap, err := DecodeCertifySnapshot(payload)
		if err != nil {
			t.Fatalf("decode at %d: %v", next, err)
		}
		if !bytes.Equal(snap.Encode(), payload) {
			t.Fatalf("re-encode at %d not byte-identical", next)
		}
		if snap.Next != next || snap.Problem != p.Name() || snap.Radius != 2 || snap.N != 12 {
			t.Fatalf("decoded header wrong: %+v", snap)
		}
	}
}

func TestCertifyCancel(t *testing.T) {
	h := directedPath(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CertifyPOLowerBoundOpts(h, problems.MinVertexCover{}, 2, 1<<20, CertifyOpts{Ctx: ctx}); err != context.Canceled {
		t.Fatalf("cancelled certify returned %v", err)
	}
}

func TestCertifyResumeMismatch(t *testing.T) {
	h := directedPath(t, 16)
	p := problems.MinVertexCover{}
	_, stream := collectCertify(t, h, p, 2, 5, nil)
	var snap *CertifySnapshot
	for _, payload := range stream {
		s, err := DecodeCertifySnapshot(payload)
		if err != nil {
			t.Fatal(err)
		}
		snap = s
		break
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"wrong problem", func() error {
			_, err := CertifyPOLowerBoundOpts(h, problems.MinDominatingSet{}, 2, 1<<20, CertifyOpts{Resume: snap})
			return err
		}},
		{"wrong radius", func() error {
			_, err := CertifyPOLowerBoundOpts(h, p, 1, 1<<20, CertifyOpts{Resume: snap})
			return err
		}},
		{"wrong host size", func() error {
			_, err := CertifyPOLowerBoundOpts(directedPath(t, 10), p, 2, 1<<20, CertifyOpts{Resume: snap})
			return err
		}},
		{"budget re-enforced", func() error {
			_, err := CertifyPOLowerBoundOpts(h, p, 2, 4, CertifyOpts{Resume: snap})
			return err
		}},
	}
	for _, tc := range cases {
		if tc.run() == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestCertifyDecodeCorrupt(t *testing.T) {
	h := directedPath(t, 12)
	_, stream := collectCertify(t, h, problems.MinVertexCover{}, 2, 7, nil)
	var payload []byte
	for _, p := range stream {
		payload = p
		break
	}
	if _, err := DecodeCertifySnapshot(payload[:len(payload)-3]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if _, err := DecodeCertifySnapshot(append(append([]byte{}, payload...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := DecodeCertifySnapshot([]byte{99}); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := DecodeCertifySnapshot(nil); err == nil {
		t.Error("empty snapshot accepted")
	}
	// Cursor past the end of the space must be rejected at resume.
	snap, err := DecodeCertifySnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	snap.Next = 1 << 30
	if _, err := CertifyPOLowerBoundOpts(h, problems.MinVertexCover{}, 2, 1<<20, CertifyOpts{Resume: snap}); err == nil {
		t.Error("out-of-range resume cursor accepted")
	}
}

// hugeClaimPayload is a 16-byte certify snapshot header claiming the
// largest host the decoder admits, 2^28 nodes, with no type ids after
// it.
func hugeClaimPayload() []byte {
	var w ckpt.Writer
	w.Uvarint(certifySnapshotVersion)
	w.String("min-eds")
	w.Uvarint(1)
	w.Uvarint(1 << 28)
	w.Varint(3)
	return w.Bytes()
}

// TestCertifyDecodeBoundedByPayload: a node or type count the payload
// has no bytes for is rejected before anything is sized from it, and a
// NaN best ratio, which no run produces, is rejected too.
func TestCertifyDecodeBoundedByPayload(t *testing.T) {
	payload := hugeClaimPayload()
	if len(payload) != 16 {
		t.Fatalf("claim payload is %d bytes, want 16", len(payload))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeCertifySnapshot(payload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("snapshot claiming 2^28 nodes in 16 bytes accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("rejecting a 16-byte payload allocated %d bytes", grew)
	}

	// Two nodes of type 0 claiming 2^20 types.
	var w ckpt.Writer
	w.Uvarint(certifySnapshotVersion)
	w.String("min-eds")
	w.Uvarint(1)
	w.Uvarint(2)
	w.Varint(3)
	w.Uvarint(0)
	w.Uvarint(0)
	w.Uvarint(1 << 20)
	if _, err := DecodeCertifySnapshot(w.Bytes()); err == nil {
		t.Fatal("snapshot claiming 2^20 types for 2 nodes accepted")
	}

	h := directedPath(t, 12)
	_, stream := collectCertify(t, h, problems.MinVertexCover{}, 2, 7, nil)
	for _, p := range stream {
		snap, err := DecodeCertifySnapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		snap.BestRatio = math.NaN()
		if _, err := DecodeCertifySnapshot(snap.Encode()); err == nil {
			t.Fatal("snapshot with a NaN best ratio accepted")
		}
		break
	}
}

// FuzzDecodeCertifySnapshot: DecodeCertifySnapshot never panics; it
// allocates within 32 B per payload byte plus 64 KiB, so a count the
// payload claims but cannot hold is rejected before anything is sized
// from it; and a payload it accepts re-encodes to bytes that decode to
// the same snapshot. The bound covers the worst case: a type id byte
// sizes 4 B of TypeOf, a letter-count byte a 24 B slice header, and a
// letter's two bytes 16 B.
func FuzzDecodeCertifySnapshot(f *testing.F) {
	f.Add(hugeClaimPayload())
	_, stream := collectCertify(f, directedPath(f, 12), problems.MinVertexCover{}, 2, 7, nil)
	if len(stream[7]) == 0 {
		f.Fatal("no certify snapshot at cursor 7 to seed with")
	}
	f.Add(stream[7])
	f.Fuzz(func(t *testing.T, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := DecodeCertifySnapshot(payload)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32*uint64(len(payload))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(payload), grew)
		}
		if err != nil {
			return
		}
		again, err := DecodeCertifySnapshot(s.Encode())
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", s, again)
		}
	})
}
