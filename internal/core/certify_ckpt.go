package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/model"
	"repro/internal/problems"
	"repro/internal/view"
)

// Certification checkpoints. A certification run has two phases: an
// expensive parallel view-build that interns the instance's view types
// (the catalogue), and a long sequential enumeration of type-to-output
// assignments. CertifySnapshot captures the catalogue plus the
// enumeration cursor, so a resumed certification skips the view builds
// entirely and continues from the assignment it stopped at. The
// encoding is deterministic (type ids are assigned in vertex order, no
// maps or timestamps), so checkpoints taken after a resume are
// byte-identical to the uninterrupted run's — the property the durable
// job store relies on for idempotent crash recovery.

// CertifySnapshotKind tags certification checkpoints in the ckpt
// container format.
const CertifySnapshotKind = "certify"

const certifySnapshotVersion = 1

// CertifyOpts arms CertifyPOLowerBoundOpts with cancellation, progress
// reporting, periodic checkpoints, and resume.
type CertifyOpts struct {
	// Ctx, when non-nil, aborts the enumeration cooperatively; the
	// call returns ctx.Err().
	Ctx context.Context
	// Every > 0 checkpoints each time the cursor reaches a multiple of
	// Every. The cadence is anchored to absolute assignment indices,
	// so a resumed run emits the same checkpoint stream as an
	// uninterrupted one.
	Every int
	// Progress, when non-nil, is called after each checkpoint cadence
	// boundary (and once at completion) with the number of assignments
	// examined and the total.
	Progress func(done, total int)
	// Checkpoint, when non-nil, receives each periodic snapshot. An
	// error aborts the run.
	Checkpoint func(*CertifySnapshot) error
	// Resume, when non-nil, continues an interrupted certification:
	// the view-build phase is skipped and the enumeration starts at
	// the snapshot's cursor. The snapshot must match the (host,
	// problem, radius) of the call.
	Resume *CertifySnapshot
}

// CertifySnapshot is a resumable certification state: the interned
// type catalogue plus the enumeration cursor and running aggregates.
type CertifySnapshot struct {
	// Problem names the certified problem (problems.Problem.Name).
	Problem string
	// Radius is the locality radius of the certified class.
	Radius int
	// N is the host size the catalogue was built for.
	N int
	// Optimum is the instance optimum computed before enumeration.
	Optimum int
	// TypeOf maps each vertex to its view-type id.
	TypeOf []int32
	// RootLetters holds each type's root port alphabet, in type-id
	// order.
	RootLetters [][]view.Letter
	// Next is the first assignment index not yet examined.
	Next int
	// FeasibleCount and BestRatio are the aggregates over assignments
	// [0, Next).
	FeasibleCount int
	BestRatio     float64
}

// Encode serialises the snapshot deterministically.
func (s *CertifySnapshot) Encode() []byte {
	var w ckpt.Writer
	w.Uvarint(certifySnapshotVersion)
	w.String(s.Problem)
	w.Uvarint(uint64(s.Radius))
	w.Uvarint(uint64(s.N))
	w.Varint(int64(s.Optimum))
	for _, t := range s.TypeOf {
		w.Uvarint(uint64(t))
	}
	w.Uvarint(uint64(len(s.RootLetters)))
	for _, ls := range s.RootLetters {
		w.Uvarint(uint64(len(ls)))
		for _, l := range ls {
			w.Varint(int64(l.Label))
			w.Bool(l.In)
		}
	}
	w.Uvarint(uint64(s.Next))
	w.Uvarint(uint64(s.FeasibleCount))
	w.U64(math.Float64bits(s.BestRatio))
	return w.Bytes()
}

// DecodeCertifySnapshot parses an Encode payload, validating structure
// and ranges. Every count is checked against the bytes left before
// anything is sized from it, so a short payload cannot make the
// decoder allocate more than a small multiple of its own length.
func DecodeCertifySnapshot(payload []byte) (*CertifySnapshot, error) {
	r := ckpt.NewReader(payload)
	if v := r.Uvarint(); r.Err() == nil && v != certifySnapshotVersion {
		return nil, fmt.Errorf("core: certify snapshot version %d (want %d)", v, certifySnapshotVersion)
	}
	s := &CertifySnapshot{
		Problem: r.String(),
		Radius:  int(r.Uvarint()),
		N:       int(r.Uvarint()),
		Optimum: int(r.Varint()),
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	const maxN = 1 << 28
	if s.N <= 0 || s.N > maxN || s.Radius < 0 || s.Radius > maxN {
		return nil, fmt.Errorf("core: certify snapshot geometry out of range (n=%d r=%d)", s.N, s.Radius)
	}
	// Each type id takes at least one byte.
	if s.N > r.Len() {
		return nil, fmt.Errorf("core: certify snapshot claims %d nodes in %d bytes", s.N, r.Len())
	}
	s.TypeOf = make([]int32, s.N)
	for i := range s.TypeOf {
		s.TypeOf[i] = int32(r.Uvarint())
	}
	types := int(r.Uvarint())
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Each type's letter count takes at least one byte.
	if types <= 0 || types > s.N || types > r.Len() {
		return nil, fmt.Errorf("core: certify snapshot has %d types for %d nodes in %d bytes", types, s.N, r.Len())
	}
	for _, t := range s.TypeOf {
		if t < 0 || int(t) >= types {
			return nil, fmt.Errorf("core: certify snapshot type id %d out of range [0,%d)", t, types)
		}
	}
	s.RootLetters = make([][]view.Letter, types)
	for i := range s.RootLetters {
		k := int(r.Uvarint())
		if r.Err() != nil {
			return nil, r.Err()
		}
		if k < 0 || k > 64 {
			return nil, fmt.Errorf("core: certify snapshot type %d has %d root letters", i, k)
		}
		ls := make([]view.Letter, k)
		for j := range ls {
			ls[j] = view.Letter{Label: int(r.Varint()), In: r.Bool()}
		}
		s.RootLetters[i] = ls
	}
	s.Next = int(r.Uvarint())
	s.FeasibleCount = int(r.Uvarint())
	s.BestRatio = math.Float64frombits(r.U64())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("core: certify snapshot has %d trailing bytes", r.Len())
	}
	if s.FeasibleCount < 0 || s.Next < 0 {
		return nil, fmt.Errorf("core: certify snapshot cursor out of range")
	}
	// A ratio is >= 0 or +Inf; a NaN would never compare below a later
	// ratio and so would stick as a resumed run's bound.
	if !(s.BestRatio >= 0) {
		return nil, fmt.Errorf("core: certify snapshot best ratio %v out of range", s.BestRatio)
	}
	return s, nil
}

// snapshot captures the enumeration state with cursor next.
func (cat *certifyCatalogue) snapshot(p problems.Problem, r, next int, lb *LowerBound) *CertifySnapshot {
	return &CertifySnapshot{
		Problem:       p.Name(),
		Radius:        r,
		N:             len(cat.typeOf),
		Optimum:       cat.optimum,
		TypeOf:        cat.typeOf,
		RootLetters:   cat.rootLetters,
		Next:          next,
		FeasibleCount: lb.FeasibleCount,
		BestRatio:     lb.BestRatio,
	}
}

// catalogueFromSnapshot validates a resume snapshot against the call
// and reconstructs the catalogue without rebuilding views. The choice
// structure is recomputed from the stored root letters, re-enforcing
// the budget (so a snapshot cannot smuggle a larger space past a
// smaller cap).
func catalogueFromSnapshot(s *CertifySnapshot, h *model.Host, p problems.Problem, r, maxAlgorithms int) (*certifyCatalogue, error) {
	if s.Problem != p.Name() {
		return nil, fmt.Errorf("core: resume snapshot is for problem %q, not %q", s.Problem, p.Name())
	}
	if s.Radius != r {
		return nil, fmt.Errorf("core: resume snapshot has radius %d, not %d", s.Radius, r)
	}
	if s.N != h.G.N() {
		return nil, fmt.Errorf("core: resume snapshot has %d nodes, host has %d", s.N, h.G.N())
	}
	cat := &certifyCatalogue{typeOf: s.TypeOf, rootLetters: s.RootLetters, optimum: s.Optimum}
	if err := cat.sizeChoices(p, maxAlgorithms); err != nil {
		return nil, err
	}
	if s.Next > cat.total {
		return nil, fmt.Errorf("core: resume cursor %d exceeds space %d", s.Next, cat.total)
	}
	return cat, nil
}

// CertifyPOLowerBoundOpts is CertifyPOLowerBound with cancellation,
// progress, periodic checkpointing and resume. With zero opts it is
// exactly CertifyPOLowerBound.
func CertifyPOLowerBoundOpts(h *model.Host, p problems.Problem, r, maxAlgorithms int, opts CertifyOpts) (*LowerBound, error) {
	var cat *certifyCatalogue
	var err error
	start := 0
	lb := &LowerBound{Radius: r}
	if opts.Resume != nil {
		cat, err = catalogueFromSnapshot(opts.Resume, h, p, r, maxAlgorithms)
		if err != nil {
			return nil, err
		}
		start = opts.Resume.Next
		lb.FeasibleCount = opts.Resume.FeasibleCount
		lb.BestRatio = opts.Resume.BestRatio
	} else {
		cat, err = buildCatalogue(h, p, r, maxAlgorithms)
		if err != nil {
			return nil, err
		}
		lb.BestRatio = math.Inf(1)
	}
	lb.Types = len(cat.rootLetters)
	lb.Algorithms = cat.total
	lb.Optimum = cat.optimum

	// ctx polling cadence: cheap relative to an assignment evaluation,
	// tight enough that cancellation lands promptly.
	const pollEvery = 256
	assign := make([]int, lb.Types)
	for a := start; a < cat.total; a++ {
		if opts.Ctx != nil && a%pollEvery == 0 {
			if err := opts.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Checkpoint cadence is anchored to absolute indices and the
		// snapshot captures the state *before* assignment a runs, so
		// the stream a resumed run emits matches the control run's.
		if opts.Every > 0 && a > 0 && a%opts.Every == 0 {
			if opts.Checkpoint != nil {
				if err := opts.Checkpoint(cat.snapshot(p, r, a, lb)); err != nil {
					return nil, fmt.Errorf("core: certify checkpoint: %w", err)
				}
			}
			if opts.Progress != nil {
				opts.Progress(a, cat.total)
			}
		}
		cat.evalAssignment(h, p, a, assign, lb)
	}
	if opts.Progress != nil {
		opts.Progress(cat.total, cat.total)
	}
	return lb, nil
}
