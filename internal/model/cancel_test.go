package model

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/par"
)

// neverHalt is a minimal non-halting round algorithm: nodes stay on
// the active worklist forever, so a run only ends via maxRounds or
// cancellation.
var neverHalt = WordAlgo{
	Init: func(v int, info NodeInfo) uint64 { return 0 },
	Step: chunkStep(func(state *uint64, round int, inbox []wordMsg, out sends) bool { return false }),
	Out:  func(state *uint64) Output { return Output{} },
}

// TestRunCancelledByDeadline pins the cooperative-cancellation
// contract: a run whose context deadline expires aborts between
// rounds with an error wrapping context.DeadlineExceeded, and every
// reserved worker slot is handed back to the par budget.
func TestRunCancelledByDeadline(t *testing.T) {
	defer par.Set(par.Set(4))
	h := HostFromGraph(graph.Torus(16, 16))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, _, err := TypedOn[uint64](NewEngine(h).WithContext(ctx)).RunStates(nil, neverHalt, 1<<30)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "model: round ") || !strings.Contains(err.Error(), "run cancelled") {
		t.Fatalf("error %q lacks the round-stamped cancellation format", err)
	}
	if got := par.InUse(); got != 0 {
		t.Fatalf("par.InUse()=%d after cancelled run, want 0 (workers not re-admitted)", got)
	}
}

// TestRunCancelledFaultyCarriesProfile: the faulty path's
// cancellation error is stamped with the profile descriptor, like
// every other faulty-run error; the gather arms its context on the
// engine it runs.
func TestRunCancelledFaultyCarriesProfile(t *testing.T) {
	h := HostFromGraph(graph.Torus(8, 8))
	prof := MustParseProfile("lossy:p=0.05")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must abort before round 0
	_, _, _, err := RunGather(ctx, h, 2, 64, prof.New(h, 7))
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want wrapped context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "[lossy:p=0.05]") {
		t.Fatalf("faulty cancellation error %q lacks the profile stamp", err)
	}
	if got := par.InUse(); got != 0 {
		t.Fatalf("par.InUse()=%d after cancelled faulty run", got)
	}
}

// TestWithContextNilDisarms: a nil context leaves the clean path
// untouched — runs complete normally and reuse works.
func TestWithContextNilDisarms(t *testing.T) {
	h := HostFromGraph(graph.Cycle(12))
	te := TypedOn[uint64](NewEngine(h).WithContext(nil))
	for i := 0; i < 2; i++ {
		if _, _, err := te.RunStates(nil, typedPulseAlgo(2), 4); err != nil {
			t.Fatalf("nil-ctx run %d failed: %v", i, err)
		}
	}
}

// TestWithContextTypedPath: cancellation reaches the typed word-lane
// engine through the shared round-loop core.
func TestWithContextTypedPath(t *testing.T) {
	h := HostFromGraph(graph.Torus(8, 8))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	te := TypedOn[uint64](NewEngine(h).WithContext(ctx))
	stall := WordAlgo{
		Init: func(v int, info NodeInfo) uint64 { return 0 },
		Step: chunkStep(func(state *uint64, round int, inbox []wordMsg, out sends) bool {
			return false
		}),
		Out: func(state *uint64) Output { return Output{} },
	}
	_, _, err := te.RunStates(nil, stall, 64)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("typed cancelled run: err=%v", err)
	}
	if got := par.InUse(); got != 0 {
		t.Fatalf("par.InUse()=%d after cancelled typed run", got)
	}
}
