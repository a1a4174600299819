package par

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// chunkSizes are scan lengths around the chunk boundaries of
// ForScratch: 16 indices per worker at 2 workers (31–33), below which
// every claim is one index; 4095–4097, the chunk cap as a length; and
// 2^17+3, which 2 workers claim in capped 4096-index chunks with a
// short last one.
var chunkSizes = []int{0, 1, 2, 7, 31, 32, 33, 64, 500, 1000, 4095, 4096, 4097, 1<<17 + 3}

// TestForCoversAllIndices: every index runs exactly once at every
// chunk boundary, and mk runs at most once per participating
// goroutine, min(p, n) times.
func TestForCoversAllIndices(t *testing.T) {
	for _, p := range []int{2, 3, 8} {
		defer Set(Set(p))
		for _, n := range chunkSizes {
			hits := make([]int32, n)
			var mks atomic.Int32
			ForScratch(n,
				func() struct{} { mks.Add(1); return struct{}{} },
				func(i int, _ struct{}) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d n=%d: index %d visited %d times", p, n, i, h)
				}
			}
			if got := int(mks.Load()); got > min(p, n) {
				t.Fatalf("p=%d n=%d: mk ran %d times, want at most %d", p, n, got, min(p, n))
			}
		}
	}
}

// TestForScratchMergeTallies pins the worker-local tallying contract:
// every index is counted exactly once across all merged scratches, a
// worker runs each chunk it claims in increasing index order, at most
// min(p, n) scratches participate, and with p=1 exactly one does.
func TestForScratchMergeTallies(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		defer Set(Set(p))
		for _, n := range chunkSizes {
			total := 0
			scratches := 0
			seen := make([]bool, n)
			ForScratchMerge(n,
				func() *[]int { s := make([]int, 0, n); return &s },
				func(i int, s *[]int) { *s = append(*s, i) },
				func(s *[]int) {
					scratches++
					total += len(*s)
					for k, i := range *s {
						if i < 0 || i >= n || seen[i] {
							t.Fatalf("p=%d n=%d: bad or duplicate index %d", p, n, i)
						}
						if k > 0 && i < (*s)[k-1] {
							t.Fatalf("p=%d n=%d: index %d ran after %d on one worker", p, n, i, (*s)[k-1])
						}
						seen[i] = true
					}
				})
			if total != n {
				t.Fatalf("p=%d n=%d: merged %d indices", p, n, total)
			}
			if scratches > min(p, n) {
				t.Fatalf("p=%d n=%d: %d scratches, want at most %d", p, n, scratches, min(p, n))
			}
			if p == 1 && n > 0 && scratches != 1 {
				t.Fatalf("sequential fallback used %d scratches", scratches)
			}
		}
	}
}

func TestForSequentialFallback(t *testing.T) {
	defer Set(Set(1))
	// With parallelism 1 the indices must arrive in increasing order on
	// the calling goroutine.
	var got []int
	For(5, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("sequential fallback out of order: %v", got)
		}
	}
}

func TestSetClamps(t *testing.T) {
	old := Set(3)
	defer Set(old)
	if N() != 3 {
		t.Fatalf("N=%d want 3", N())
	}
	Set(0) // resets to NumCPU
	if N() < 1 {
		t.Fatalf("N=%d after reset", N())
	}
}

// TestForPanicPropagates: a panic at an index in the middle of a
// claimed chunk (4096 indices at p=4 claim 64 at a time) reaches the
// caller after the join, with the worker budget handed back.
func TestForPanicPropagates(t *testing.T) {
	defer Set(Set(4))
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate")
		}
		if InUse() != 0 {
			t.Fatalf("InUse=%d after a propagated panic", InUse())
		}
	}()
	For(4096, func(i int) {
		if i == 64+37 {
			panic("boom")
		}
	})
}

func TestMap(t *testing.T) {
	defer Set(Set(4))
	out := Map(10, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("Map[%d]=%d", i, v)
		}
	}
}

// TestReserveReleaseRoundTrip pins budget accounting: Reserve claims
// at most N()-1 slots, InUse tracks them, and Release restores 0.
func TestReserveReleaseRoundTrip(t *testing.T) {
	defer Set(Set(4))
	if got := InUse(); got != 0 {
		t.Fatalf("InUse=%d before reserving", got)
	}
	got := Reserve(10)
	if got != 3 {
		t.Fatalf("Reserve(10)=%d with knob 4, want 3", got)
	}
	if InUse() != got {
		t.Fatalf("InUse=%d after Reserve(%d)", InUse(), got)
	}
	Release(got)
	if InUse() != 0 {
		t.Fatalf("InUse=%d after Release", InUse())
	}
}

// TestReleaseWithoutReserve pins the misuse hazard: handing back
// slots that were never reserved must panic with a diagnostic, not
// silently widen the budget.
func TestReleaseWithoutReserve(t *testing.T) {
	defer Set(Set(4))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Release without Reserve did not panic")
		}
		if msg, ok := r.(string); !ok || !containsAll(msg, "par: Release(1)", "double Release") {
			t.Fatalf("panic message %v lacks the diagnostic", r)
		}
	}()
	Release(1)
}

// TestDoubleRelease pins the other half of the hazard: releasing the
// same reservation twice trips the panic on the second call.
func TestDoubleRelease(t *testing.T) {
	defer Set(Set(4))
	got := Reserve(2)
	if got != 2 {
		t.Fatalf("Reserve(2)=%d", got)
	}
	Release(got)
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	Release(got)
}

// TestReleaseZeroNoop: Release(0) and negative counts are no-ops, so
// engines that reserved nothing can release unconditionally.
func TestReleaseZeroNoop(t *testing.T) {
	Release(0)
	Release(-3)
	if InUse() != 0 {
		t.Fatalf("InUse=%d after no-op releases", InUse())
	}
}

// TestCatchConvertsWorkerPanic: a panic raised inside a parallel
// worker is re-raised on the caller and converted by Catch into a
// *PanicError carrying the value and a stack, with the budget intact.
func TestCatchConvertsWorkerPanic(t *testing.T) {
	defer Set(Set(4))
	err := Catch(func() {
		For(64, func(i int) {
			if i == 13 {
				panic("poisoned request")
			}
		})
	})
	var pe *PanicError
	if !errorsAs(err, &pe) {
		t.Fatalf("Catch returned %v, want *PanicError", err)
	}
	if pe.Val != "poisoned request" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError val=%v stack=%d bytes", pe.Val, len(pe.Stack))
	}
	if InUse() != 0 {
		t.Fatalf("InUse=%d after recovered panic", InUse())
	}
	if err := Catch(func() {}); err != nil {
		t.Fatalf("Catch of clean fn returned %v", err)
	}
}

// TestCatchPassesThroughPanicError: a *PanicError re-thrown through a
// nested Catch is returned as-is, not double-wrapped.
func TestCatchPassesThroughPanicError(t *testing.T) {
	inner := &PanicError{Val: "x"}
	err := Catch(func() { panic(inner) })
	if err != inner {
		t.Fatalf("got %v, want the inner *PanicError unchanged", err)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

func errorsAs(err error, target **PanicError) bool {
	return errors.As(err, target)
}

// BenchmarkForScratchClaim times the claim overhead of ForScratch: at
// par 2 over 2^18 indices each fn writes only its own slot, so ns/op
// is almost all claiming and the cache-line traffic on the shared
// cursor.
func BenchmarkForScratchClaim(b *testing.B) {
	defer Set(Set(2))
	const n = 1 << 18
	out := make([]int32, n)
	for range b.N {
		ForScratch(n,
			func() struct{} { return struct{}{} },
			func(i int, _ struct{}) { out[i] = int32(i) })
	}
}
