// Package par is the repo-wide parallel execution layer: a single
// process-wide parallelism knob plus a small deterministic fork-join
// helper used by the embarrassingly parallel scans (homogeneity
// measurement, view gathering, lift classification, the experiment
// suite). Workers claim contiguous chunks of the index range from one
// shared cursor (see ForScratch): one atomic add per chunk, not per
// index.
//
// Design rules, enforced by the callers:
//
//   - work is always indexed 0..n-1 and each index writes only its own
//     result slot, so the merge order is fixed by the index, never by
//     goroutine scheduling or chunk boundaries — parallel and
//     sequential runs are byte-identical;
//   - any randomness is drawn sequentially *before* the fork, so RNG
//     streams do not depend on the schedule;
//   - Set(1) is the sequential fallback: For degenerates to a plain
//     loop with no goroutines at all.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// maxChunk caps the number of indices one ForScratch claim hands out.
const maxChunk = 4096

// limit is the current parallelism knob (number of workers For may
// spawn). It is process-wide: the library's scans are data-parallel
// over disjoint slots, so one global knob suffices.
var limit atomic.Int64

// extra counts worker goroutines currently alive across all For calls.
// For reserves extras from a process-wide budget of N()-1, so nested
// calls (an experiment scan inside the experiment-suite fan-out)
// degrade to inline execution instead of multiplying worker counts:
// the knob bounds total workers, not workers per call.
var extra atomic.Int64

func init() {
	limit.Store(int64(runtime.NumCPU()))
}

// Set sets the parallelism knob and returns the previous value.
// n <= 0 resets to runtime.NumCPU(); n == 1 forces the sequential
// fallback everywhere.
func Set(n int) int {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return int(limit.Swap(int64(n)))
}

// N returns the current parallelism knob.
func N() int { return int(limit.Load()) }

// For runs fn(i) for every i in [0, n) on the calling goroutine plus
// up to N()-1 extra workers, reserved from a process-wide budget so
// that nested For calls never oversubscribe: total workers across all
// concurrent calls stay bounded by the knob, and a For issued from
// inside another For's worker runs inline. Indices are handed out
// dynamically, in contiguous chunks claimed from a shared cursor (see
// ForScratch), so which goroutine runs index i depends on the
// schedule, and callers must make fn(i) touch only state owned by
// index i. With N() == 1, or n <= 1, or an exhausted budget, fn runs
// inline on the calling goroutine in increasing index order.
//
// A panic in any fn is re-raised on the calling goroutine after all
// workers have stopped.
func For(n int, fn func(i int)) {
	ForScratch(n,
		func() struct{} { return struct{}{} },
		func(i int, _ struct{}) { fn(i) })
}

// ForScratch is For with worker-local scratch state: mk runs once on
// every participating goroutine (the caller included) and fn receives
// that goroutine's scratch value alongside the index. Expensive
// reusable buffers — ball sweepers, view-build scratch — are thereby
// allocated once per worker instead of once per index. The ownership
// rule extends naturally: fn(i, s) may touch s and state owned by
// index i, nothing else; a scratch value is never shared between two
// goroutines, and mk runs at most min(N(), n) times (not at all when
// n <= 0). The worker budget, determinism and panic propagation are
// exactly as in For.
//
// Scheduling: each worker claims a contiguous chunk of indices with one
// atomic add on a shared cursor and runs it in increasing index order,
// as model.WordEngine's round workers claim worklist chunks. The chunk is
// n/(16·workers), clamped to [1, 4096]: sixteen claims per worker keep
// the tail short when per-index costs vary, the cap bounds the last
// chunk's straggle, and below 16 indices per worker the claim is one
// index, so a fan-out of a few expensive items (the experiment suite,
// the generator search) still balances index by index. A claim per
// index bounces the cursor's cache line between cores on every index,
// which on a scan of cheap indices can cost more CPU than the work
// itself (BenchmarkForScratchClaim, DESIGN §2).
func ForScratch[S any](n int, mk func() S, fn func(i int, s S)) {
	if n <= 0 {
		return
	}
	spawn := reserve(min(int(limit.Load()), n) - 1)
	if spawn <= 0 {
		s := mk()
		for i := 0; i < n; i++ {
			fn(i, s)
		}
		return
	}
	defer extra.Add(-int64(spawn))
	chunk := min(max(n/((spawn+1)*16), 1), maxChunk)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicked == nil {
					panicked = r
				}
				panicMu.Unlock()
			}
		}()
		s := mk()
		for {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+chunk, n); i++ {
				fn(i, s)
			}
		}
	}
	wg.Add(spawn)
	for w := 0; w < spawn; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the calling goroutine participates
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// ForScratchMerge is ForScratch with a post-join merge: after every
// index is done, merge runs once per scratch value that participated,
// sequentially on the calling goroutine. This is the worker-local
// tallying idiom of the sweep engine — each worker accumulates counts
// into its own scratch (no shared map, no locks on the scan path) and
// the small per-worker results are combined after the join, replacing
// an O(n) sequential pass over per-index result slots.
//
// Scratch values are merged in the order the workers registered,
// which depends on goroutine scheduling: merge must therefore be
// commutative and associative (count accumulation is) for the final
// result to be deterministic. With N() == 1 and n > 0 exactly one
// scratch is created and merged, so the sequential fallback is the
// plain loop plus one merge call; n <= 0 merges nothing.
func ForScratchMerge[S any](n int, mk func() S, fn func(i int, s S), merge func(s S)) {
	var (
		mu  sync.Mutex
		all []S
	)
	ForScratch(n,
		func() S {
			s := mk()
			mu.Lock()
			all = append(all, s)
			mu.Unlock()
			return s
		},
		fn)
	for _, s := range all {
		merge(s)
	}
}

// Reserve claims up to want extra-worker slots from the process-wide
// budget of N()-1 and returns how many it got; the caller must hand
// every claimed slot back with Release. It exists for engines that
// manage their own persistent workers (model.WordEngine keeps one
// goroutine per slot alive across a whole run instead of forking per
// round) while still respecting the global knob: For, ForScratch and
// Reserve all draw from the one budget, so nested use degrades to
// inline execution instead of oversubscribing.
func Reserve(want int) int {
	if want <= 0 {
		return 0
	}
	return reserve(want)
}

// Release returns n slots claimed by Reserve to the budget. Handing
// back more slots than are currently reserved — a double Release, or
// a Release without a matching Reserve — would silently widen the
// budget and let every later For/Reserve oversubscribe the knob, so
// it panics with a diagnostic instead. The check is process-global
// (the budget is), so it is best-effort: over-releasing while another
// caller still holds slots consumes theirs and trips the panic at
// their Release instead — but the corruption is always caught before
// the budget goes negative.
func Release(n int) {
	if n <= 0 {
		return
	}
	for {
		cur := extra.Load()
		if int64(n) > cur {
			panic(fmt.Sprintf(
				"par: Release(%d) with only %d extra-worker slots reserved — double Release or Release without Reserve",
				n, cur))
		}
		if extra.CompareAndSwap(cur, cur-int64(n)) {
			return
		}
	}
}

// InUse returns the number of extra-worker slots currently reserved
// across the whole process (by For/ForScratch calls in flight and by
// engines holding persistent workers). It is the worker-budget
// occupancy gauge of the service layer's metrics endpoint: a server
// at rest reports 0, and a cancelled run that failed to hand its
// workers back shows up as occupancy stuck above 0.
func InUse() int { return int(extra.Load()) }

// PanicError is a panic converted to an error by Catch: the recovered
// value plus the stack at the recovery point. It is the "stamped
// error" one poisoned request turns into in the service layer, where
// a handler must answer 500 and keep the process serving.
type PanicError struct {
	// Val is the recovered panic value.
	Val any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error renders the panic value and the captured stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Val, e.Stack)
}

// Catch runs fn and converts a panic into a *PanicError instead of
// letting it unwind further. Because For, ForScratch and the round
// engine's persistent workers all re-raise worker panics on the
// calling goroutine after joining, wrapping the call site in Catch
// isolates a poisoned parallel computation completely: the workers
// have already stopped, the budget has been handed back by the
// callee's defers, and the caller gets an error where the process
// would have died. A *PanicError raised inside fn (e.g. re-thrown by
// a nested Catch) is returned as-is rather than double-wrapped.
func Catch(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*PanicError); ok {
				err = pe
				return
			}
			err = &PanicError{Val: r, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// reserve claims up to want extra-worker slots from the global budget
// of N()-1 and returns how many it got.
func reserve(want int) int {
	got := 0
	for got < want {
		cur := extra.Load()
		free := limit.Load() - 1 - cur
		if free <= 0 {
			break
		}
		take := int64(want - got)
		if take > free {
			take = free
		}
		if extra.CompareAndSwap(cur, cur+take) {
			got += int(take)
		}
	}
	return got
}

// Map runs fn over [0, n) in parallel and collects the results in
// index order.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	For(n, func(i int) { out[i] = fn(i) })
	return out
}
