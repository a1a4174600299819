package localapprox

// The benchmark harness: one benchmark per experiment (each experiment
// regenerates one figure or theorem-as-table of the paper; see
// DESIGN.md's index and EXPERIMENTS.md for measured-vs-paper), plus
// micro-benchmarks of the substrates (group arithmetic, views, balls,
// exact solvers, the certified lower-bound engine).
//
// Run: go test -bench=. -benchmem

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/digraph"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/homog"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/problems"
	"repro/internal/solve"
	"repro/internal/view"
	"repro/internal/workload"
)

func benchExperiment(b *testing.B, run func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per experiment ---

func BenchmarkE1Models(b *testing.B)     { benchExperiment(b, experiments.Models) }
func BenchmarkE2Separation(b *testing.B) { benchExperiment(b, experiments.Separation) }
func BenchmarkE3Approximability(b *testing.B) {
	benchExperiment(b, experiments.Approximability)
}
func BenchmarkE4Homogeneous(b *testing.B) { benchExperiment(b, experiments.HomogeneousGraphs) }
func BenchmarkE5Torus(b *testing.B)       { benchExperiment(b, experiments.TorusHomogeneity) }
func BenchmarkE6UHomogeneity(b *testing.B) {
	benchExperiment(b, experiments.UHomogeneity)
}
func BenchmarkE7Lift(b *testing.B)    { benchExperiment(b, experiments.Lifts) }
func BenchmarkE8OIToPO(b *testing.B)  { benchExperiment(b, experiments.Transfer) }
func BenchmarkE9Ramsey(b *testing.B)  { benchExperiment(b, experiments.RamseyIDOI) }
func BenchmarkE10EDS(b *testing.B)    { benchExperiment(b, experiments.EDSLowerBound) }
func BenchmarkE11Girth(b *testing.B)  { benchExperiment(b, experiments.GirthSearch) }
func BenchmarkE12Growth(b *testing.B) { benchExperiment(b, experiments.Growth) }
func BenchmarkE13PN(b *testing.B)     { benchExperiment(b, experiments.PNSeparation) }
func BenchmarkE14Views(b *testing.B)  { benchExperiment(b, experiments.Views) }
func BenchmarkE15Random(b *testing.B) { benchExperiment(b, experiments.Randomized) }

// --- substrate micro-benchmarks ---

func BenchmarkGroupMulW4(b *testing.B) {
	f := group.W(4)
	rng := rand.New(rand.NewSource(1))
	x, y := f.Rand(rng), f.Rand(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = f.Mul(x, y)
	}
}

func BenchmarkGroupMulU4(b *testing.B) {
	f := group.U(4)
	rng := rand.New(rand.NewSource(1))
	x, y := f.RandSmall(rng, 3), f.RandSmall(rng, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Mul(x, y)
	}
}

func BenchmarkGroupOrderCompare(b *testing.B) {
	f := group.U(3)
	rng := rand.New(rand.NewSource(2))
	x, y := f.RandSmall(rng, 10), f.RandSmall(rng, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Less(x, y)
	}
}

func BenchmarkGirthCertificateK2(b *testing.B) {
	f := group.W(4)
	rng := rand.New(rand.NewSource(3))
	gens := []group.Elem{f.Rand(rng), f.Rand(rng)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.GirthUpTo(gens, 5)
	}
}

func BenchmarkViewBuildPetersenR3(b *testing.B) {
	d := digraph.FromPorts(graph.Petersen(), nil).D
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = view.Build[int](d, i%10, 3)
	}
}

func BenchmarkViewEncode(b *testing.B) {
	t := view.Complete(2, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.Encode()
	}
}

func BenchmarkCanonicalBall(b *testing.B) {
	// The sweep-engine extraction path: after one warm-up pass every
	// type is registered, so the measured loop is all interner hits —
	// the steady state of a whole-host sweep — and must report
	// 0 allocs/op (gated by tools/benchdelta.py against BENCH_ci.json).
	g := graph.Torus(8, 8)
	rank := order.Identity(g.N())
	in := order.NewInterner()
	s := order.NewSweeper()
	for v := 0; v < g.N(); v++ {
		_ = s.CanonicalBall(g, rank, v, 2, in)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.CanonicalBall(g, rank, i%g.N(), 2, in)
	}
}

func BenchmarkCanonicalBallReference(b *testing.B) {
	// The retained per-vertex reference path (fresh ball per call),
	// kept benchmarked so the sweep engine's win stays visible.
	g := graph.Torus(8, 8)
	rank := order.Identity(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = order.CanonicalBall(g, rank, i%g.N(), 2)
	}
}

func BenchmarkSweepMeasure(b *testing.B) {
	// Full-host batched sweep: every vertex of a 24×24 torus at
	// radius 2 through the sweep engine. Pinned to the sequential
	// fallback so ns/op and allocs/op are independent of the runner's
	// core count — this benchmark is CI-gated against BENCH_ci.json,
	// and the parallel speedup is a property of par, not the engine.
	defer par.Set(par.Set(1))
	g := graph.Torus(24, 24)
	rank := order.Identity(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = order.SweepMeasure(g, rank, 2)
	}
}

func BenchmarkSweepMeasureAll(b *testing.B) {
	// The layered multi-radius sweep: homogeneity at radii 1..3 of the
	// 24×24 torus from ONE whole-host pass (one BFS per vertex,
	// canonicalised at each layer boundary, worker-local tallies).
	// Pinned to the sequential fallback like BenchmarkSweepMeasure —
	// both are CI-gated against BENCH_ci.json.
	defer par.Set(par.Set(1))
	g := graph.Torus(24, 24)
	rank := order.Identity(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = order.SweepMeasureAll(g, rank, 3)
	}
}

func BenchmarkCanonicalBallParallel(b *testing.B) {
	// Interner-hit contention: several goroutines hammering one shared
	// interner whose types are all registered, so every probe takes
	// the lock-free read path. GOMAXPROCS is pinned so the goroutine
	// count does not follow the runner's core count; on machines with
	// fewer cores the goroutines timeshare and the ns/op gate is
	// simply conservative. Steady state must stay 0 allocs/op.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := graph.Torus(8, 8)
	rank := order.Identity(g.N())
	in := order.NewInterner()
	warm := order.NewSweeper()
	for v := 0; v < g.N(); v++ {
		_ = warm.CanonicalBall(g, rank, v, 2, in)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := order.NewSweeper()
		v := 0
		for pb.Next() {
			_ = s.CanonicalBall(g, rank, v, 2, in)
			v = (v + 1) % g.N()
		}
	})
}

// --- round engine (model.WordEngine) ---

// The steady-state round workload: every node broadcasts on all its
// slots each round, for a caller-chosen number of rounds. One
// benchmark op is ONE ROUND: the whole measured region is a single
// engine run of b.N rounds, so per-run setup (Init, worker spawn)
// amortises to zero and allocs/op is the genuine steady-state
// per-round allocation count.

// benchPulseWordAlgo is the workload on the word lane, on both
// planes: the remaining-round counter IS the uint64 state, and the
// per-round broadcast is one word written across the slot row.
func benchPulseWordAlgo(rounds int) model.WordAlgo {
	return model.WordAlgo{
		Init: func(v int64, info model.NodeInfo) uint64 { return uint64(rounds) },
		Step: benchPulseStep,
		Out:  func(*uint64) model.Output { return model.Output{} },
	}
}

// benchPulseStep is the workload's step: each node counts its state
// down and broadcasts it, and halts at 0. It is a top-level function
// so that the cursor methods inline into it: a step closure inside a
// constructor that a caller inlines is compiled again without them
// (DESIGN §7).
func benchPulseStep(c *model.Chunk, states []uint64) {
	for c.Next() {
		s := states[c.Node]
		if s == 0 {
			c.Halt()
			continue
		}
		states[c.Node] = s - 1
		c.Broadcast(s - 1)
	}
}

// benchTorusWordEngine caches the 4096-node torus host and its word
// engine across the benchmarks' calibration calls.
var benchTorusWordEngine struct {
	sync.Once
	h *model.Host
	e *model.WordEngine
}

func torusWordEngine() (*model.Host, *model.WordEngine) {
	benchTorusWordEngine.Do(func() {
		benchTorusWordEngine.h = model.HostFromGraph(graph.Torus(64, 64))
		benchTorusWordEngine.e = model.NewWordEngine(benchTorusWordEngine.h)
	})
	return benchTorusWordEngine.h, benchTorusWordEngine.e
}

func BenchmarkRunRoundsTyped(b *testing.B) {
	// The engine on the 4096-node torus at parallelism 8, measured per
	// round, with states and payloads in contiguous uint64 columns.
	// CI-gated against BENCH_ci.json in ns/op and allocs/op:
	// steady-state rounds must stay at 0 allocs/op. par.Set(8) fixes
	// the worker count whatever the runner's core count; on smaller
	// machines the workers timeshare, which only makes the measured
	// ns/op conservative.
	defer par.Set(par.Set(8))
	_, e := torusWordEngine()
	if _, _, err := e.RunStates(nil, benchPulseWordAlgo(4), 8); err != nil {
		b.Fatal(err) // warm-up: arenas, word lane, worklists
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, _, err := e.RunStates(nil, benchPulseWordAlgo(b.N), b.N+2); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRunRoundsTypedFaulty(b *testing.B) {
	// The same workload through the faulty step path under
	// lossy:p=0.05 — prices the per-slot fate draws and the inbox
	// recompaction. CI-gated: fates are pure functions of (seed,
	// round, slot), so after the warm-up run sizes the fault scratch a
	// steady-state faulty round stays at 0 allocs/op.
	defer par.Set(par.Set(8))
	h, e := torusWordEngine()
	sched := model.MustParseProfile("lossy:p=0.05").New(h, 11)
	if _, _, _, err := e.RunStatesFaulty(nil, benchPulseWordAlgo(4), 8, sched); err != nil {
		b.Fatal(err) // warm-up: fault scratch, crashed bitmap
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, _, _, err := e.RunStatesFaulty(nil, benchPulseWordAlgo(b.N), b.N+2, sched); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRunRoundsCheckpointIdle(b *testing.B) {
	// BenchmarkRunRoundsTyped with a Checkpointer armed whose cadence
	// never fires: the price of durability when idle, CI-gated against
	// BENCH_ci.json at 0 allocs/op — arming checkpoints must cost a
	// steady-state round nothing but one nil/int check per barrier.
	defer par.Set(par.Set(8))
	_, e := torusWordEngine()
	e.WithCheckpoints(&model.Checkpointer{Every: 1 << 30})
	defer e.WithCheckpoints(nil)
	if _, _, err := e.RunStates(nil, benchPulseWordAlgo(4), 8); err != nil {
		b.Fatal(err) // warm-up: arenas, word lane, worklists
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, _, err := e.RunStates(nil, benchPulseWordAlgo(b.N), b.N+2); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSnapshotRestore(b *testing.B) {
	// One full durability cycle on the 4096-node torus: decode an
	// encoded snapshot taken two rounds before the end of a 32-round
	// typed run, restore it into a warmed engine and run to
	// completion. Prices what a crash-recovery actually pays per
	// resumed job (decode + column restore + plane restore + the
	// remaining rounds). CI-gated against BENCH_ci.json.
	defer par.Set(par.Set(8))
	_, e := torusWordEngine()
	var payload []byte
	ck := &model.Checkpointer{Every: 30, Sink: func(s *model.Snapshot) error {
		payload = s.Encode()
		return nil
	}}
	e.WithCheckpoints(ck)
	if _, _, err := e.RunStates(nil, benchPulseWordAlgo(32), 40); err != nil {
		b.Fatal(err)
	}
	e.WithCheckpoints(nil)
	if payload == nil {
		b.Fatal("no checkpoint captured")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := model.DecodeSnapshot(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := e.Resume(snap).RunStates(nil, benchPulseWordAlgo(32), 40); err != nil {
			b.Fatal(err)
		}
	}
}

// benchShardedEngines caches the sharded engines across calibration
// calls: the 4096-node torus at P=4 (local-heavy traffic) and a
// 4096-node shift-regular circulant at P=8 whose seeded long-range
// shifts make most arcs cross shard boundaries (exchange-heavy).
var benchShardedEngines struct {
	sync.Once
	torus *model.ShardedEngine
	shift *model.ShardedEngine
}

func shardedBenchEngines(b *testing.B) (*model.ShardedEngine, *model.ShardedEngine) {
	benchShardedEngines.Do(func() {
		t, err := model.NewShardedEngine(model.SourceOf(model.HostFromGraph(graph.Torus(64, 64))), 4)
		if err != nil {
			panic(err)
		}
		src, err := host.ParseShard("shift-regular:d=8,n=4096,seed=1")
		if err != nil {
			panic(err)
		}
		s, err := model.NewShardedEngine(src, 8)
		if err != nil {
			panic(err)
		}
		benchShardedEngines.torus, benchShardedEngines.shift = t, s
	})
	return benchShardedEngines.torus, benchShardedEngines.shift
}

func BenchmarkShardedRound(b *testing.B) {
	// BenchmarkRunRoundsTyped through the sharded engine: the same
	// 4096-node torus workload at P=4, parallelism 8. Workers, arenas
	// and the exchange staging are per-run persistent, so after the
	// warm-up a steady-state round is two barrier phases and zero
	// allocations — CI-gated against BENCH_ci.json in ns/op and
	// allocs/op; the ratio to BenchmarkRunRoundsTyped is the sharding
	// overhead on local-heavy traffic, recorded in BENCH_pr10.json.
	defer par.Set(par.Set(8))
	se, _ := shardedBenchEngines(b)
	if _, err := se.Run(nil, benchPulseWordAlgo(4), 8); err != nil {
		b.Fatal(err) // warm-up: arenas, exchange staging, worklists
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := se.Run(nil, benchPulseWordAlgo(b.N), b.N+2); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkShardedExchange(b *testing.B) {
	// The exchange-heavy twin: 4096 nodes, degree 8, seeded long-range
	// shifts at P=8, so most slots route through the cross-shard
	// staging buffers and the round barrier's drain phase dominates.
	// CI-gated against BENCH_ci.json — prices the counting-sorted
	// exchange drain per round, also at 0 allocs/op steady state.
	defer par.Set(par.Set(8))
	_, se := shardedBenchEngines(b)
	if _, err := se.Run(nil, benchPulseWordAlgo(4), 8); err != nil {
		b.Fatal(err) // warm-up: arenas, exchange staging, worklists
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := se.Run(nil, benchPulseWordAlgo(b.N), b.N+2); err != nil {
		b.Fatal(err)
	}
}

// benchPulse is the workload's state on the specification loop.
type benchPulse struct {
	letters []view.Letter
	left    int
}

// benchPulseRoundAlgo is the workload in the classical slice-returning
// form: states are pre-allocated and handed out by the sequential
// Init, and Step sends its own state pointer on every letter.
func benchPulseRoundAlgo(states []benchPulse, rounds int) model.RoundAlgo {
	next := 0
	return model.RoundAlgo{
		Init: func(info model.NodeInfo) any {
			s := &states[next]
			next++
			s.letters = info.Letters
			s.left = rounds
			return s
		},
		Step: func(state any, round int, inbox []model.Msg) (any, []model.Msg, bool) {
			s := state.(*benchPulse)
			if s.left == 0 {
				return s, nil, true
			}
			s.left--
			out := make([]model.Msg, 0, len(s.letters))
			for _, l := range s.letters {
				out = append(out, model.Msg{L: l, Data: s})
			}
			return s, out, false
		},
		Out: func(any) model.Output { return model.Output{} },
	}
}

func BenchmarkRunRoundsReference(b *testing.B) {
	// The identical per-round workload through the sequential
	// specification loop RunRoundsStates (append-built [][]Msg
	// inboxes, every node visited every round) — the denominator of
	// the engine's speedup, recorded in BENCH_pr5.json.
	defer par.Set(par.Set(8))
	h, _ := torusWordEngine()
	states := make([]benchPulse, h.G.N())
	b.ReportAllocs()
	b.ResetTimer()
	if _, _, err := model.RunRoundsStates(h, nil, benchPulseRoundAlgo(states, b.N), b.N+2); err != nil {
		b.Fatal(err)
	}
}

// benchMillionWordEngine caches the typed 10^6-node cycle engine.
var benchMillionWordEngine struct {
	sync.Once
	e *model.WordEngine
}

func BenchmarkEngineMillionCycleTyped(b *testing.B) {
	// One round on a million-node cycle: the scale assertion of the
	// operational layer, a million uint64 states in one column and one
	// word per slot. CI-gated against BENCH_ci.json in ns/op; the op
	// carries 1/b.N of the run's set-up, so allocs/op is not gated.
	m := &benchMillionWordEngine
	m.Do(func() {
		m.e = model.NewWordEngine(model.HostFromGraph(graph.Cycle(1_000_000)))
	})
	if _, _, err := m.e.RunStates(nil, benchPulseWordAlgo(2), 4); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, _, err := m.e.RunStates(nil, benchPulseWordAlgo(b.N), b.N+2); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkColeVishkinCycle64K times one whole Cole–Vishkin MIS run on
// a 65,536-node directed cycle with seeded ids at two workers, through
// the flat word engine clean (flat) and under lossy:p=0.05 (lossy),
// and through the sharded engine at P=2 (sharded) — the engine runs of
// the repository benchmark's rounds workload, for CPU profiles. Each
// reports ns/node-round beside ns/op. Not CI-gated.
func BenchmarkColeVishkinCycle64K(b *testing.B) {
	defer par.Set(par.Set(2))
	const desc = "dcycle:65536"
	hh, err := host.Parse(desc)
	if err != nil {
		b.Fatal(err)
	}
	h := &model.Host{D: hh.D, G: hh.G}
	n := int64(h.G.N())
	idf := model.SeededIDs(n, 1)
	ids := make([]int, n)
	for v := range ids {
		ids[v] = idf(int64(v))
	}
	sched := model.MustParseProfile("lossy:p=0.05").New(h, 1)
	e := model.NewWordEngine(h)
	src, err := host.ParseShard(desc)
	if err != nil {
		b.Fatal(err)
	}
	se, err := model.NewShardedEngine(src, 2)
	if err != nil {
		b.Fatal(err)
	}
	var rounds int
	b.Run("flat", func(b *testing.B) {
		for b.Loop() {
			res, err := algorithms.ColeVishkinMISOn(e, h, ids)
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Rounds
		}
		reportNodeRounds(b, n, rounds)
	})
	b.Run("lossy", func(b *testing.B) {
		for b.Loop() {
			res, err := algorithms.ColeVishkinMISFaultyOn(e, h, ids, sched)
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Rounds
		}
		reportNodeRounds(b, n, rounds)
	})
	b.Run("sharded", func(b *testing.B) {
		for b.Loop() {
			res, err := algorithms.ColeVishkinMISSharded(se, idf, int(n-1))
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Rounds
		}
		reportNodeRounds(b, n, rounds)
	})
}

// reportNodeRounds reports a whole-run benchmark's time per node and
// round, the unit of the round engines' step loop: the time per run
// over n nodes times the rounds of the last run.
func reportNodeRounds(b *testing.B, n int64, rounds int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*int64(rounds)), "ns/node-round")
}

// BenchmarkFloodCycle64K times one 512-round FloodMax run on a
// 65,536-node cycle with seeded ids at two workers through the flat
// word engine — the engine path of the service workload's durable
// flood jobs, beside BenchmarkColeVishkinCycle64K. It reports
// ns/node-round beside ns/op. Not CI-gated.
func BenchmarkFloodCycle64K(b *testing.B) {
	defer par.Set(par.Set(2))
	h, err := workload.ResolveHost("cycle:65536")
	if err != nil {
		b.Fatal(err)
	}
	n := h.G.N()
	ids := model.PermPrefix(rand.New(rand.NewSource(1)), 8*n, n)
	e := model.NewWordEngine(h)
	var rounds int
	for b.Loop() {
		res, err := algorithms.FloodMaxOn(e, h, ids, 512)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	reportNodeRounds(b, int64(n), rounds)
}

// BenchmarkHostEngineBuild times the set-up of a flat engine run on
// the 256x256 torus, the rounds workload's matching host: the port
// numbering (model.HostFromGraph) plus the word engine
// (model.NewWordEngine). Not CI-gated; run with -benchmem.
func BenchmarkHostEngineBuild(b *testing.B) {
	th, err := host.Parse("torus:256x256")
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		model.NewWordEngine(model.HostFromGraph(th.G))
	}
}

// BenchmarkHostParse times host.Parse on the four families built from
// their shard sources, at 65,536 nodes each: the counting-pass
// digraph.FromSource (dcycle, shift-regular) and digraph.UnderlyingOf
// (cycle, torus). Not CI-gated; run with -benchmem.
func BenchmarkHostParse(b *testing.B) {
	for _, desc := range []string{"dcycle:65536", "cycle:65536", "torus:256x256", "shift-regular:d=4,n=65536,seed=1"} {
		b.Run(desc, func(b *testing.B) {
			for b.Loop() {
				if _, err := host.Parse(desc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHomogeneityExact times one exact Theorem 3.2 scan of
// C(H_2(64), S): 262,144 vertices, every radius-1 ordered ball
// classified (the homog-cayley pass of the repository benchmark).
func BenchmarkHomogeneityExact(b *testing.B) {
	c, err := homog.Search(1, 1, homog.SearchOptions{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	const m = 64
	n := int(group.H(c.Level, m).Order().Int64())
	for b.Loop() {
		if _, err := c.HomogeneityExact(m, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCayleyOrderedHost times the CSR build inside one
// BenchmarkHomogeneityExact scan on its own: the neighbour rows, the
// U-order ranks and graph.FromCSR's sort and mirror check for
// C(H_2(64), S).
func BenchmarkCayleyOrderedHost(b *testing.B) {
	c, err := homog.Search(1, 1, homog.SearchOptions{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	cay, err := c.HCayley(64)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, _, err := cay.OrderedHost(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHomogeneitySample(b *testing.B) {
	c, err := homog.Search(1, 1, homog.SearchOptions{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.HomogeneitySample(20, 10, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveMinVC(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomRegular(18, 3, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = solve.MinVertexCoverSize(g)
	}
}

func BenchmarkSolveMinEDS(b *testing.B) {
	g := graph.Circulant(13, 1, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = solve.MinEdgeDominatingSetSize(g)
	}
}

func BenchmarkCertifyEDSBound(b *testing.B) {
	bl := digraph.NewBuilder(12, 1)
	for i := 0; i < 12; i++ {
		bl.MustAddArc(i, (i+1)%12, 0)
	}
	h, err := model.NewHost(bl.Build())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CertifyPOLowerBound(h, problems.MinEdgeDominatingSet{}, 1, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunPOEDSCycle60(b *testing.B) {
	bl := digraph.NewBuilder(60, 1)
	for i := 0; i < 60; i++ {
		bl.MustAddArc(i, (i+1)%60, 0)
	}
	h, err := model.NewHost(bl.Build())
	if err != nil {
		b.Fatal(err)
	}
	alg := algorithms.EDSOneOut()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.RunPO(h, alg, model.EdgeKind); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColeVishkin1024(b *testing.B) {
	bl := digraph.NewBuilder(1024, 1)
	for i := 0; i < 1024; i++ {
		bl.MustAddArc(i, (i+1)%1024, 0)
	}
	h, err := model.NewHost(bl.Build())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	ids := rng.Perm(8192)[:1024]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algorithms.ColeVishkinMIS(h, ids); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildHomogeneousLift(b *testing.B) {
	c, err := homog.Search(1, 1, homog.SearchOptions{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	if c.Level > 2 {
		b.Skip("construction level too large")
	}
	bl := digraph.NewBuilder(9, 1)
	for i := 0; i < 9; i++ {
		bl.MustAddArc(i, (i+1)%9, 0)
	}
	base := bl.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildHomogeneousLift(c, base, 4, 1<<17); err != nil {
			b.Fatal(err)
		}
	}
}
