package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/algorithms"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/problems"
)

// The rounds workload runs local algorithms round by round:
// Cole–Vishkin MIS on a directed cycle through the flat typed engine,
// clean and under seeded message loss, and through the sharded engine
// on the implicit (never materialised) source; and the one-round
// randomized matching on a torus. All the work is in model and
// algorithms; the homogeneity and service layers are not called.
//
// The hosts have 65,536 nodes, so that an engine's state stays in the
// per-core caches. On 2,000,000-node hosts (a 2 GB process) the CPU
// time followed the memory traffic of other machines on the shared
// host: its IQR/median reached 0.27 over ten seeds while the host was
// busy, against 0.01 over five while it was quiet.

const (
	roundsCycle = "dcycle:65536"
	roundsTorus = "torus:256x256"
	roundsFault = "lossy:p=0.05"
	roundsP     = 2
)

// roundsSetup is what one set-up builds: the flat hosts and engines
// and the sharded engine.
type roundsSetup struct {
	cycle, torus *model.Host
	ce, te       *model.WordEngine
	sharded      *model.ShardedEngine
}

func buildRounds(e *env, b map[string]durations) (*roundsSetup, error) {
	s := &roundsSetup{}
	root := e.tr.begin("setup", -1, e.tr.newTrace())
	defer e.tr.end(root)
	var err error
	var ch, th *host.Host
	b["host.build"] = append(b["host.build"], e.tr.timed("host.build", root, 0, func() {
		if ch, err = host.Parse(roundsCycle); err == nil {
			th, err = host.Parse(roundsTorus)
		}
	}))
	if err != nil {
		return nil, err
	}
	b["model.engine_build"] = append(b["model.engine_build"], e.tr.timed("model.engine_build", root, 0, func() {
		s.cycle = &model.Host{D: ch.D, G: ch.G}
		s.torus = model.HostFromGraph(th.G)
		s.ce, s.te = model.NewWordEngine(s.cycle), model.NewWordEngine(s.torus)
	}))
	b["model.sharded_build"] = append(b["model.sharded_build"], e.tr.timed("model.sharded_build", root, 0, func() {
		var src model.ShardSource
		if src, err = host.ParseShard(roundsCycle); err == nil {
			s.sharded, err = model.NewShardedEngine(src, roundsP)
		}
	}))
	return s, err
}

// roundsIter is one iteration's results and per-run times.
type roundsIter struct {
	flat   *algorithms.ColeVishkinResult
	faulty *algorithms.FaultyCVResult
	shard  *algorithms.ShardedCVResult
	p1     *algorithms.ShardedCVResult
	match  *model.Solution
	t      map[string]time.Duration
	words  int64 // cross-shard words exchanged by the P=2 run
	total  time.Duration
	cpu    time.Duration
}

func runRounds(e *env) error {
	var s *roundsSetup
	builds := map[string]durations{}
	err := e.setups(9, func() { s = nil }, func(int) error {
		var err error
		s, err = buildRounds(e, builds)
		return err
	})
	if err != nil {
		return err
	}
	n := int64(s.cycle.G.N())
	idf := model.SeededIDs(n, e.seed)
	ids := make([]int, n)
	for v := range ids {
		ids[v] = idf(int64(v))
	}
	prof, err := model.ParseProfile(roundsFault)
	if err != nil {
		return err
	}
	sched := prof.New(s.cycle, e.seed)
	var p1 *model.ShardedEngine
	if e.tr != nil {
		// The P=1 sharded engine exists only for the traced run's
		// shard_speedup; it is not part of the measured set-up.
		src, err := host.ParseShard(roundsCycle)
		if err != nil {
			return err
		}
		if p1, err = model.NewShardedEngine(src, 1); err != nil {
			return err
		}
	}

	iterate := func(tr *tracer, i int) (*roundsIter, error) {
		it := &roundsIter{t: map[string]time.Duration{}}
		tid := tr.newTrace()
		root := tr.begin("iter", -1, tid)
		defer tr.end(root)
		c0, start := cpuNow(), time.Now()
		var err error
		step := func(name string, fn func()) {
			if err == nil {
				it.t[name] = tr.timed(name, root, tid, fn)
			}
		}
		before := exchanged(s.sharded)
		step("algorithms.cv_flat", func() { it.flat, err = algorithms.ColeVishkinMISOn(s.ce, s.cycle, ids) })
		step("algorithms.cv_lossy", func() { it.faulty, err = algorithms.ColeVishkinMISFaultyOn(s.ce, s.cycle, ids, sched) })
		step("algorithms.cv_sharded", func() { it.shard, err = algorithms.ColeVishkinMISSharded(s.sharded, idf, int(n-1)) })
		it.words = exchanged(s.sharded) - before
		if p1 != nil {
			step("algorithms.cv_sharded_p1", func() { it.p1, err = algorithms.ColeVishkinMISSharded(p1, idf, int(n-1)) })
		}
		rng := rand.New(rand.NewSource(e.seed*1000 + int64(i)))
		step("algorithms.matching", func() { it.match, err = algorithms.RandomizedMatchingOn(s.te, s.torus, rng) })
		it.total, it.cpu = time.Since(start), cpuNow()-c0
		return it, err
	}

	// Traced runs alternate an untraced and a traced iteration.
	tracers := []*tracer{nil}
	if e.tr != nil {
		tracers = append(tracers, e.tr)
	}
	var iters, cpus, untraced durations
	var nodeRounds int64
	times := map[string]durations{}
	var first, last *roundsIter
	// One untimed iteration first, as in homog-cayley: the timed ones
	// reuse the heap it grows and the engine state it faults in.
	runtime.GC()
	warm, err := iterate(nil, -1)
	if err == nil {
		err = checkRounds(s, warm, nil)
	}
	e.rep.op(err)
	if err == nil {
		first = warm
	}
	shuffle := rand.New(rand.NewSource(e.seed))
	start := time.Now()
	for i := 0; e.until(start, i); i++ {
		for _, tr := range tracers {
			runtime.GC()
			held := shuffleHeap(shuffle, 4<<20)
			it, err := iterate(tr, i)
			runtime.KeepAlive(held)
			if err == nil {
				err = checkRounds(s, it, first)
			}
			e.rep.op(err)
			if err != nil {
				continue
			}
			if first == nil {
				first = it
			}
			last = it
			nr := n*int64(it.flat.Rounds+it.faulty.Rounds+it.shard.Rounds) + int64(s.torus.G.N())*2
			if it.p1 != nil {
				nr += n * int64(it.p1.Rounds)
			}
			nodeRounds += nr
			iters, cpus = append(iters, it.total), append(cpus, it.cpu)
			if tr == nil {
				untraced = append(untraced, it.total)
			}
			for k, v := range it.t {
				times[k] = append(times[k], v)
			}
		}
	}
	if last == nil {
		return fmt.Errorf("rounds: no iteration completed")
	}
	nrps := float64(nodeRounds) / iters.sum().Seconds()
	e.rep.add("e2e", "node_rounds_per_s", nrps, "1/s", len(iters), "node-rounds of CV flat + lossy + sharded + matching per second")
	e.setOps(iters, cpus, "one iteration of the engine runs")
	for _, k := range sortedKeys(builds) {
		e.rep.add("layer", k+"_s", builds[k].median().Seconds(), "s", len(builds[k]), "set-up")
	}
	if e.tr == nil {
		return nil
	}
	// The engines' per-round times come from the Cole–Vishkin runs,
	// which are algorithms calls driving a model engine.
	perRound := func(k string, rounds int) float64 { return times[k].median().Seconds() * 1e3 / float64(rounds) }
	flat := perRound("algorithms.cv_flat", last.flat.Rounds)
	faulty := perRound("algorithms.cv_lossy", last.faulty.Rounds)
	sharded := perRound("algorithms.cv_sharded", last.shard.Rounds)
	shardedP1 := perRound("algorithms.cv_sharded_p1", last.p1.Rounds)
	k := len(times["algorithms.cv_flat"])
	e.rep.add("layer", "model.flat_round_ms", flat, "ms", k, roundsCycle)
	e.rep.add("layer", "model.faulty_round_ms", faulty, "ms", k, roundsFault)
	e.rep.add("layer", "model.sharded_round_ms", sharded, "ms", k, fmt.Sprintf("P=%d", roundsP))
	e.rep.add("layer", "model.sharded_p1_round_ms", shardedP1, "ms", k, "P=1")
	e.rep.add("layer", "model.fault_overhead", faulty/flat, "ratio", k, "faulty / flat round")
	e.rep.add("layer", "model.shard_speedup", shardedP1/sharded, "ratio", k, fmt.Sprintf("P=1 / P=%d round", roundsP))
	e.rep.add("layer", "model.sharded_vs_flat", shardedP1/flat, "ratio", k, "sharded P=1 / flat round")
	var arcs, slots int64
	for _, st := range s.sharded.Stats() {
		arcs += st.ExchangeOut
		slots += st.Slots
	}
	e.rep.add("layer", "model.cross_arcs", float64(arcs), "count", 1, "")
	e.rep.add("layer", "model.exchanged_words", float64(last.words), "count", 1, "one sharded run")
	e.rep.add("layer", "model.dropped", float64(last.faulty.Report.Dropped), "count", 1, roundsFault)
	gbps := float64(slots) * 8 * float64(last.flat.Rounds) / times["algorithms.cv_flat"].median().Seconds() / 1e9
	e.rep.add("layer", "model.word_lane_gbps", gbps, "GB/s", k, fmt.Sprintf("computed: %d slots x 8 B x %d rounds / flat run time", slots, last.flat.Rounds))
	e.rep.add("layer", "algorithms.matching_s", times["algorithms.matching"].median().Seconds(), "s", k, roundsTorus)
	e.rep.add("layer", "algorithms.cv_rounds", float64(last.flat.Rounds), "count", 1, "")
	e.rep.addSelfTimes(e.tr, e.w, untraced)
	return nil
}

// checkRounds checks one iteration: the clean MIS and the matching are
// feasible, the sharded runs found no conflicts and agree with the flat
// run on rounds and |MIS| for the same ids, and the lossy run repeats
// the first iteration's fault counts exactly.
func checkRounds(s *roundsSetup, it, first *roundsIter) error {
	if err := (problems.MaxIndependentSet{}).Feasible(s.cycle.G, it.flat.MIS); err != nil {
		return fmt.Errorf("rounds: flat Cole–Vishkin: %w", err)
	}
	for _, sh := range []*algorithms.ShardedCVResult{it.shard, it.p1} {
		if sh == nil {
			continue
		}
		if sh.Violations != 0 || sh.Uncovered != 0 || sh.Rounds != it.flat.Rounds || sh.MISSize != int64(it.flat.MIS.Size()) {
			return fmt.Errorf("rounds: sharded Cole–Vishkin: %d rounds |MIS| %d (%d violations, %d uncovered); flat %d rounds |MIS| %d",
				sh.Rounds, sh.MISSize, sh.Violations, sh.Uncovered, it.flat.Rounds, it.flat.MIS.Size())
		}
	}
	rep := it.faulty.Report
	if rep == nil || rep.Dropped == 0 {
		return fmt.Errorf("rounds: %s dropped no message", roundsFault)
	}
	if first != nil && (rep.Dropped != first.faulty.Report.Dropped || it.faulty.MIS.Size() != first.faulty.MIS.Size() ||
		it.faulty.Violations != first.faulty.Violations || it.faulty.Uncovered != first.faulty.Uncovered) {
		return fmt.Errorf("rounds: %s run is not reproducible: dropped %d |MIS| %d, first run %d %d",
			roundsFault, rep.Dropped, it.faulty.MIS.Size(), first.faulty.Report.Dropped, first.faulty.MIS.Size())
	}
	if err := (problems.MaxMatching{}).Feasible(s.torus.G, it.match); err != nil {
		return fmt.Errorf("rounds: matching: %w", err)
	}
	if it.match.Size() == 0 {
		return fmt.Errorf("rounds: matching is empty")
	}
	return nil
}

// exchanged is the sharded engine's cross-shard word total so far.
func exchanged(se *model.ShardedEngine) int64 {
	var w int64
	for _, st := range se.Stats() {
		w += st.Exchanged
	}
	return w
}
