package serve

import (
	"sync"

	"repro/internal/model"
)

// shardGauges is the /metrics observability of sharded runs (DESIGN.md
// §12): engines currently running register themselves so per-shard
// occupancy and exchange volume are readable mid-run, and completed
// runs fold their exchange totals into the counters and leave a final
// per-shard snapshot behind.
type shardGauges struct {
	mu   sync.Mutex
	runs int64
	// exchanged accumulates cross-shard words delivered over all
	// completed sharded runs.
	exchanged int64
	live      map[*model.ShardedEngine]string
	last      map[string]any
}

// track registers a running sharded engine under its host descriptor
// and returns the deregistration (workload.Arm's Track hook).
func (g *shardGauges) track(se *model.ShardedEngine, host string) (done func(completed bool)) {
	g.mu.Lock()
	if g.live == nil {
		g.live = map[*model.ShardedEngine]string{}
	}
	g.live[se] = host
	g.mu.Unlock()
	return func(completed bool) { g.finish(se, host, completed) }
}

// finish deregisters the engine; a completed run also folds its
// exchange volume into the totals and becomes the last-run snapshot.
func (g *shardGauges) finish(se *model.ShardedEngine, host string, completed bool) {
	g.mu.Lock()
	delete(g.live, se)
	if completed {
		st := se.Stats()
		for _, sh := range st {
			g.exchanged += sh.Exchanged
		}
		g.runs++
		g.last = shardBlock(host, st)
	}
	g.mu.Unlock()
}

// render snapshots the gauges for /metrics. Live engines are sampled
// in place — ShardStats counters are safe to read during a run.
func (g *shardGauges) render() map[string]any {
	g.mu.Lock()
	defer g.mu.Unlock()
	live := []map[string]any{}
	for se, host := range g.live {
		live = append(live, shardBlock(host, se.Stats()))
	}
	return map[string]any{
		"runs":                  g.runs,
		"exchanged_words_total": g.exchanged,
		"live":                  live,
		"last_run":              g.last,
	}
}

// shardBlock renders one engine's per-shard occupancy and exchange
// counters plus their totals.
func shardBlock(host string, st []model.ShardStats) map[string]any {
	per := make([]map[string]int64, len(st))
	var arcs, words int64
	for i, sh := range st {
		per[i] = map[string]int64{
			"shard":        int64(sh.Shard),
			"lo":           sh.Lo,
			"hi":           sh.Hi,
			"slots":        sh.Slots,
			"exchange_out": sh.ExchangeOut,
			"active":       sh.Active,
			"exchanged":    sh.Exchanged,
		}
		arcs += sh.ExchangeOut
		words += sh.Exchanged
	}
	return map[string]any{
		"host":            host,
		"shards":          int64(len(st)),
		"cross_arcs":      arcs,
		"exchanged_words": words,
		"per_shard":       per,
	}
}
