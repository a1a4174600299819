// Package workload is the one registry of engine workloads: the
// operational algorithms behind the paper's separations, run on the
// round engines at scale. Cole–Vishkin is the ID-model MIS that OI
// and PO algorithms cannot match in O(1) rounds (E2), matching is the
// randomized mutual-proposal round of §6.5, gather collects the views
// τ(T(G,v)) of equation (1), and flood is FloodMax, the long-horizon
// checkpoint workload.
//
// Three surfaces run them: cmd/localsim's scale mode, localapproxd's
// /v1/run and the durable job kinds run and flood. Each surface parses
// its own input into a Spec, applies its own defaults, owns its
// checkpoint sink and renders the Result in its own format; host
// resolution, fault schedules, engine arming and the per-workload
// dispatch live here, once.
package workload

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/digraph"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/problems"
)

// Workload is one registry entry.
type Workload struct {
	Name, Doc string
	// Family is the host family a bare node count n synthesizes
	// (localsim's -n, /v1/run's n=) as Family:n.
	Family string
	// Checkpointable workloads keep one uint64 word per node, so Run
	// honours Arm.Checkpointer and Arm.Resume.
	Checkpointable bool
	// Sharded workloads also run on model.ShardedEngine; Horizon ones
	// take Spec.Rounds, Radius ones Spec.Rmax.
	Sharded, Horizon, Radius bool
	// Problem is what a clean flat run's Result.Solution solves (nil:
	// the workload returns none).
	Problem problems.Problem

	oriented      bool // runs on consistently oriented cycles only
	flat, sharded func(r *run, res *Result) error
	text          func(res *Result) string
}

// registry is in listing order.
var registry = []Workload{
	{
		Name:           "cole-vishkin",
		Doc:            "ID-model MIS on a directed cycle (typed word-lane engine)",
		Family:         "dcycle",
		Checkpointable: true,
		Sharded:        true,
		Problem:        problems.MaxIndependentSet{},
		oriented:       true,
		flat:           coleVishkinFlat,
		sharded:        coleVishkinSharded,
		text:           coleVishkinText,
	},
	{
		Name:           "matching",
		Doc:            "one round of §6.5 randomized mutual proposals (typed word-lane engine)",
		Family:         "cycle",
		Checkpointable: true,
		Sharded:        true,
		Problem:        problems.MaxMatching{},
		flat:           matchingFlat,
		sharded:        matchingSharded,
		text:           matchingText,
	},
	{
		Name:   "gather",
		Doc:    "full-information view gathering, radius rmax (default 2)",
		Family: "cycle",
		Radius: true,
		flat:   gatherFlat,
		text:   gatherText,
	},
	{
		Name:           "flood",
		Doc:            "FloodMax leader election for a horizon of rounds (long-horizon; checkpointable)",
		Family:         "cycle",
		Checkpointable: true,
		Horizon:        true,
		flat:           floodFlat,
		text:           floodText,
	},
}

// Registry returns the workloads in listing order.
func Registry() []Workload { return registry }

// Lookup returns the named workload.
func Lookup(name string) (*Workload, bool) {
	for i := range registry {
		if registry[i].Name == name {
			return &registry[i], true
		}
	}
	return nil, false
}

// Describe lists the registry for unknown-name errors.
func Describe() string {
	var sb strings.Builder
	sb.WriteString("workloads:\n")
	for _, w := range registry {
		fmt.Fprintf(&sb, "  %-14s %s\n", w.Name, w.Doc)
	}
	return sb.String()
}

// Spec is one engine run.
type Spec struct {
	Algo string
	// Host is a host-registry descriptor; with Shards > 0 it may also
	// name an implicit shard source (host.ParseShard).
	Host string
	// Seed derives the identifiers and the proposal coins.
	Seed int64
	// Faults is a fault-profile descriptor; empty runs clean.
	Faults string
	// Rmax is a radius workload's view radius (below 1 takes 2) and
	// Rounds a horizon workload's horizon (0 takes n, the host size).
	Rmax, Rounds int
	// Shards > 0 runs on the sharded engine with that many shards.
	Shards int
}

// Validate checks s against the registry: a known workload, given
// only the parameters it takes. It resolves neither the host nor the
// fault profile, so it allocates nothing on valid input; Run does
// both.
func (s Spec) Validate() error {
	w, ok := Lookup(s.Algo)
	if !ok {
		return fmt.Errorf("unknown workload %q\n%s", s.Algo, Describe())
	}
	switch {
	case s.Rounds < 0:
		return fmt.Errorf("rounds %d out of range (want >= 1)", s.Rounds)
	case s.Rounds > 0 && !w.Horizon:
		return onlyFor("rounds", func(w *Workload) bool { return w.Horizon })
	case s.Rmax != 0 && !w.Radius:
		return onlyFor("rmax", func(w *Workload) bool { return w.Radius })
	case s.Shards < 0:
		return fmt.Errorf("shards %d out of range (want >= 1)", s.Shards)
	case s.Shards > 0 && !w.Sharded:
		return onlyFor("shards", func(w *Workload) bool { return w.Sharded })
	}
	return nil
}

// onlyFor rejects a parameter, naming the workloads that take it.
func onlyFor(param string, takes func(w *Workload) bool) error {
	var names []string
	for i := range registry {
		if takes(&registry[i]) {
			names = append(names, registry[i].Name)
		}
	}
	noun := "workload"
	if len(names) > 1 {
		noun = "workloads"
	}
	return fmt.Errorf("%s only applies to the %s %s", param, strings.Join(names, " and "), noun)
}

// CheckHost reports whether a host with L-digraph d (nil for a plain
// graph family) suits s's workload. Run applies it to every flat
// host; the job layer at submission.
func (s Spec) CheckHost(d *digraph.Digraph) error {
	if w, ok := Lookup(s.Algo); ok && w.oriented && (d == nil || !d.IsRegularDigraph(1)) {
		return fmt.Errorf("%s needs a consistently oriented cycle host (e.g. dcycle:<n>)", s.Algo)
	}
	return nil
}

// Invalid marks an error that rejects the spec itself — a name or
// parameter Validate refuses, a descriptor that does not resolve, a
// host the workload cannot run on — rather than a failed run.
type Invalid struct{ Err error }

func (e *Invalid) Error() string { return e.Err.Error() }
func (e *Invalid) Unwrap() error { return e.Err }

// Arm is how a surface arms the engines Run builds; the zero value
// runs plain engines.
type Arm struct {
	// Checkpointer and Resume snapshot and restart a checkpointable
	// workload's engine; the other workloads ignore them.
	Checkpointer *model.Checkpointer
	Resume       *model.Snapshot
	// Track, when set, sees each sharded engine before it runs and
	// returns the function to call once it is done.
	Track func(se *model.ShardedEngine, desc string) (done func(completed bool))
}

// Result is a run's outcome in the terms the surfaces report.
type Result struct {
	N int // nodes
	// Rounds counts the rounds executed. Size is the workload's
	// measure: |MIS|, |M|, distinct radius-Radius view types, or the
	// nodes that learned flood's Leader.
	Rounds, Size, Radius, Leader int
	// Violations and Uncovered count Cole–Vishkin survivor-safety
	// failures, Conflicts the matching's (none on clean flat runs).
	Violations, Uncovered, Conflicts int
	Faults                           *model.FaultReport // nil on clean runs
	Sharded                          *Sharded           // nil on flat runs
	// Flat is a flat run's host, Solution a clean flat run's solution
	// to Workload.Problem; checking it is left to the surface.
	Flat     *model.Host
	Solution *model.Solution
}

// Sharded summarises a sharded run's exchange plane.
type Sharded struct {
	P                         int
	CrossArcs, ExchangedWords int64
}

// Text renders a result of w as one report line (cmd/localsim's):
// rounds, the workload's measure, and a faulty run's tallies.
func (w *Workload) Text(r *Result) string {
	return fmt.Sprintf("rounds: %d   %s", r.Rounds, w.text(r))
}

// Run validates s, resolves its host, builds its fault schedule, arms
// the engine with ctx (nil never cancels) and arm, and runs the
// workload. Everything that rejects s comes back as *Invalid.
func Run(ctx context.Context, s Spec, arm Arm) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, &Invalid{err}
	}
	var prof *model.Profile
	if s.Faults != "" {
		var err error
		if prof, err = model.ParseProfile(s.Faults); err != nil {
			return nil, &Invalid{err}
		}
	}
	w, _ := Lookup(s.Algo)
	r := &run{ctx: ctx, spec: s, arm: arm}
	if s.Shards > 0 {
		return r.sharded(w, prof)
	}
	h, err := ResolveHost(s.Host)
	if err == nil {
		err = s.CheckHost(h.D)
	}
	if err != nil {
		return nil, &Invalid{err}
	}
	r.h, r.rng = h, rand.New(rand.NewSource(s.Seed))
	if prof != nil {
		r.sched = prof.New(h, s.Seed)
	}
	res := &Result{N: h.G.N(), Flat: h}
	if err := w.flat(r, res); err != nil {
		return nil, err
	}
	return res, nil
}

// ResolveHost parses a descriptor into an engine host, numbering the
// ports of a plain graph family.
func ResolveHost(desc string) (*model.Host, error) {
	rh, err := host.Parse(desc)
	if err != nil {
		return nil, err
	}
	if rh.D != nil {
		return &model.Host{D: rh.D, G: rh.G}, nil
	}
	return model.HostFromGraph(rh.G), nil
}

// run is what a workload's run functions draw on: h and rng on the
// flat engine, se on the sharded one.
type run struct {
	ctx   context.Context
	spec  Spec
	arm   Arm
	sched model.Schedule
	h     *model.Host
	rng   *rand.Rand
	se    *model.ShardedEngine
}

// sharded resolves the host as an implicit shard source when the
// family has one (so hosts past the flat int32 capacity run in bounded
// resident memory) and adapts the materialised host otherwise. Fault
// schedules hash global coordinates from a flat host, so faulty
// sharded runs need a materialisable one.
func (r *run) sharded(w *Workload, prof *model.Profile) (*Result, error) {
	s := r.spec
	src, err := host.ParseShard(s.Host)
	if err != nil {
		h, herr := ResolveHost(s.Host)
		if herr != nil {
			return nil, &Invalid{fmt.Errorf("%w\n(no implicit shard source either: %v)", herr, err)}
		}
		src = model.SourceOf(h)
	}
	if prof != nil {
		mh, err := model.MaterializeSource(src)
		if err != nil {
			return nil, &Invalid{fmt.Errorf("faults with shards need a materialisable host (schedules hash global coordinates from a flat host): %w", err)}
		}
		r.sched = prof.New(mh, s.Seed)
	}
	if r.se, err = model.NewShardedEngine(src, s.Shards); err != nil {
		return nil, err
	}
	r.se.WithContext(r.ctx)
	completed := false
	if r.arm.Track != nil {
		done := r.arm.Track(r.se, s.Host)
		defer func() { done(completed) }()
	}
	res := &Result{N: int(src.N()), Sharded: &Sharded{P: s.Shards}}
	if err := w.sharded(r, res); err != nil {
		return nil, err
	}
	completed = true
	for _, st := range r.se.Stats() {
		res.Sharded.CrossArcs += st.ExchangeOut
		res.Sharded.ExchangedWords += st.Exchanged
	}
	return res, nil
}

// ids draws the ID-model identifiers: a seeded injection into [0, 8n).
func (r *run) ids() []int {
	n := r.h.G.N()
	return model.PermPrefix(r.rng, 8*n, n)
}

// wordEngine builds the flat word-lane engine, armed with the run's
// context and the surface's checkpointer and resume snapshot.
func (r *run) wordEngine() *model.WordEngine {
	e := model.NewWordEngine(r.h).WithContext(r.ctx)
	if r.arm.Checkpointer != nil {
		e = e.WithCheckpoints(r.arm.Checkpointer)
	}
	if r.arm.Resume != nil {
		e = e.Resume(r.arm.Resume)
	}
	return e
}
