// Command localsim runs a named local algorithm on a named graph
// family in one of the three models and reports solution size,
// optimum, and approximation ratio.
//
// Usage:
//
//	localsim -alg eds-one-out -graph cycle -n 12 [-model po] [-seed 1]
//	localsim -alg eds-all -host torus:6x6
//
// -host accepts any descriptor registered in internal/host (e.g.
// grid3d:3x3x3, margulis-expander:n=6, lift:cycle:9,l=3); it overrides
// -graph/-n/-d, and an unknown descriptor lists the registry.
//
// -rmax R additionally prints the instance's per-radius homogeneity
// table (Def. 3.1) for radii 1..R, measured by ONE layered sweep
// (order.SweepMeasureAll): a single BFS per vertex, canonicalised at
// each layer boundary. A radius outside 1..8 is rejected with the
// valid range.
//
// Algorithms: eds-one-out, eds-all, ec-one-edge, ds-all, vc-all,
// vc-packing (round-based PO), id-greedy-eds, id-nonmin-vc,
// oi-smallest-eds, oi-nonmin-vc, cole-vishkin (directed cycles only).
//
// -algo switches to SCALE MODE: the named engine workload runs through
// the round engines on a host of -n nodes (or -host), reporting rounds,
// solution size and wall time (host construction included), and
// skipping the exact optimum — the only super-linear step — so
// million-node runs finish in seconds:
//
//	localsim -algo cole-vishkin -n 1000000
//	localsim -algo matching -host torus:1000x1000
//	localsim -algo gather -n 100000 -rmax 3
//
// The workloads are internal/workload's registry, the one localapproxd
// serves on /v1/run and runs as durable jobs: cole-vishkin (ID MIS,
// typed word-lane engine), matching (one round of §6.5 randomized
// mutual proposals), gather (full-information view gathering, radius
// -rmax or 2) and flood (FloodMax leader election for -rounds rounds,
// default n). An unknown -algo value lists the registry, like -host and
// -faults. -n synthesizes the workload's own host family — dcycle:N
// for cole-vishkin, cycle:N otherwise — and the header names that
// descriptor. A clean flat run's solution is checked feasible in full.
//
// -faults runs the workload under a fault schedule (internal/model
// profiles): messages dropped/duplicated/reordered and nodes crashed or
// churned, deterministically in -seed, with the injected-fault counts
// and survivor-safety checks reported instead of the clean feasibility
// guarantee:
//
//	localsim -algo cole-vishkin -n 100000 -faults lossy:p=0.05
//	localsim -algo matching -host torus:400x250 -faults crash:f=100,by=8
//
// -checkpoint DIR makes a checkpointable workload (word-lane state:
// cole-vishkin, matching, flood) snapshot the engine into DIR every
// -checkpoint-every rounds (content-addressed, hash-verified files, one
// stderr line each), and -resume restarts an interrupted run from the
// latest valid snapshot in DIR instead of from round 0 — the durable
// format of the localapproxd jobs, so results are byte-for-byte what
// the uninterrupted run would have printed. flood is the long-horizon
// workload built for this: each round is cheap, there are many, and
// convergence is checkable at any prefix:
//
//	localsim -algo flood -n 4096 -rounds 5000 -checkpoint /tmp/ck
//	localsim -algo flood -n 4096 -rounds 5000 -checkpoint /tmp/ck -resume
//
// -shards P runs a workload with a sharded port (cole-vishkin,
// matching) on model.ShardedEngine (DESIGN.md §12): the host is
// partitioned into P contiguous shards, each with its own CSR slice,
// word-lane arenas and workers, and cross-shard arcs drain through a
// compact exchange buffer at the round barrier. Implicit shard-capable
// families (cycle, dcycle, torus, shift-regular) generate their
// topology shard-locally, so descriptors past the flat int32 capacity
// run in bounded resident memory; other registry hosts are
// materialised and adapted:
//
//	localsim -algo cole-vishkin -host dcycle:100000000 -shards 16
//	localsim -algo matching -host cycle:100000000 -shards 16
//	localsim -algo cole-vishkin -n 1000000 -shards 4 -faults lossy:p=0.01
//
// P=1 sharded output is byte-identical to the flat engine; fault
// coordinates stay global, so faulty sharded runs degrade identically
// too (they need a materialisable host for the schedule constructor).
//
// Usage mistakes exit 2 with the relevant listing — among them all the
// registry rejects before running, cole-vishkin on a host that is not
// an oriented cycle included; a failed run exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/algorithms"
	"repro/internal/ckpt"
	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/problems"
	"repro/internal/workload"
)

// maxRmax caps the homogeneity radius sweep (see cmd/experiments).
const maxRmax = 8

// usageError marks an error as a usage mistake — an unknown name or
// out-of-range flag, as opposed to a failed computation — so main can
// exit with the conventional status 2. Every usage error carries the
// relevant registry or grammar listing, making the message
// self-repairing: the user's next invocation can be pasted from it.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// usagef formats a usage error.
func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// exitWith prints the error and exits 2 for usage errors, 1 otherwise.
func exitWith(err error) {
	fmt.Fprintln(os.Stderr, "localsim:", err)
	var ue usageError
	if errors.As(err, &ue) {
		os.Exit(2)
	}
	os.Exit(1)
}

func main() {
	alg := flag.String("alg", "eds-one-out", "algorithm name")
	graphName := flag.String("graph", "cycle", "graph family: cycle|dcycle|petersen|torus|regular|circulant")
	hostDesc := flag.String("host", "", "registry host descriptor (overrides -graph; e.g. torus:6x6)")
	n := flag.Int("n", 12, "instance size")
	d := flag.Int("d", 3, "degree for -graph regular")
	seed := flag.Int64("seed", 1, "seed for random graphs and identifiers")
	rmax := flag.Int("rmax", 0, "also print the per-radius homogeneity table for radii 1..rmax (one layered sweep; unset = off)")
	algo := flag.String("algo", "", "scale mode: run this engine workload at -n / -host, skipping exact optima (an unknown name lists the workloads)")
	faults := flag.String("faults", "", "scale mode: run under this fault profile (e.g. lossy:p=0.05, crash:f=100,by=8); unknown descriptors list the grammar")
	rounds := flag.Int("rounds", 0, "scale mode: horizon in rounds of a horizon workload (flood; default n)")
	ckptDir := flag.String("checkpoint", "", "scale mode: snapshot the engine into this directory (word-lane workloads)")
	ckptEvery := flag.Int("checkpoint-every", 64, "scale mode: rounds between snapshots (with -checkpoint)")
	resume := flag.Bool("resume", false, "scale mode: resume from the latest valid snapshot in -checkpoint")
	shards := flag.Int("shards", 0, "scale mode: run on the sharded engine with this many shards (implicit host generation; hosts may exceed the flat int32 capacity)")
	flag.Parse()
	rmaxSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "rmax" {
			rmaxSet = true
		}
	})
	if rmaxSet && (*rmax < 1 || *rmax > maxRmax) {
		exitWith(usagef("-rmax %d out of range (valid radii: 1..%d)", *rmax, maxRmax))
	}
	if *faults != "" && *algo == "" {
		exitWith(usagef("-faults needs -algo (fault schedules run on the engine's message plane; scale mode only)"))
	}
	if *ckptDir == "" {
		if *resume {
			exitWith(usagef("-resume needs -checkpoint DIR (nothing to resume from)"))
		}
		if *ckptEvery != 64 {
			exitWith(usagef("-checkpoint-every needs -checkpoint DIR"))
		}
	} else {
		if *algo == "" {
			exitWith(usagef("-checkpoint needs -algo (engine snapshots exist in scale mode only)"))
		}
		if *ckptEvery < 1 {
			exitWith(usagef("-checkpoint-every %d out of range (want >= 1)", *ckptEvery))
		}
		if *shards != 0 {
			exitWith(usagef("-checkpoint does not support -shards (the sharded plane has no snapshot codec yet)"))
		}
	}
	if *shards != 0 && *algo == "" {
		exitWith(usagef("-shards needs -algo (the sharded engine runs scale-mode workloads only)"))
	}
	if *algo != "" {
		spec := workload.Spec{Algo: *algo, Host: *hostDesc, Seed: *seed, Faults: *faults, Rmax: *rmax, Rounds: *rounds, Shards: *shards}
		if err := runScale(spec, *n, *ckptDir, *ckptEvery, *resume); err != nil {
			exitWith(err)
		}
		return
	}
	if err := run(*alg, *graphName, *hostDesc, *n, *d, *seed, *rmax); err != nil {
		exitWith(err)
	}
}

// openCheckpoints opens the -checkpoint store: every snapshot is
// written to dir and reported on stderr, and with -resume the latest
// valid one restarts the run.
func openCheckpoints(dir string, every int, resume bool) (workload.Arm, error) {
	store, err := ckpt.NewStore(dir, "localsim")
	if err != nil {
		return workload.Arm{}, err
	}
	arm := workload.Arm{Checkpointer: &model.Checkpointer{Every: every, Sink: func(s *model.Snapshot) error {
		name, err := store.Write(uint64(s.Round), model.SnapshotKind, s.Encode())
		if err == nil {
			fmt.Fprintf(os.Stderr, "localsim: checkpoint round %d -> %s\n", s.Round, name)
		}
		return err
	}}}
	if !resume {
		return arm, nil
	}
	seq, payload, ok, err := store.LatestValid(model.SnapshotKind)
	if err != nil {
		return arm, err
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "localsim: no valid snapshot in %s, starting fresh\n", dir)
		return arm, nil
	}
	if arm.Resume, err = model.DecodeSnapshot(payload); err != nil {
		return arm, fmt.Errorf("snapshot decode: %w", err)
	}
	fmt.Fprintf(os.Stderr, "localsim: resuming from round %d\n", seq)
	return arm, nil
}

// runScale is the engine scale mode: workloads that stay linear in the
// host size, so -n 1000000 is a routine run. Exact optima and global
// ratio reporting are skipped; a clean flat run's solution is still
// checked feasible in full. -n synthesizes the workload's host family
// at n nodes; -rounds defaults to the host size.
func runScale(spec workload.Spec, n int, ckptDir string, ckptEvery int, resume bool) error {
	w, ok := workload.Lookup(spec.Algo)
	if !ok {
		return usagef("unknown scale workload %q\nscale %s", spec.Algo, workload.Describe())
	}
	if spec.Host == "" {
		spec.Host = fmt.Sprintf("%s:%d", w.Family, n)
	}
	if !w.Radius {
		spec.Rmax = 0 // -rmax is also a classic-mode flag
	}
	var arm workload.Arm
	if ckptDir != "" {
		if !w.Checkpointable {
			return usagef("-checkpoint does not support %s (its state has no word-lane snapshot codec)", spec.Algo)
		}
		var err error
		if arm, err = openCheckpoints(ckptDir, ckptEvery, resume); err != nil {
			return err
		}
	}
	start := time.Now()
	res, err := workload.Run(context.Background(), spec, arm)
	if inv := (*workload.Invalid)(nil); errors.As(err, &inv) {
		return usageError{err}
	}
	if err != nil {
		return err
	}
	wall := time.Since(start).Round(time.Millisecond)
	line := w.Text(res)
	if res.Solution != nil {
		if err := w.Problem.Feasible(res.Flat.G, res.Solution); err != nil {
			return fmt.Errorf("solution infeasible: %w", err)
		}
		line += "   feasible: yes"
	}
	if res.Sharded != nil {
		fmt.Printf("sharded scale mode: %s on %s (n=%d, P=%d)", spec.Algo, spec.Host, res.N, res.Sharded.P)
	} else {
		fmt.Printf("scale mode: %s on %s (n=%d, m=%d)", spec.Algo, spec.Host, res.N, res.Flat.G.M())
	}
	if spec.Faults != "" {
		fmt.Printf(" under faults %s", spec.Faults)
	}
	fmt.Printf("\n%s   wall: %s\n", line, wall)
	if sh := res.Sharded; sh != nil {
		fmt.Printf("shards: %d   cross-shard arcs: %d   exchanged words: %d\n", sh.P, sh.CrossArcs, sh.ExchangedWords)
	}
	return nil
}

// algNames lists the classic-mode algorithms, for unknown -alg errors.
var algNames = []string{
	"eds-one-out", "eds-all", "ec-one-edge", "ds-all", "vc-all",
	"vc-packing", "id-greedy-eds", "id-nonmin-vc", "oi-smallest-eds",
	"oi-nonmin-vc", "cole-vishkin",
}

func run(algName, graphName, hostDesc string, n, d int, seed int64, rmax int) error {
	rng := rand.New(rand.NewSource(seed))
	var (
		h   *model.Host
		err error
	)
	if hostDesc != "" {
		graphName = hostDesc
		if h, err = workload.ResolveHost(hostDesc); err != nil {
			err = usageError{err}
		}
	} else {
		h, err = buildHost(graphName, n, d, rng)
	}
	if err != nil {
		return err
	}
	ids := rng.Perm(8 * h.G.N())[:h.G.N()]
	rank := order.Identity(h.G.N())

	var (
		sol  *model.Solution
		prob problems.Problem
	)
	switch algName {
	case "eds-one-out":
		prob = problems.MinEdgeDominatingSet{}
		sol, err = model.RunPO(h, algorithms.EDSOneOut(), model.EdgeKind)
	case "eds-all":
		prob = problems.MinEdgeDominatingSet{}
		sol, err = model.RunPO(h, algorithms.EDSAll(), model.EdgeKind)
	case "ec-one-edge":
		prob = problems.MinEdgeCover{}
		sol, err = model.RunPO(h, algorithms.ECOneEdge(), model.EdgeKind)
	case "ds-all":
		prob = problems.MinDominatingSet{}
		sol, err = model.RunPO(h, algorithms.DSAll(), model.VertexKind)
	case "vc-all":
		prob = problems.MinVertexCover{}
		sol, err = model.RunPO(h, algorithms.VCAll(), model.VertexKind)
	case "vc-packing":
		prob = problems.MinVertexCover{}
		var res *algorithms.VCEdgePackingResult
		res, err = algorithms.VCEdgePacking(h)
		if err == nil {
			sol = res.Cover
			fmt.Printf("bargaining rounds: %d\n", res.Rounds)
		}
	case "id-greedy-eds":
		prob = problems.MinEdgeDominatingSet{}
		sol, err = model.RunID(h, ids, algorithms.IDGreedyEDS(), model.EdgeKind)
	case "id-nonmin-vc":
		prob = problems.MinVertexCover{}
		sol, err = model.RunID(h, ids, algorithms.IDNonMinimumVC(), model.VertexKind)
	case "oi-smallest-eds":
		prob = problems.MinEdgeDominatingSet{}
		sol, err = model.RunOI(h, rank, algorithms.OISmallestNeighborEDS(), model.EdgeKind)
	case "oi-nonmin-vc":
		prob = problems.MinVertexCover{}
		sol, err = model.RunOI(h, rank, algorithms.OILocalMinJoinsVC(), model.VertexKind)
	case "cole-vishkin":
		prob = problems.MaxIndependentSet{}
		var res *algorithms.ColeVishkinResult
		res, err = algorithms.ColeVishkinMIS(h, ids)
		if err == nil {
			sol = res.MIS
			fmt.Printf("rounds: %d (O(log* n) colour reduction + O(1) cleanup)\n", res.Rounds)
		}
	default:
		return usagef("unknown algorithm %q\nalgorithms: %s", algName, strings.Join(algNames, ", "))
	}
	if err != nil {
		return err
	}
	if err := prob.Feasible(h.G, sol); err != nil {
		return fmt.Errorf("solution infeasible: %w", err)
	}
	opt, err := prob.Optimum(h.G)
	if err != nil {
		return err
	}
	ratio, err := problems.Ratio(prob, h.G, sol)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s (n=%d, m=%d, Δ=%d)\n", graphName, h.G.N(), h.G.M(), h.G.MaxDegree())
	fmt.Printf("problem: %s   |solution| = %d   optimum = %d   ratio = %.4f\n",
		prob.Name(), sol.Size(), opt, ratio)
	fmt.Printf("locally verified (PO-checkable): %v\n", problems.VerifyLocally(prob, h.G, sol))
	if rmax >= 1 {
		fmt.Printf("homogeneity under the vertex-index order (one layered sweep, radii 1..%d):\n", rmax)
		fmt.Printf("  %-3s %-10s %-7s %s\n", "r", "max α", "types", "majority count")
		for r, hm := range order.SweepMeasureAll(h.G, rank, rmax) {
			fmt.Printf("  %-3d %-10.4f %-7d %d/%d\n", r+1, hm.Alpha, len(hm.Counts), hm.Count, hm.N)
		}
	}
	return nil
}

func buildHost(name string, n, d int, rng *rand.Rand) (*model.Host, error) {
	switch name {
	case "cycle":
		g := graph.Cycle(n)
		orient, err := digraph.EulerianOrientation(g)
		if err != nil {
			return nil, err
		}
		return model.NewHost(digraph.FromPorts(g, orient).D)
	case "dcycle":
		b := digraph.NewBuilder(n, 1)
		for i := 0; i < n; i++ {
			b.MustAddArc(i, (i+1)%n, 0)
		}
		return model.NewHost(b.Build())
	case "petersen":
		return model.HostFromGraph(graph.Petersen()), nil
	case "torus":
		side := 3
		for side*side < n {
			side++
		}
		g := graph.Torus(side, side)
		orient, err := digraph.EulerianOrientation(g)
		if err != nil {
			return nil, err
		}
		return model.NewHost(digraph.FromPorts(g, orient).D)
	case "regular":
		return model.HostFromGraph(graph.RandomRegular(n, d, rng)), nil
	case "circulant":
		return model.HostFromGraph(graph.Circulant(n, 1, 2)), nil
	default:
		return nil, usagef("unknown graph %q\ngraph families: cycle, dcycle, petersen, torus, regular, circulant (or any -host descriptor)", name)
	}
}
