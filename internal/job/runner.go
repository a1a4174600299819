package job

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/problems"
	"repro/internal/workload"
)

// This file is the workload layer of the job subsystem: each runner
// hands a validated spec to its computation (the engine kinds to the
// workload registry, measure and certify to their sweeps), wires the
// checkpoint cadence into the job's on-disk store, arms a resume
// snapshot when the store holds one, and renders a deterministic JSON
// result. Result bytes are a pure function of the spec — no
// timestamps, no attempt counters — so an interrupted-and-resumed job
// produces the same bytes as an uninterrupted control run.

// attempt is one execution of a job: the runner's handle to the
// cancellation context, the checkpoint store, and the
// progress/watchdog plumbing. every > 0 checkpoints periodically,
// every == 0 only on RequestNow (watchdog/drain), every < 0 disables
// checkpointing entirely.
type attempt struct {
	ctx      context.Context
	store    *ckpt.Store
	every    int
	progress func(done, total int)
	noteCkpt func()

	mu sync.Mutex
	ck *model.Checkpointer
}

func (a *attempt) arm(ck *model.Checkpointer) {
	a.mu.Lock()
	a.ck = ck
	a.mu.Unlock()
}

// checkpointNow asks the in-flight engine (if any) to snapshot at its
// next round barrier — the capture half of checkpoint-then-preempt.
// The caller cancels the attempt's context right after; the engine
// reaches the barrier, writes the snapshot, then observes the dead
// context at the next round boundary.
func (a *attempt) checkpointNow() {
	a.mu.Lock()
	ck := a.ck
	a.mu.Unlock()
	if ck != nil {
		ck.RequestNow()
	}
}

// engineCheckpointer builds the store-backed sink for engine jobs.
// The sequence number is the snapshot's next round, so a resumed run
// re-writes the same content-addressed file names it would have
// written uninterrupted (idempotent overwrite, byte-identical).
func (a *attempt) engineCheckpointer(total int) *model.Checkpointer {
	ck := &model.Checkpointer{Every: a.every, Sink: func(s *model.Snapshot) error {
		if _, err := a.store.Write(uint64(s.Round), model.SnapshotKind, s.Encode()); err != nil {
			return err
		}
		a.noteCkpt()
		a.progress(s.Round, total)
		return nil
	}}
	a.arm(ck)
	return ck
}

// seed normalises the spec seed (0 means 1, matching canonical()).
func (s *Spec) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// runSpec dispatches a validated spec to its workload runner.
func runSpec(a *attempt, spec Spec) ([]byte, error) {
	switch spec.Kind {
	case "flood", "run":
		return runEngine(a, spec)
	case "measure":
		return runMeasure(a, spec)
	case "certify":
		return runCertify(a, spec)
	}
	return nil, fmt.Errorf("job: unknown kind %q", spec.Kind)
}

// faultSummary is the fault block of job results (present only on
// faulty runs).
type faultSummary struct {
	Profile    string `json:"profile"`
	Crashed    int    `json:"crashed"`
	Dropped    int64  `json:"dropped"`
	Duplicated int64  `json:"duplicated"`
	Reordered  int64  `json:"reordered"`
	Violations int    `json:"violations,omitempty"`
	Uncovered  int    `json:"uncovered,omitempty"`
	Conflicts  int    `json:"conflicts,omitempty"`
}

// floodResult is the result body of flood jobs.
type floodResult struct {
	Kind      string        `json:"kind"`
	Host      string        `json:"host"`
	N         int           `json:"n"`
	Seed      int64         `json:"seed"`
	Horizon   int           `json:"horizon"`
	Rounds    int           `json:"rounds"`
	Leader    int           `json:"leader"`
	Converged int           `json:"converged"`
	Faults    *faultSummary `json:"faults,omitempty"`
}

// runResult is the result body of run jobs (mirrors /v1/run).
type runResult struct {
	Kind   string        `json:"kind"`
	Host   string        `json:"host"`
	Algo   string        `json:"algo"`
	N      int           `json:"n"`
	Seed   int64         `json:"seed"`
	Rounds int           `json:"rounds"`
	Size   int           `json:"size"`
	Faults *faultSummary `json:"faults,omitempty"`
}

// runEngine runs the engine kinds through the workload registry. A
// checkpointable workload snapshots into the job's store and resumes
// from the latest valid snapshot there; corrupt or truncated files
// fail the container hash and LatestValid skips them, falling back to
// the previous checkpoint or a fresh start. Gather keeps its view
// trees in columns outside the state column, which no codec
// serialises, so gather jobs restart from scratch instead.
func runEngine(a *attempt, spec Spec) ([]byte, error) {
	ws, _ := spec.workload()
	var arm workload.Arm
	if w, _ := workload.Lookup(ws.Algo); w.Checkpointable && a.every >= 0 {
		arm.Checkpointer = a.engineCheckpointer(ws.Rounds)
		_, payload, ok, err := a.store.LatestValid(model.SnapshotKind)
		if err != nil {
			return nil, err
		}
		if ok {
			if arm.Resume, err = model.DecodeSnapshot(payload); err != nil {
				return nil, fmt.Errorf("job: checkpoint decode: %w", err)
			}
		}
	}
	res, err := workload.Run(a.ctx, ws, arm)
	if err != nil {
		return nil, err
	}
	var faults *faultSummary
	if f := res.Faults; f != nil {
		faults = &faultSummary{Profile: ws.Faults, Crashed: f.NumCrashed, Dropped: f.Dropped, Duplicated: f.Duplicated,
			Reordered: f.Reordered, Violations: res.Violations, Uncovered: res.Uncovered, Conflicts: res.Conflicts}
	}
	if spec.Kind == "flood" {
		a.progress(ws.Rounds, ws.Rounds)
		return json.Marshal(&floodResult{Kind: spec.Kind, Host: ws.Host, N: res.N, Seed: ws.Seed, Horizon: ws.Rounds,
			Rounds: res.Rounds, Leader: res.Leader, Converged: res.Size, Faults: faults})
	}
	return json.Marshal(&runResult{Kind: spec.Kind, Host: ws.Host, Algo: ws.Algo, N: res.N, Seed: ws.Seed,
		Rounds: res.Rounds, Size: res.Size, Faults: faults})
}

// measureResult is the result body of measure jobs (mirrors
// /v1/measure). Sweeps have no checkpoint support; crashed measure
// jobs restart from scratch.
type measureResult struct {
	Kind  string        `json:"kind"`
	Host  string        `json:"host"`
	N     int           `json:"n"`
	M     int           `json:"m"`
	Rmax  int           `json:"rmax"`
	Radii []radiusEntry `json:"radii"`
}

type radiusEntry struct {
	R        int     `json:"r"`
	Alpha    float64 `json:"alpha"`
	Types    int     `json:"types"`
	Majority int     `json:"majority"`
}

func runMeasure(a *attempt, spec Spec) ([]byte, error) {
	h, err := workload.ResolveHost(spec.Host)
	if err != nil {
		return nil, err
	}
	homs, err := order.SweepMeasureAllCtx(a.ctx, h.G, order.Identity(h.G.N()), spec.Rmax)
	if err != nil {
		return nil, err
	}
	out := measureResult{Kind: "measure", Host: spec.Host, N: h.G.N(), M: h.G.M(), Rmax: spec.Rmax}
	for r, hm := range homs {
		out.Radii = append(out.Radii, radiusEntry{R: r + 1, Alpha: hm.Alpha, Types: len(hm.Counts), Majority: hm.Count})
	}
	return json.Marshal(&out)
}

// certifyResult is the result body of certify jobs. BestRatio is a
// decimal string so +Inf (no feasible assignment) survives JSON.
type certifyResult struct {
	Kind          string `json:"kind"`
	Host          string `json:"host"`
	Problem       string `json:"problem"`
	Radius        int    `json:"radius"`
	Types         int    `json:"types"`
	Algorithms    int    `json:"algorithms"`
	FeasibleCount int    `json:"feasible"`
	BestRatio     string `json:"best_ratio"`
	Optimum       int    `json:"optimum"`
}

// runCertify enumerates the PO algorithm space with periodic
// interned-catalogue checkpoints, resuming the cursor from the latest
// valid snapshot instead of restarting the enumeration.
func runCertify(a *attempt, spec Spec) ([]byte, error) {
	h, err := workload.ResolveHost(spec.Host)
	if err != nil {
		return nil, err
	}
	p, err := problems.ByName(spec.Problem)
	if err != nil {
		return nil, err
	}
	opts := core.CertifyOpts{Ctx: a.ctx, Progress: a.progress}
	if a.every >= 0 {
		opts.Every = a.every
		opts.Checkpoint = func(s *core.CertifySnapshot) error {
			if _, err := a.store.Write(uint64(s.Next), core.CertifySnapshotKind, s.Encode()); err != nil {
				return err
			}
			a.noteCkpt()
			return nil
		}
		if _, payload, ok, err := a.store.LatestValid(core.CertifySnapshotKind); err != nil {
			return nil, err
		} else if ok {
			snap, err := core.DecodeCertifySnapshot(payload)
			if err != nil {
				return nil, fmt.Errorf("job: checkpoint decode: %w", err)
			}
			opts.Resume = snap
		}
	}
	lb, err := core.CertifyPOLowerBoundOpts(h, p, spec.Radius, spec.MaxAlgorithms, opts)
	if err != nil {
		return nil, err
	}
	out := certifyResult{
		Kind: "certify", Host: spec.Host, Problem: p.Name(), Radius: spec.Radius,
		Types: lb.Types, Algorithms: lb.Algorithms, FeasibleCount: lb.FeasibleCount,
		BestRatio: strconv.FormatFloat(lb.BestRatio, 'g', -1, 64), Optimum: lb.Optimum,
	}
	return json.Marshal(&out)
}
