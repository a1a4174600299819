package serve

import (
	"context"
	"encoding/json"

	"repro/internal/host"
	"repro/internal/order"
	"repro/internal/workload"
)

// This file is the server's compute layer: each compute function
// runs the validated request under the request context, so the
// per-request deadline reaches the round loop and the sweep loop, and
// renders the result as the JSON body that the cache stores verbatim.
// Every computation is deterministic in its canonical tuple, which is
// what makes the bodies cacheable forever.

// measureResponse is the body of /v1/measure.
type measureResponse struct {
	Host  string         `json:"host"`
	N     int            `json:"n"`
	M     int            `json:"m"`
	Rmax  int            `json:"rmax"`
	Radii []radiusResult `json:"radii"`
}

type radiusResult struct {
	R        int     `json:"r"`
	Alpha    float64 `json:"alpha"`
	Types    int     `json:"types"`
	Majority int     `json:"majority"`
}

// computeMeasure resolves the host and runs the layered homogeneity
// sweep under the request deadline (vertex-index rank, as the CLIs
// measure).
func computeMeasure(ctx context.Context, hostDesc string, rmax int) ([]byte, error) {
	rh, err := host.Parse(hostDesc)
	if err != nil {
		return nil, err
	}
	homs, err := order.SweepMeasureAllCtx(ctx, rh.G, order.Identity(rh.G.N()), rmax)
	if err != nil {
		return nil, err
	}
	resp := measureResponse{Host: rh.Desc, N: rh.G.N(), M: rh.G.M(), Rmax: rmax}
	for r, hm := range homs {
		resp.Radii = append(resp.Radii, radiusResult{R: r + 1, Alpha: hm.Alpha, Types: len(hm.Counts), Majority: hm.Count})
	}
	return json.Marshal(resp)
}

// runResponse is the body of /v1/run. Fault fields are present only
// on faulty runs (pointers stay nil on clean runs and are omitted).
type runResponse struct {
	Host   string `json:"host"`
	Algo   string `json:"algo"`
	N      int    `json:"n"`
	Seed   int64  `json:"seed"`
	Rounds int    `json:"rounds"`
	// Size is the workload's measure: |MIS|, |M|, distinct view
	// types, or the nodes flood converged.
	Size   int          `json:"size"`
	Faults *faultResult `json:"faults,omitempty"`
	// Sharded is present only on shards= runs.
	Sharded *shardedResult `json:"sharded,omitempty"`
}

// shardedResult summarises a sharded run's exchange plane: shard
// count, resident cross-shard arcs and total words exchanged (the
// per-shard breakdown is on /metrics).
type shardedResult struct {
	P              int   `json:"p"`
	CrossArcs      int64 `json:"cross_arcs"`
	ExchangedWords int64 `json:"exchanged_words"`
}

type faultResult struct {
	Profile    string `json:"profile"`
	Crashed    int    `json:"crashed"`
	Dropped    int64  `json:"dropped"`
	Duplicated int64  `json:"duplicated"`
	Reordered  int64  `json:"reordered"`
	// Violations/Uncovered are Cole–Vishkin survivor-safety counts;
	// Conflicts is the matching's (all 0 for gather).
	Violations int `json:"violations"`
	Uncovered  int `json:"uncovered"`
	Conflicts  int `json:"conflicts"`
}

// computeRun runs the engine workload through the registry — sharded
// runs register with the server's shard gauges, so /metrics shows
// per-shard occupancy and exchange volume while the run is in flight
// and a final snapshot after — and renders the /v1/run body.
func (s *Server) computeRun(ctx context.Context, spec workload.Spec) ([]byte, error) {
	res, err := workload.Run(ctx, spec, workload.Arm{Track: s.shard.track})
	if err != nil {
		return nil, err
	}
	resp := runResponse{Host: spec.Host, Algo: spec.Algo, N: res.N, Seed: spec.Seed, Rounds: res.Rounds, Size: res.Size,
		Sharded: (*shardedResult)(res.Sharded)}
	if f := res.Faults; f != nil {
		resp.Faults = &faultResult{Profile: spec.Faults, Crashed: f.NumCrashed, Dropped: f.Dropped, Duplicated: f.Duplicated,
			Reordered: f.Reordered, Violations: res.Violations, Uncovered: res.Uncovered, Conflicts: res.Conflicts}
	}
	return json.Marshal(resp)
}
