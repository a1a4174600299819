package job

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// floodSpec is the standard long-horizon test job: lossy FloodMax on
// a 32-cycle, checkpointing every 8 rounds.
func floodSpec(rounds int) Spec {
	return Spec{Kind: "flood", Host: "cycle:32", Seed: 7, Faults: "lossy:p=0.1", Rounds: rounds, CheckpointEvery: 8}
}

func openTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// waitState polls until the job reaches want (or the deadline).
func waitState(t *testing.T, m *Manager, id, want string) *Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == want {
			return st
		}
		if (st.State == "failed" || st.State == "done") && st.State != want {
			t.Fatalf("job %s reached terminal %q (error %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := m.Get(id)
	t.Fatalf("job %s stuck in %q, want %q", id, st.State, want)
	return nil
}

// TestJobLifecycle: submit → progress → done → result; resubmission
// of the same spec is the same job.
func TestJobLifecycle(t *testing.T) {
	m := openTestManager(t, Config{})
	spec := floodSpec(64)
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != spec.ID() {
		t.Fatalf("status id %q, want %q", st.ID, spec.ID())
	}
	done := waitState(t, m, st.ID, "done")
	if done.Progress.Done == 0 || done.Progress.Total != 64 {
		t.Errorf("progress %+v, want done>0 total=64", done.Progress)
	}
	body, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var res floodResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != "flood" || res.N != 32 || res.Faults == nil {
		t.Fatalf("unexpected result %+v", res)
	}
	// Idempotent resubmission: same id, done state, no new attempt.
	again, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != st.ID || again.State != "done" || again.Attempts != done.Attempts {
		t.Fatalf("resubmission not idempotent: %+v vs %+v", again, done)
	}
	if ls := m.List(); len(ls) != 1 || ls[0].ID != st.ID {
		t.Fatalf("List = %+v, want the one job", ls)
	}
}

// TestJobResultDeterministic: an interrupted-and-recovered job's
// result bytes equal an uninterrupted control run's — the invariant
// the CI kill drill asserts end to end.
func TestJobResultDeterministic(t *testing.T) {
	spec := floodSpec(96)

	control := openTestManager(t, Config{})
	cst, err := control.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, control, cst.ID, "done")
	want, err := control.Result(cst.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted path: drain mid-run (checkpoint + preempt), then
	// reopen the same dir — crash recovery resumes from the snapshot.
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, st.ID, "running")
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	m1.Drain(drainCtx)
	cancel()

	m2 := openTestManager(t, Config{Dir: dir})
	re, ok := m2.Get(st.ID)
	if !ok {
		t.Fatal("job lost across restart")
	}
	if re.State == "failed" {
		t.Fatalf("recovered job failed: %s", re.Error)
	}
	waitState(t, m2, st.ID, "done")
	got, err := m2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs from control:\n  control %s\n  resumed %s", want, got)
	}
}

// TestJobCancelFreesWorker: cancelling a running job releases its
// worker slot for the next job.
func TestJobCancelFreesWorker(t *testing.T) {
	m := openTestManager(t, Config{Workers: 1})
	big, err := m.Submit(floodSpec(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, big.ID, "running")
	small, err := m.Submit(floodSpec(16))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Cancel(big.ID); st.State != "cancelled" {
		t.Fatalf("cancel state %q", st.State)
	}
	waitState(t, m, small.ID, "done")
	if _, err := m.Result(big.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("cancelled job result err = %v, want ErrNotDone", err)
	}
	// The marker survives restarts.
	if st, _ := m.Get(big.ID); st.State != "cancelled" {
		t.Fatalf("cancelled job state %q", st.State)
	}
}

// TestJobWatchdogReschedule: a job exceeding its soft deadline is
// checkpointed and rescheduled, not failed, and still completes with
// the control result. The job floods the 32-cycle for 2^17 rounds with
// no periodic checkpoint, about 0.3 s of rounds on a 2-vCPU Xeon VM and
// over ten times the 20 ms deadline, so the watchdog fires on any
// machine. Each firing checkpoints the run at the round it reached
// before cancelling it, so every attempt keeps its rounds and the job
// finishes.
func TestJobWatchdogReschedule(t *testing.T) {
	spec := floodSpec(1 << 17)
	spec.CheckpointEvery = spec.Rounds
	control := openTestManager(t, Config{})
	cst, err := control.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, control, cst.ID, "done")
	want, _ := control.Result(cst.ID)

	m := openTestManager(t, Config{SoftDeadline: 20 * time.Millisecond})
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, st.ID, "done")
	got, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("watchdog-rescheduled result differs from control")
	}
	if done.Reschedules == 0 {
		t.Fatal("the job finished inside its soft deadline without a reschedule")
	}
	t.Logf("%d watchdog reschedules", done.Reschedules)
	if done.Attempts != 1 {
		t.Errorf("reschedules must not consume retries: attempts %d", done.Attempts)
	}
}

// TestJobCorruptSnapshotFallback: a corrupted latest checkpoint is
// detected by the container hash and the job resumes from the
// previous one, still matching the control bytes.
func TestJobCorruptSnapshotFallback(t *testing.T) {
	spec := floodSpec(96)
	control := openTestManager(t, Config{})
	cst, _ := control.Submit(spec)
	waitState(t, control, cst.ID, "done")
	want, _ := control.Result(cst.ID)

	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, st.ID, "running")
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	m1.Drain(drainCtx)
	cancel()

	// Corrupt the newest checkpoint file (flip one payload byte).
	jobDir := filepath.Join(dir, st.ID)
	ents, err := os.ReadDir(jobDir)
	if err != nil {
		t.Fatal(err)
	}
	var cks []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "ck-") && strings.HasSuffix(e.Name(), ".ck") {
			cks = append(cks, e.Name())
		}
	}
	if len(cks) < 2 {
		t.Skipf("only %d checkpoints written before drain", len(cks))
	}
	latest := cks[len(cks)-1]
	blob, err := os.ReadFile(filepath.Join(jobDir, latest))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(filepath.Join(jobDir, latest), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := openTestManager(t, Config{Dir: dir})
	waitState(t, m2, st.ID, "done")
	got, err := m2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("result after corrupt-snapshot fallback differs from control")
	}
}

// TestJobRetryBackoffThenFail: a job whose host points at a transient
// failure... there is no injectable transient failure in the runner,
// so exercise the terminal path: retries are counted and the job
// fails with the error recorded durably.
func TestJobRetryBackoffThenFail(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, Config{Dir: dir, Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, MaxRetries: 2})
	// A certify job whose algorithm space blows the budget fails at
	// run time (Validate cannot see the interaction of host, radius
	// and budget).
	spec := Spec{Kind: "certify", Host: "cycle:16", Problem: "min-vertex-cover", Radius: 2, MaxAlgorithms: 1}
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, _ := m.Get(st.ID)
		if got.State == "failed" {
			if got.Attempts != 3 {
				t.Errorf("attempts = %d, want 3 (initial + 2 retries)", got.Attempts)
			}
			if !strings.Contains(got.Error, "budget") {
				t.Errorf("error %q does not mention the budget", got.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", got.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The failure record survives a restart.
	m.Close()
	m2 := openTestManager(t, Config{Dir: dir})
	got, ok := m2.Get(st.ID)
	if !ok || got.State != "failed" || got.Attempts != 3 {
		t.Fatalf("failure not durable: %+v", got)
	}
	if counts := m2.StateCounts(); counts["failed"] != 1 {
		t.Errorf("state gauge %v, want failed=1", counts)
	}
}

// TestJobSubmitValidation: bad specs are rejected at submission.
func TestJobSubmitValidation(t *testing.T) {
	m := openTestManager(t, Config{})
	bad := []Spec{
		{Kind: "nope", Host: "cycle:8"},
		{Kind: "flood", Host: "cycle:8"},                     // no rounds
		{Kind: "flood", Host: "what:8", Rounds: 4},           // bad host
		{Kind: "run", Algo: "cole-vishkin", Host: "cycle:8"}, // undirected host
		{Kind: "run", Algo: "warp", Host: "cycle:8"},         // bad algo
		{Kind: "measure", Host: "cycle:8"},                   // no rmax
		{Kind: "certify", Host: "cycle:8", Problem: "nope", Radius: 1, MaxAlgorithms: 8},
		{Kind: "flood", Host: "cycle:8", Rounds: 4, Faults: "bogus:z=1"}, // bad profile
	}
	for _, spec := range bad {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	if _, ok := m.Get("jdeadbeef0000"); ok {
		t.Error("Get of unknown id succeeded")
	}
	if _, err := m.Cancel("jdeadbeef0000"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel unknown = %v", err)
	}
	if _, err := m.Result("jdeadbeef0000"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Result unknown = %v", err)
	}
}

// TestJobKinds: each workload kind completes and renders its result
// shape (run workloads both clean and faulty).
func TestJobKinds(t *testing.T) {
	m := openTestManager(t, Config{Workers: 4})
	specs := []Spec{
		{Kind: "run", Algo: "cole-vishkin", Host: "dcycle:48", Seed: 3},
		{Kind: "run", Algo: "cole-vishkin", Host: "dcycle:48", Seed: 3, Faults: "crash:f=3,by=2"},
		{Kind: "run", Algo: "matching", Host: "cycle:24", Seed: 5},
		{Kind: "run", Algo: "gather", Host: "cycle:24", Rmax: 2},
		{Kind: "measure", Host: "cycle:24", Rmax: 3},
		{Kind: "certify", Host: "dcycle:9", Problem: "min-edge-dominating-set", Radius: 1, MaxAlgorithms: 1 << 20},
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("submit %+v: %v", spec, err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		waitState(t, m, id, "done")
		body, err := m.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		var head struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(body, &head); err != nil || head.Kind != specs[i].Kind {
			t.Errorf("result %d kind %q (err %v), want %q", i, head.Kind, err, specs[i].Kind)
		}
	}
	// The certified EDS bound on the directed 9-cycle is exactly 3.
	var cert certifyResult
	body, _ := m.Result(ids[5])
	if err := json.Unmarshal(body, &cert); err != nil {
		t.Fatal(err)
	}
	if cert.BestRatio != "3" || cert.Optimum != 3 {
		t.Errorf("certify job result %+v, want ratio 3 / optimum 3", cert)
	}
}

// TestJobSaturation: beyond workers+queue pending jobs, Submit sheds
// with ErrSaturated.
func TestJobSaturation(t *testing.T) {
	m := openTestManager(t, Config{Workers: 1, Queue: 1})
	// One running + fill the channel (cap workers+queue = 2).
	var err error
	var sawSaturated bool
	for i := 0; i < 8; i++ {
		_, err = m.Submit(floodSpec(1 << 18 << i))
		if errors.Is(err, ErrSaturated) {
			sawSaturated = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawSaturated {
		t.Fatal("queue never saturated")
	}
	if m.QueueDepth() == 0 {
		t.Error("queue depth 0 at saturation")
	}
}
