package job

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current runners")

// checkGolden compares got with testdata/<name>.golden, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestEngineJobResultsGolden pins the result bytes of run jobs (each
// engine workload clean and faulty) and flood jobs (clean and lossy),
// plus the checkpoint files the lossy flood job writes: their names
// are content hashes, so they pin the snapshot bytes too.
func TestEngineJobResultsGolden(t *testing.T) {
	m := openTestManager(t, Config{Workers: 2})
	specs := []Spec{
		{Kind: "run", Algo: "cole-vishkin", Host: "dcycle:48", Seed: 3},
		{Kind: "run", Algo: "cole-vishkin", Host: "dcycle:48", Seed: 3, Faults: "crash:f=3,by=2"},
		{Kind: "run", Algo: "matching", Host: "cycle:24", Seed: 5},
		{Kind: "run", Algo: "matching", Host: "torus:6x6", Seed: 5, Faults: "lossy:p=0.1"},
		{Kind: "run", Algo: "gather", Host: "cycle:24", Rmax: 2},
		{Kind: "run", Algo: "gather", Host: "petersen", Rmax: 3, Faults: "lossy:p=0.1"},
		{Kind: "flood", Host: "cycle:32", Seed: 7, Rounds: 64},
		// Fields a kind does not use are accepted and ignored.
		{Kind: "run", Algo: "matching", Host: "cycle:24", Seed: 5, Rmax: 3, Rounds: 9},
		{Kind: "run", Algo: "cole-vishkin", Host: "dcycle:48", Seed: 3, Rounds: 9},
		{Kind: "run", Algo: "gather", Host: "cycle:24", Rmax: -3},
		{Kind: "flood", Algo: "matching", Host: "cycle:32", Seed: 7, Rounds: 16, Rmax: 2},
		{Kind: "flood", Host: "cycle:32", Seed: 7, Rounds: 64, Faults: "lossy:p=0.1", CheckpointEvery: 8, SoftDeadlineMS: -1},
	}
	var out bytes.Buffer
	var lastID string
	for _, spec := range specs {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("submit %+v: %v", spec, err)
		}
		waitState(t, m, st.ID, "done")
		body, err := m.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s %s\n%s\n", st.ID, spec.canonical(), body)
		lastID = st.ID
	}
	ckpts, err := filepath.Glob(filepath.Join(m.cfg.Dir, lastID, "ck-*.ck"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ckpts {
		fmt.Fprintf(&out, "%s\n", filepath.Base(p))
	}
	checkGolden(t, "engine-jobs", out.Bytes())
}

// TestEngineJobRejects: specs the engine kinds reject at submission,
// beyond TestJobSubmitValidation's list.
func TestEngineJobRejects(t *testing.T) {
	m := openTestManager(t, Config{})
	for _, spec := range []Spec{
		{Kind: "run", Algo: "flood", Host: "cycle:8"},
		{Kind: "run", Algo: "flood", Host: "cycle:8", Rounds: 4},
		{Kind: "run", Algo: "", Host: "cycle:8"},
		{Kind: "run", Algo: "matching"},
		{Kind: "run", Algo: "matching", Host: "cycle:8", Faults: "bogus:z=1"},
		{Kind: "run", Algo: "cole-vishkin", Host: "petersen"},
		{Kind: "flood", Host: "cycle:8", Rounds: -1},
		{Kind: "flood", Rounds: 4},
	} {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}
