package serve

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current handlers")

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

// goldenRuns are /v1/run targets covering every workload clean and
// faulty, in n= and host= form, flat and sharded.
var goldenRuns = []string{
	"/v1/run?algo=cole-vishkin&n=1000",
	"/v1/run?algo=cole-vishkin&host=dcycle:1000",
	"/v1/run?algo=cole-vishkin&n=1000&seed=7&faults=crash:f=40,by=8",
	"/v1/run?algo=cole-vishkin&host=dcycle:1000&seed=7&faults=crash:f=40,by=8",
	"/v1/run?algo=cole-vishkin&n=1000&faults=lossy:p=0.05",
	"/v1/run?algo=cole-vishkin&host=dcycle:1000&faults=lossy:p=0.05",
	"/v1/run?algo=matching&n=1000",
	"/v1/run?algo=matching&host=cycle:1000",
	"/v1/run?algo=matching&n=1000&seed=3&faults=lossy:p=0.05",
	"/v1/run?algo=matching&host=cycle:1000&seed=3&faults=lossy:p=0.05",
	"/v1/run?algo=matching&host=torus:20x20&seed=5",
	"/v1/run?algo=matching&host=torus:20x20&seed=5&faults=crash:f=10,by=2",
	"/v1/run?algo=gather&n=1000",
	"/v1/run?algo=gather&host=cycle:1000&rmax=3",
	"/v1/run?algo=gather&n=1000&faults=lossy:p=0.05",
	"/v1/run?algo=gather&host=petersen&rmax=2",
	"/v1/run?algo=gather&host=petersen&rmax=2&faults=lossy:p=0.2",
	"/v1/run?algo=cole-vishkin&n=1000&shards=1",
	"/v1/run?algo=cole-vishkin&n=1000&shards=2",
	"/v1/run?algo=cole-vishkin&host=dcycle:1000&shards=2",
	"/v1/run?algo=cole-vishkin&n=1000&shards=1&faults=lossy:p=0.05",
	"/v1/run?algo=cole-vishkin&n=1000&shards=2&faults=lossy:p=0.05",
	"/v1/run?algo=matching&n=1000&shards=1",
	"/v1/run?algo=matching&n=1000&shards=2",
	"/v1/run?algo=matching&n=1000&shards=1&faults=lossy:p=0.05",
	"/v1/run?algo=matching&n=1000&shards=2&faults=lossy:p=0.05",
	"/v1/run?algo=matching&host=torus:20x20&seed=5&shards=2",
	"/v1/run?algo=matching&host=petersen&shards=2",
}

// TestRunBodiesGolden pins the /v1/run response bodies byte for byte.
// Each target runs on a fresh server, so the n= and host= spellings
// of one tuple are both computed, not served from one cache entry.
func TestRunBodiesGolden(t *testing.T) {
	var out bytes.Buffer
	for _, target := range goldenRuns {
		rr := do(t, New(Config{}), target)
		fmt.Fprintf(&out, "GET %s\n%d %s\n", target, rr.Code, bytes.TrimRight(rr.Body.Bytes(), "\n"))
	}
	checkGolden(t, "run", out.Bytes())
}

// TestWorkloadsGolden pins the /v1/workloads listing.
func TestWorkloadsGolden(t *testing.T) {
	rr := do(t, New(Config{}), "/v1/workloads")
	checkGolden(t, "workloads", append(rr.Body.Bytes(), '\n'))
}

// TestRunFloodGolden pins the flood bodies of /v1/run: size is the
// number of converged nodes. The clean and lossy tuples equal the
// flood job results of internal/job's golden (cycle:32, seed 7,
// horizon 64).
func TestRunFloodGolden(t *testing.T) {
	var out bytes.Buffer
	for _, target := range []string{
		"/v1/run?algo=flood&n=32&seed=7&rounds=64",
		"/v1/run?algo=flood&host=cycle:32&seed=7&rounds=64",
		"/v1/run?algo=flood&n=32&seed=7&rounds=64&faults=lossy:p=0.1",
		"/v1/run?algo=flood&host=torus:8x8&rounds=3",
		"/v1/run?algo=flood&host=torus:8x8&rounds=20&faults=crash:f=4,by=2",
	} {
		rr := do(t, New(Config{}), target)
		fmt.Fprintf(&out, "GET %s\n%d %s\n", target, rr.Code, bytes.TrimRight(rr.Body.Bytes(), "\n"))
	}
	checkGolden(t, "run-flood", out.Bytes())
}
