package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current binary")

// wallRE matches the only nondeterministic field of a scale-mode line.
var wallRE = regexp.MustCompile(`wall: .*`)

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

// runScaleMode runs the binary and returns its stdout with wall times
// stripped, plus its stderr with dir replaced by "DIR".
func runScaleMode(t *testing.T, dir string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(binPath, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("localsim %s: %v\n%s", strings.Join(args, " "), err, errOut.Bytes())
	}
	stdout = wallRE.ReplaceAll(out.Bytes(), []byte("wall:"))
	if dir != "" {
		stderr = bytes.ReplaceAll(errOut.Bytes(), []byte(dir), []byte("DIR"))
	}
	return stdout, stderr
}

// TestScaleModeGolden pins scale mode's stdout byte for byte (wall
// times aside): the CI smoke set plus gather clean and faulty.
func TestScaleModeGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"matching", []string{"-algo", "matching", "-n", "4096"}},
		{"cole-vishkin", []string{"-algo", "cole-vishkin", "-n", "4096"}},
		{"matching-lossy", []string{"-algo", "matching", "-n", "4096", "-faults", "lossy:p=0.05"}},
		{"cole-vishkin-crash", []string{"-algo", "cole-vishkin", "-n", "4096", "-faults", "crash:f=40,by=8"}},
		{"gather", []string{"-algo", "gather", "-n", "4096", "-rmax", "2"}},
		{"gather-lossy", []string{"-algo", "gather", "-n", "4096", "-rmax", "2", "-faults", "lossy:p=0.05"}},
		{"sharded-cole-vishkin", []string{"-algo", "cole-vishkin", "-n", "100000", "-shards", "8"}},
		{"sharded-matching-torus", []string{"-algo", "matching", "-host", "torus:100x100", "-shards", "4"}},
		{"sharded-cole-vishkin-lossy", []string{"-algo", "cole-vishkin", "-n", "4096", "-shards", "2", "-faults", "lossy:p=0.05"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, _ := runScaleMode(t, "", tc.args...)
			checkGolden(t, tc.name, stdout)
		})
	}
}

// TestScaleModeFaultFamiliesGolden pins every other fault family on
// the flat and the 2-shard Cole–Vishkin and on the matching: node
// faults (crash-recover, churn, crash-stop with targeted drops) and
// inbox reordering, which the lossy and crash-stop lines above never
// exercise.
func TestScaleModeFaultFamiliesGolden(t *testing.T) {
	for _, prof := range []struct{ name, desc string }{
		{"dup-reorder", "dup+reorder"},
		{"churn", "churn:p=0.3,window=2"},
		{"adversarial", "adversarial:p=0.1,f=3"},
		{"crash-recover", "crash:f=40,by=8,recover=4"},
	} {
		for _, run := range []struct {
			name string
			args []string
		}{
			{"cole-vishkin", []string{"-algo", "cole-vishkin", "-n", "4096"}},
			{"sharded-cole-vishkin", []string{"-algo", "cole-vishkin", "-n", "4096", "-shards", "2"}},
			{"matching", []string{"-algo", "matching", "-n", "4096"}},
		} {
			name := run.name + "-" + prof.name
			t.Run(name, func(t *testing.T) {
				stdout, _ := runScaleMode(t, "", append(run.args, "-faults", prof.desc)...)
				checkGolden(t, name, stdout)
			})
		}
	}
}

// TestFloodCheckpointGolden pins the checkpointed flood run and its
// resumed re-run, clean and lossy: stdout and the checkpoint files
// each reports, whose content-addressed names pin the snapshot bytes
// (on the lossy run, the crash bitset and fault counters as well).
func TestFloodCheckpointGolden(t *testing.T) {
	for _, tc := range []struct {
		prefix string
		faults []string
	}{
		{"flood", nil},
		{"flood-lossy", []string{"-faults", "lossy:p=0.05"}},
	} {
		t.Run(tc.prefix, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{"-algo", "flood", "-n", "512", "-rounds", "600", "-checkpoint", dir, "-checkpoint-every", "200"}, tc.faults...)
			stdout, stderr := runScaleMode(t, dir, args...)
			checkGolden(t, tc.prefix+"-checkpoint", append(stdout, stderr...))
			stdout, stderr = runScaleMode(t, dir, append(args, "-resume")...)
			checkGolden(t, tc.prefix+"-resume", append(stdout, stderr...))
		})
	}
}
