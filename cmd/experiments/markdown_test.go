package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// TestMarkdownMatchesExperimentsMD regenerates the E1–E17 tables and
// compares them byte for byte with EXPERIMENTS.md from "### E1 " up
// to "### E18" (E18's 10^8-node runs are too large for a test). It
// takes several seconds, so -short and the race detector skip it.
func TestMarkdownMatchesExperimentsMD(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full E1–E17 suite: skipped under -short and -race")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(doc, []byte("### E1 "))
	end := bytes.Index(doc, []byte("### E18"))
	if start < 0 || end < start {
		t.Fatalf("EXPERIMENTS.md lacks the ### E1 ... ### E18 span (%d, %d)", start, end)
	}
	want := doc[start:end]
	got, err := exec.Command(binPath, "-markdown").Output()
	if err != nil {
		t.Fatalf("experiments -markdown: %v", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-200)
		t.Fatalf("-markdown output (%d bytes) differs from EXPERIMENTS.md E1–E17 (%d bytes) at byte %d:\n--- got ---\n%s\n--- want ---\n%s",
			len(got), len(want), i, got[lo:min(len(got), i+200)], want[lo:min(len(want), i+200)])
	}
}
