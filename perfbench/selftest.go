package main

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// selfTestSeconds is the measuring time of each self-test run: one
// iteration of every workload.
const selfTestSeconds = 1

// runSelfTest runs every workload once untraced and once traced and
// checks the harness: every result-line metric is reported with a
// unit, every row has a unit and a sample count, the layer self times
// plus other add up to the traced total and stay near the untraced
// one, and no run leaves a process, listener, goroutine or temp
// directory behind (runOne fails the run otherwise).
func runSelfTest(ctx context.Context) int {
	bad := 0
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			t := time.Now()
			rep, err := runOne(ctx, w, 1, selfTestSeconds*time.Second, traced)
			if err != nil {
				fmt.Printf("self-test %s trace=%v: %v\n", w.name, traced, err)
				bad++
				continue
			}
			problems := selfCheck(rep, traced)
			var out strings.Builder
			rep.print(&out)
			fmt.Print(out.String())
			for _, p := range problems {
				fmt.Println("FAIL ", p)
			}
			status := "ok"
			if len(problems) > 0 || !rep.correct() {
				status = "FAILED"
				bad++
			}
			fmt.Printf("self-test %s trace=%v: %s (%d ops, %.1fs)\n\n", w.name, traced, status, rep.attempted, time.Since(t).Seconds())
		}
	}
	if bad > 0 {
		fmt.Printf("self-test: %d runs failed\n", bad)
		return 1
	}
	fmt.Println("self-test: ok")
	return 0
}

func selfCheck(rep *report, traced bool) []string {
	var bad []string
	for _, name := range resultMetrics(traced) {
		m, ok := rep.metrics[name]
		if !ok || m.Unit == "" {
			bad = append(bad, fmt.Sprintf("metric %s missing or without unit", name))
		}
	}
	for _, r := range rep.rows {
		if r.unit == "" || r.samples < 1 {
			bad = append(bad, fmt.Sprintf("row %s has unit %q and %d samples", r.name, r.unit, r.samples))
		}
	}
	if traced {
		if o := rep.metrics["trace.overhead"].Value; o < 0.67 || o > 1.5 {
			bad = append(bad, fmt.Sprintf("traced total is %.2fx the untraced total", o))
		}
	}
	return bad
}
