// Command perfbench is the repository benchmark. One invocation runs
// one seeded workload in this process and prints, as its last line, a
// JSON object with the keys correct, attempted, failed and metrics:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the metrics are the end-to-end ones (setup_s,
// cpu_ms_per_op, peak_rss_mb); with --trace 1 the run alternates
// untraced and traced iterations and reports the self times of the
// workload's lead layer, its set-up's lead layer and the benchmark's
// own code, plus trace.overhead. Lines before the last one give every
// number under its own name with unit and sample count (the self time
// of every layer the workload calls among them), the machine record,
// and any failed check.
//
// --self-test runs every workload briefly with tracing and asserts
// that every metric is reported, that the layer self times account
// for the iteration totals, and that no process, listener, goroutine
// or temp directory outlives a run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// buildDir is where the benchmark keeps its outputs inside the
// checkout: the job directories of the service workload and trace
// files.
const buildDir = ".bench_build"

// hardLimit bounds one invocation: past it the watchdog releases
// everything and exits non-zero, inside the 180 s every run must end
// in.
const hardLimit = 170 * time.Second

// workload is one seeded input set. run measures for e.dur and fills
// e.rep; it returns an error only when it cannot run at all. lead is
// the repo layer that does most of an iteration's work and setupLead
// the one that does most of a set-up's; traced runs report their self
// times on the result line.
type workload struct {
	name            string
	run             func(e *env) error
	lead, setupLead string
}

var workloads = []workload{
	{"homog-cayley", runHomogCayley, "digraph", "homog"},
	{"rounds", runRounds, "algorithms", "model"},
	{"service", runService, "serve", "serve"},
}

// env is what a workload run gets: its seed, measuring time, tracer
// (nil on untraced runs), resource owner and report.
type env struct {
	ctx  context.Context
	w    *workload
	seed int64
	dur  time.Duration
	tr   *tracer
	own  *owner
	rep  *report
}

// active is the owner of the run in progress, released by the signal
// handler and the watchdog.
var active atomic.Pointer[owner]

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: homog-cayley, rounds or service")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 15, "measuring time per run")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	selfTest := flag.Bool("self-test", false, "run every workload briefly and check the harness itself")
	flag.Parse()

	if err := checkCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	stopSig := make(chan struct{})
	sigDone := make(chan struct{})
	go func() {
		defer close(sigDone)
		select {
		case s := <-sigc:
			cancel()
			abort(fmt.Sprintf("received %v", s), 128+int(s.(syscall.Signal)))
		case <-stopSig:
		}
	}()
	defer func() {
		signal.Stop(sigc)
		close(stopSig)
		<-sigDone
	}()
	watchdog := time.AfterFunc(hardLimit, func() {
		cancel()
		abort(fmt.Sprintf("run exceeded %v", hardLimit), 3)
	})
	defer watchdog.Stop()
	sweepStale(buildDir, "jobs")

	if *selfTest {
		return runSelfTest(ctx)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceFlag)
		flag.Usage()
		return 2
	}
	rep, err := runOne(ctx, w, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// The machine record comes after the workload, with the workload's
	// heap returned to the OS first, so that its bandwidth probe stays
	// out of the run's peak resident set and does not pile on top of it.
	debug.FreeOSMemory()
	mach := machineRecord()
	rep.add("info", "machine.copy_gbps", mach.CopyGBps, "GB/s", 1,
		fmt.Sprintf("STREAM-style copy, 2 arrays of %d B, LLC %d B; model.word_lane_gbps is set against it", mach.ArrayBytes, mach.LLCBytes))
	var out strings.Builder
	rep.print(&out)
	fmt.Print(out.String())
	mb, _ := json.Marshal(mach)
	fmt.Printf("machine %s\n", mb)
	res, _ := json.Marshal(map[string]any{
		"correct":   rep.correct(),
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	})
	fmt.Println(string(res))
	if !rep.correct() {
		return 1
	}
	return 0
}

// checkCheckout refuses to run outside a repository checkout: the
// benchmark measures the repo's code and needs its root as the working
// directory.
func checkCheckout() error {
	for _, f := range []string{"go.mod", "internal"} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}

// abort releases the active run's resources and exits without a
// result line; used by the signal handler and the watchdog.
func abort(why string, code int) {
	fmt.Fprintln(os.Stderr, "perfbench: aborting:", why)
	if o := active.Load(); o != nil {
		o.release()
	}
	os.Exit(code)
}

// runOne runs workload w once and checks, after releasing everything
// the run created, that nothing is left over. A panic releases too and
// is returned as an error.
func runOne(ctx context.Context, w *workload, seed int64, dur time.Duration, traced bool) (rep *report, err error) {
	baseline := runtime.NumGoroutine()
	own := &owner{}
	active.Store(own)
	defer active.Store(nil)
	rep = newReport()
	e := &env{ctx: ctx, w: w, seed: seed, dur: dur, own: own, rep: rep}
	if traced {
		e.tr = newTracer()
		path := fmt.Sprintf("%s/trace/%s-seed%d.json", buildDir, w.name, seed)
		own.onRelease(func() {
			if err := e.tr.write(path); err != nil {
				rep.fail(fmt.Errorf("write trace: %w", err))
			}
		})
	}
	defer func() {
		if p := recover(); p != nil {
			own.release()
			msg := fmt.Sprintf("panic in workload %s: %v\n%s", w.name, p, debug.Stack())
			for _, bad := range own.leftovers(baseline) {
				msg += "\nleftover: " + bad
			}
			rep, err = nil, errors.New(msg)
		}
	}()
	debug.FreeOSMemory()
	if werr := w.run(e); werr != nil {
		rep.fail(fmt.Errorf("%s: %w", w.name, werr))
	}
	own.release()
	if ctx.Err() != nil {
		return nil, errors.New("cancelled")
	}
	for _, bad := range own.leftovers(baseline) {
		rep.fail(errors.New("leftover: " + bad))
	}
	mb := peakRSSMB()
	rep.set("peak_rss_mb", mb, "MB")
	rep.add("e2e", "peak_rss_mb", mb, "MB", 1, "process peak resident set")
	rep.keep(resultMetrics(traced))
	rep.add("e2e", "fail_ratio", rep.failRatio(), "ratio", rep.attempted, "failed or wrong operations / attempted")
	return rep, nil
}

// resultMetrics lists the metrics of the result line: the end-to-end
// ones on untraced runs, the per-layer ones on traced runs. Every
// workload measures each of them, and none is 0 by construction: the
// per-layer ones name a layer by its role in the workload (lead,
// set-up lead, the benchmark's own code), and a layer a workload does
// not call is left off its rows instead of being reported as 0.
func resultMetrics(traced bool) []string {
	if !traced {
		return []string{"setup_s", "cpu_ms_per_op", "peak_rss_mb"}
	}
	return []string{"lead_layer.self_s", "setup_layer.self_s", "other.self_s", "trace.overhead"}
}

// until reports whether another iteration should start: always for
// the first, then while the measuring time since start lasts. Callers
// collect garbage before each timed operation, so every one starts
// from the same heap and the garbage of one does not land in the next
// one's time or in the peak resident set.
func (e *env) until(start time.Time, i int) bool {
	return e.ctx.Err() == nil && (i == 0 || time.Since(start) < e.dur)
}

// setups runs set-up k times and reports the median CPU time as
// setup_s (see cpuNow for why CPU time). Each repetition rebuilds
// everything from scratch; the last one's result is what the workload
// measures. Before each repetition after the first, drop (untimed)
// lets go of the previous result, and its memory is returned to the OS
// so that repetitions do not pile up in the peak resident set.
func (e *env) setups(k int, drop func(), fn func(i int) error) error {
	var wall, cpu durations
	for i := 0; i < k; i++ {
		if i > 0 {
			drop()
			debug.FreeOSMemory()
		}
		c0, t := cpuNow(), time.Now()
		if err := fn(i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		wall, cpu = append(wall, time.Since(t)), append(cpu, cpuNow()-c0)
	}
	e.rep.set("setup_s", cpu.median().Seconds(), "s")
	e.rep.add("e2e", "setup_s", cpu.median().Seconds(), "s", len(cpu), "median process CPU time of repeated set-ups")
	e.rep.add("e2e", "setup_wall_s", wall.median().Seconds(), "s", len(wall), "median wall time of the same set-ups")
	debug.FreeOSMemory()
	return nil
}

// shuffleHeap allocates a seeded random set of small objects and one
// block of up to large bytes, for the caller to hold during one timed
// operation. The engines' CPU time depends on where the heap puts the
// objects of a run: on a 2-vCPU Xeon VM the same Cole–Vishkin run on
// the same engine took either about 375 ms or 800–950 ms of CPU with
// two workers (never with one), and with an unchanged heap history the
// outcome stuck for a whole run, so that runs disagreed by the share
// of slow operations they happened to get. Holding a fresh random set
// of objects moves each operation's allocations, so that every
// operation draws its own placement and a run's statistics cover the
// placements instead of repeating one of them (layout randomization).
func shuffleHeap(rng *rand.Rand, large int) [][]byte {
	out := make([][]byte, 0, 257)
	for k := rng.Intn(256); k > 0; k-- {
		out = append(out, make([]byte, 8+rng.Intn(504)))
	}
	return append(out, make([]byte, rng.Intn(large)))
}

// setOps reports the workload's unit operation: its wall time as rows
// and its median CPU time as cpu_ms_per_op.
func (e *env) setOps(wall, cpu durations, what string) {
	e.rep.addTimes("e2e", "op_ms", wall, "ms", what)
	e.setCPU(cpu.median(), len(cpu), "median process CPU time per operation")
}

// setCPU reports cpu_ms_per_op.
func (e *env) setCPU(d time.Duration, samples int, note string) {
	ms := d.Seconds() * 1e3
	e.rep.set("cpu_ms_per_op", ms, "ms")
	e.rep.add("e2e", "cpu_ms_per_op", ms, "ms", samples, note)
}
