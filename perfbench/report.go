package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is a human-readable result line: a named number with its unit
// and the number of samples behind it.
type row struct {
	kind    string // "e2e", "layer", "self" or "info"
	name    string
	value   float64
	unit    string
	samples int
	note    string
}

func (r row) String() string {
	s := fmt.Sprintf("%-5s %-28s %14.6g %-6s n=%d", r.kind, r.name, r.value, r.unit, r.samples)
	if r.note != "" {
		s += "  " + r.note
	}
	return s
}

// report collects one workload run's results. Workload code calls it
// from several goroutines (request senders), hence the mutex.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	metrics   map[string]metric
	rows      []row
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// op records one attempted operation; a non-nil err makes it failed.
// Every operation the benchmark times passes through here, so a wrong
// answer always shows in fail_ratio and in "correct".
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// fail records a failure that is not tied to one timed operation (a
// set-up error, a leftover resource).
func (r *report) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
}

// set records a metric of the result line.
func (r *report) set(name string, value float64, unit string) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.mu.Unlock()
}

// add records a human-readable row.
func (r *report) add(kind, name string, value float64, unit string, samples int, note string) {
	r.mu.Lock()
	r.rows = append(r.rows, row{kind, name, value, unit, samples, note})
	r.mu.Unlock()
}

// addTimes adds the p50 and p99 rows of a latency sample set.
func (r *report) addTimes(kind, name string, d durations, unit string, note string) {
	scale := map[string]float64{"s": 1, "ms": 1e3, "us": 1e6}[unit]
	r.add(kind, name+".p50", d.quantile(0.5).Seconds()*scale, unit, len(d), note)
	r.add(kind, name+".p99", d.quantile(0.99).Seconds()*scale, unit, len(d), note)
}

// keep drops every result-line metric not in names and fails the run
// for each name that was never reported.
func (r *report) keep(names []string) {
	r.mu.Lock()
	kept := make(map[string]metric, len(names))
	var missing []string
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		kept[n] = m
	}
	r.metrics = kept
	r.mu.Unlock()
	for _, n := range missing {
		r.fail(fmt.Errorf("metric %s was not measured", n))
	}
}

func (r *report) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed == 0 && r.attempted > 0
}

func (r *report) failRatio() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// durations is a sample set of timings.
type durations []time.Duration

// quantile returns the q-quantile: the median interpolates between
// the two middle samples, other quantiles take the nearest rank, so
// p99 of fewer than 100 samples is their maximum.
func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q == 0.5 {
		return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func (d durations) median() time.Duration { return d.quantile(0.5) }

// sum returns the total of the samples.
func (d durations) sum() time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

// layerNames are the repo layers spans may name, plus "other" for
// iteration time no layer call covers.
var layerNames = []string{"group", "digraph", "order", "homog", "host", "model", "algorithms", "serve", "job", "other"}

// addSelfTimes reports the self time per traced iteration (root spans
// named "iter") of every layer the workload calls, and of other, as
// rows; they must add up to the traced total. The result line gets the
// self times of the workload's lead layer per iteration and of its
// set-up lead layer per set-up (root spans named "setup"), other, and
// trace.overhead = traced mean / untraced mean.
func (r *report) addSelfTimes(t *tracer, w *workload, untraced durations) {
	layers, total, iters := t.selfTimes("iter")
	if iters == 0 || len(untraced) == 0 {
		r.fail(fmt.Errorf("trace: no traced or untraced iterations"))
		return
	}
	per := func(d time.Duration, k int) float64 { return d.Seconds() / float64(k) }
	var sum time.Duration
	for _, l := range sortedKeys(layers) {
		if !slices.Contains(layerNames, l) {
			r.fail(fmt.Errorf("trace: span layer %q is not a known layer", l))
		}
		sum += layers[l]
		r.add("self", l, per(layers[l], iters), "s", iters, "per traced iteration")
	}
	if sum != total {
		r.fail(fmt.Errorf("trace: layer self times sum to %v, traced total is %v", sum, total))
	}
	setup, _, setups := t.selfTimes("setup")
	for _, l := range sortedKeys(setup) {
		r.add("self", "setup."+l, per(setup[l], setups), "s", setups, "per traced set-up")
	}
	if layers[w.lead] == 0 || setup[w.setupLead] == 0 {
		r.fail(fmt.Errorf("trace: lead layer %s or set-up lead layer %s never called", w.lead, w.setupLead))
	}
	r.set("lead_layer.self_s", per(layers[w.lead], iters), "s")
	r.set("setup_layer.self_s", per(setup[w.setupLead], max(1, setups)), "s")
	r.set("other.self_s", per(layers["other"], iters), "s")
	tracedMean, untracedMean := per(total, iters), per(untraced.sum(), len(untraced))
	r.add("self", "total.traced", tracedMean, "s", iters, "")
	r.add("self", "total.untraced", untracedMean, "s", len(untraced), "")
	r.set("trace.overhead", tracedMean/untracedMean, "ratio")
	r.add("layer", "trace.overhead", tracedMean/untracedMean, "ratio", iters, "traced total / untraced total")
}

func (r *report) print(w *strings.Builder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, x := range r.rows {
		w.WriteString(x.String())
		w.WriteByte('\n')
	}
	for _, f := range r.failures {
		w.WriteString("FAIL  " + strings.ReplaceAll(f, "\n", "\n      ") + "\n")
	}
}
