package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, made from
// the benchmark's own code. The layer is the span name up to the
// first dot ("digraph.materialize" belongs to digraph).
type span struct {
	Name   string        `json:"name"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Trace  int64         `json:"trace"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory; they are written out when the
// benchmark exits. A nil *tracer records nothing, which is how the
// untraced runs measure.
type tracer struct {
	epoch  time.Time
	traces atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrace returns a fresh trace id (one per iteration or request).
func (t *tracer) newTrace() int64 {
	if t == nil {
		return 0
	}
	return t.traces.Add(1)
}

// begin opens a span and returns its id (-1 when not tracing).
func (t *tracer) begin(name string, parent int, trace int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Trace: trace, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration, which is
// measured the same way whether or not t records.
func (t *tracer) timed(name string, parent int, trace int64, fn func()) time.Duration {
	id := t.begin(name, parent, trace)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// write stores every span as JSON in path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sums, over every root span with the given name, each
// layer's self time: the time covered by the root's child spans of
// that layer (overlapping children, as concurrent requests are, count
// once) minus what their own children cover. "other" is the part of
// the roots covered by no child. The layer times plus other add up to
// the roots' total duration, which is returned with the number of
// roots.
func (t *tracer) selfTimes(root string) (layers map[string]time.Duration, total time.Duration, roots int) {
	layers = map[string]time.Duration{}
	if t == nil {
		return layers, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, r := range t.spans {
		if r.Name != root || r.Parent >= 0 {
			continue
		}
		roots++
		total += r.End - r.Start
		kids := children[r.ID]
		byLayer := map[string][]span{}
		for _, k := range kids {
			byLayer[k.layer()] = append(byLayer[k.layer()], k)
		}
		for l, ks := range byLayer {
			var grand []span
			for _, k := range ks {
				grand = append(grand, children[k.ID]...)
			}
			layers[l] += covered(ks) - covered(grand)
		}
		layers["other"] += (r.End - r.Start) - covered(kids)
	}
	return layers, total, roots
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, len(ss))
	for i, s := range ss {
		iv[i] = [2]time.Duration{s.Start, s.End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum time.Duration
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			sum += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return sum + hi - lo
}
