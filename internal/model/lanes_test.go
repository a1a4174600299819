package model

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// TestWorkerLanesIsolated pins the worker-lane layout rather than its
// timing: for 1, 2, 3 and 8 workers, on the planes of both engines,
// clean and under profiles that need no scratch (lossy), the node-list
// scratch (crash) and the delivery-order map too (dup+reorder), no
// 128-byte-aligned block of memory holds mutable bytes of two
// different workers (a cursor or any of its scratch arrays), and the
// scratch keeps its sized bounds: pieceNodes list entries when the
// plan filters nodes, and a map of at least twice the widest slot row
// when it remaps deliveries. The hosts' widest slot rows are 2 (cycle)
// and 4 (torus).
func TestWorkerLanesIsolated(t *testing.T) {
	hosts := []struct {
		name     string
		h        *Host
		maxSlots int32
	}{
		{"cycle", HostFromGraph(graph.Cycle(64)), 2},
		{"torus", HostFromGraph(graph.Torus(8, 8)), 4},
	}
	for _, hc := range hosts {
		e := NewWordEngine(hc.h)
		se, err := NewShardedEngine(SourceOf(hc.h), 2)
		if err != nil {
			t.Fatal(err)
		}
		if e.maxSlots != hc.maxSlots || se.maxSlots != hc.maxSlots {
			t.Fatalf("%s: maxSlots flat %d sharded %d, want %d", hc.name, e.maxSlots, se.maxSlots, hc.maxSlots)
		}
		for _, prof := range []string{"clean", "lossy:p=0.1", "crash:f=2", "dup+reorder"} {
			fp := planFaults(MustParseProfile(prof).New(hc.h, 1))
			for _, n := range []int{1, 2, 3, 8} {
				cs := newLanes(n, hc.maxSlots, &fp, func(*Chunk) {})
				checkLanes(t, fmt.Sprintf("%s %s workers=%d", hc.name, prof, n), cs, hc.maxSlots, &fp)
			}
		}
	}
}

// checkLanes asserts the scratch bounds of one run's cursors and that
// every 128-byte-aligned block touched by a worker's cursor or scratch
// belongs to that worker alone.
func checkLanes(t *testing.T, name string, cs []*Chunk, m int32, fp *faultPlan) {
	t.Helper()
	owner := map[uintptr]int{}
	claim := func(w int, what string, addr, size uintptr) {
		for b := addr / 128; b <= (addr+size-1)/128; b++ {
			if o, ok := owner[b]; ok && o != w {
				t.Errorf("%s: worker %d's %s shares 128-byte block %#x with worker %d", name, w, what, b*128, o)
				return
			}
			owner[b] = w
		}
	}
	filter := fp.sched != nil && (fp.nodeFaults || fp.remap)
	for w, c := range cs {
		claim(w, "cursor", uintptr(unsafe.Pointer(c)), unsafe.Sizeof(*c))
		for _, s := range []struct {
			what string
			row  []int32
		}{{"keep", c.keep}, {"mOff", c.mOff}, {"maps", c.maps}} {
			if n := cap(s.row); n > 0 {
				claim(w, s.what, uintptr(unsafe.Pointer(unsafe.SliceData(s.row))), uintptr(n)*unsafe.Sizeof(int32(0)))
			}
		}
		if filter && cap(c.keep) != pieceNodes {
			t.Errorf("%s: worker %d keeps %d nodes, want %d", name, w, cap(c.keep), pieceNodes)
		}
		if !filter && cap(c.keep) != 0 {
			t.Errorf("%s: worker %d has node-list scratch the plan does not need", name, w)
		}
		if fp.remap && (len(c.maps) < 2*int(m) || len(c.mOff) != pieceNodes+1) {
			t.Errorf("%s: worker %d map %d entries (want >= %d), offsets %d (want %d)", name, w, len(c.maps), 2*m, len(c.mOff), pieceNodes+1)
		}
		if !fp.remap && (c.maps != nil || c.mOff != nil) {
			t.Errorf("%s: worker %d has a delivery-order map the plan does not need", name, w)
		}
		if !fp.remap && (len(c.order) != int(m) || m > 0 && c.order[m-1] != m-1) {
			t.Errorf("%s: worker %d identity order has %d entries, want %d", name, w, len(c.order), m)
		}
	}
}
