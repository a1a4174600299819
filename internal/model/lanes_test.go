package model

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// TestWorkerLanesIsolated pins the worker-lane layout rather than its
// timing: for 1, 2, 3 and 8 workers, on both engines, clean and
// faulty, no 128-byte-aligned block of memory holds mutable bytes of
// two different workers (an outbox or any of its scratch arrays), and
// the scratch keeps its sized bounds — at least maxSlots entries on
// clean paths and 2·maxSlots on faulty ones. The hosts' widest slot
// rows are 2 (cycle) and 4 (torus), so the scratch arrays are 32 to
// 256 bytes: small enough that unguarded ones share blocks.
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
		e := NewEngine(hc.h)
		se, err := NewShardedEngine(SourceOf(hc.h), 2)
		if err != nil {
			t.Fatal(err)
		}
		if e.maxSlots != hc.maxSlots || se.maxSlots != hc.maxSlots {
			t.Fatalf("%s: maxSlots flat %d sharded %d, want %d", hc.name, e.maxSlots, se.maxSlots, hc.maxSlots)
		}
		for _, n := range []int{1, 2, 3, 8} {
			for _, faulty := range []bool{false, true} {
				obs, lanes := newLanes(n, e.maxSlots, faulty, func(ob *Outbox) *lane { return &ob.lane })
				name := fmt.Sprintf("%s flat faulty=%v workers=%d", hc.name, faulty, n)
				checkLanes(t, name, lanes, hc.maxSlots, faulty, func(w int) (uintptr, uintptr) {
					return uintptr(unsafe.Pointer(obs[w])), unsafe.Sizeof(*obs[w])
				})
				sobs, slanes := newLanes(n, se.maxSlots, faulty, func(ob *ShardOutbox) *lane { return &ob.lane })
				name = fmt.Sprintf("%s sharded faulty=%v workers=%d", hc.name, faulty, n)
				checkLanes(t, name, slanes, hc.maxSlots, faulty, func(w int) (uintptr, uintptr) {
					return uintptr(unsafe.Pointer(sobs[w])), unsafe.Sizeof(*sobs[w])
				})
			}
		}
	}
}

// checkLanes asserts the scratch bounds of one run's lanes and that
// every 128-byte-aligned block touched by a worker's outbox (address
// and size from outbox) or scratch belongs to that worker alone.
func checkLanes(t *testing.T, name string, lanes []*lane, m int32, faulty bool, outbox func(w int) (uintptr, uintptr)) {
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
	for w, l := range lanes {
		addr, size := outbox(w)
		claim(w, "outbox", addr, size)
		if c := cap(l.dense); c > 0 {
			claim(w, "dense", uintptr(unsafe.Pointer(unsafe.SliceData(l.dense))), uintptr(c)*unsafe.Sizeof(WordMsg{}))
		}
		want := int(m)
		if faulty {
			want *= 2
		}
		if len(l.dense) < want {
			t.Errorf("%s: worker %d dense has %d entries, want >= %d", name, w, len(l.dense), want)
		}
	}
}
