package model

import "unsafe"

// Worker lanes. A round-engine worker writes its chunk cursor (the
// current node, its halt and fault counters) once per node it steps,
// and on faulty runs its piece scratch. The allocator puts small
// objects of one size class back to back, so two workers' cursors or
// scratch arrays allocated one after the other would often share a
// cache line, and every such write would pull the line away from the
// other core (false sharing). newLanes allocates a run's worker state
// so that no two workers' mutable bytes come closer than laneGuard
// bytes.

// laneGuard is the minimum distance in bytes between the mutable bytes
// of two workers: two 64-byte cache lines, because the adjacent-line
// prefetcher moves lines in pairs.
const laneGuard = 128

// pieceNodes bounds the nodes of one prepared piece of a faulty step,
// and so the node-list scratch (Chunk.keep); pieceMaps is the least
// size of the delivery-order map of a profile that duplicates or
// reorders (Chunk.maps), which also holds twice the widest slot row.
const (
	pieceNodes = 1024
	pieceMaps  = 8192
)

// guarded is one worker's cursor between two guards, so that its bytes
// stay laneGuard bytes away from its neighbours in an array of them
// and from whatever the heap puts before and after the array.
type guarded struct {
	_ [laneGuard]byte
	c Chunk
	_ [laneGuard]byte
}

// newLanes allocates a run's n worker cursors on a plane whose widest
// slot row is m, under the fault plan fp. The cursors come from one
// array of guarded cells. They share one read-only identity order of m
// entries. A faulty run whose plan filters nodes or remaps deliveries
// gives each worker a node-list scratch of pieceNodes entries, and a
// remapping one also the delivery-order map, of max(2m, pieceMaps)
// entries, and its offsets; the scratch rows come from one backing
// array with at least laneGuard bytes before, between and after them.
// init prepares each cursor.
func newLanes(n int, m int32, fp *faultPlan, init func(*Chunk)) []*Chunk {
	cells := make([]guarded, n)
	cs := make([]*Chunk, n)
	ident := make([]int32, m)
	for i := range ident {
		ident[i] = int32(i)
	}
	keep, maps := 0, 0
	if fp.sched != nil && (fp.nodeFaults || fp.remap) {
		keep = pieceNodes
	}
	if fp.remap {
		maps = max(2*int(m), pieceMaps)
	}
	size := int(unsafe.Sizeof(int32(0)))
	pad := (laneGuard + size - 1) / size
	per := keep + maps
	if maps > 0 {
		per += keep + 1
	}
	var buf []int32
	if per > 0 {
		buf = make([]int32, pad+n*(per+pad))
	}
	for w := range cells {
		c := &cells[w].c
		c.order, c.remap = ident, fp.remap
		if per > 0 {
			lo := pad + w*(per+pad)
			row := buf[lo : lo+per : lo+per]
			c.keep = row[:keep:keep]
			if maps > 0 {
				c.mOff = row[keep : 2*keep+1 : 2*keep+1]
				c.maps = row[2*keep+1:]
				c.order = c.maps
			}
		}
		init(c)
		cs[w] = c
	}
	return cs
}

// sumFaults returns base plus every worker's fault counters: a run's
// FaultReport counts, or a checkpoint's at a barrier.
func sumFaults(base FaultReport, cs []*Chunk) FaultReport {
	for _, c := range cs {
		base.Dropped += c.dropped
		base.Duplicated += c.duped
		base.Reordered += c.reordered
		base.DownSteps += c.downSteps
	}
	return base
}

// takeHalts returns how many nodes the workers halted since the last
// call and resets the counts. The flat engine's barrier calls it every
// round: without node faults, 0 means the worklist is unchanged.
func takeHalts(cs []*Chunk) int64 {
	n := int64(0)
	for _, c := range cs {
		n += c.halts
		c.halts = 0
	}
	return n
}
