package model

import "unsafe"

// Worker lanes. A round-engine worker writes its outbox (the current
// node, and on faulty runs its fault counters) and its inbox-compaction
// scratch once per node it steps. The allocator puts small objects of
// one size class back to back, so two workers' outboxes or scratch
// arrays allocated one after the other would often share a cache line,
// and every such write would pull the line away from the other core
// (false sharing). newLanes allocates a run's worker state so that no
// two workers' mutable bytes come closer than laneGuard bytes.

// laneGuard is the minimum distance in bytes between the mutable bytes
// of two workers: two 64-byte cache lines, because the adjacent-line
// prefetcher moves lines in pairs.
const laneGuard = 128

// lane is the per-worker run state both outboxes embed: the fault
// counters summed into the run's FaultReport (sumFaults), the count of
// nodes seen halting on flat-engine runs (takeHalts) and the
// inbox-compaction scratch attached by newLanes.
type lane struct {
	dropped   int64
	duped     int64
	reordered int64
	downSteps int64
	halts     int64

	// dense is the worker's inbox-compaction scratch.
	dense []WordMsg
}

// guarded is one worker's outbox between two guards, so that its bytes
// stay laneGuard bytes away from its neighbours in an array of them
// and from whatever the heap puts before and after the array.
type guarded[O any] struct {
	_  [laneGuard]byte
	ob O
	_  [laneGuard]byte
}

// newLanes allocates a run's n worker outboxes and their inbox scratch
// on a plane whose widest slot row is m: m words on a clean run, and
// 2m on a faulty one, so that an inbox in which every delivery is
// duplicated still fits. The outboxes come from one array of guarded
// cells and the scratch rows from one backing array, with at least
// laneGuard bytes before, between and after the rows. init prepares
// one outbox and returns the lane embedded in it. newLanes returns the
// outboxes and their lanes in the same order.
func newLanes[O any](n int, m int32, faulty bool, init func(*O) *lane) ([]*O, []*lane) {
	cells := make([]guarded[O], n)
	obs, lanes := make([]*O, n), make([]*lane, n)
	for w := range cells {
		obs[w] = &cells[w].ob
		lanes[w] = init(obs[w])
	}
	k := int(m)
	if faulty {
		k *= 2
	}
	size := int(unsafe.Sizeof(WordMsg{}))
	pad := (laneGuard + size - 1) / size
	buf := make([]WordMsg, pad+n*(k+pad))
	for w, l := range lanes {
		lo := pad + w*(k+pad)
		l.dense = buf[lo : lo+k : lo+k]
	}
	return obs, lanes
}

// sumFaults returns base plus every lane's fault counters: a run's
// FaultReport counts, or a checkpoint's at a barrier.
func sumFaults(base FaultReport, lanes []*lane) FaultReport {
	for _, l := range lanes {
		base.Dropped += l.dropped
		base.Duplicated += l.duped
		base.Reordered += l.reordered
		base.DownSteps += l.downSteps
	}
	return base
}

// takeHalts returns how many nodes the lanes' workers saw halt since
// the last call and resets the counts. The flat engine's barrier calls
// it every round: without node faults, 0 means the worklist is
// unchanged.
func takeHalts(lanes []*lane) int64 {
	n := int64(0)
	for _, l := range lanes {
		n += l.halts
		l.halts = 0
	}
	return n
}
