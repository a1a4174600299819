package model

import "fmt"

// WordAlgo is a round algorithm as both round engines run it, the flat
// WordEngine and the sharded ShardedEngine: one value, unchanged on
// either plane. A node's whole state is one uint64 word, payloads are
// words, and the step walks a whole chunk of the worklist with the
// Chunk cursor, mutating states in place. The contract, on both
// planes:
//
//   - Init is called sequentially in increasing global node order (on
//     the sharded plane across all shards), so randomness drawn in it
//     stays deterministic. v is the node's global index. info.Letters
//     names the node's arcs in the letter-sorted slot order of the
//     message plane — local slot i is named by info.Letters[i], and
//     sends address slots, not letters — and is valid only during the
//     call: Init keeps what it needs in the word, or in a column of its
//     own.
//   - Step steps every node of the chunk c: for c.Next(), the node's
//     state is states[c.Node], its inbox is read in place with
//     for slot, w := range c.Inbox, it sends with c.Send (one slot, at
//     most one message per slot per round) or c.Broadcast (the whole
//     slot row, unchecked overwrite), and it halts with c.Halt. states
//     is the flat engine's column or one shard's, so c.Node is a
//     global index on the flat plane and a shard-local one on the
//     sharded plane.
//   - Out extracts a node's output from its final state.
type WordAlgo struct {
	Init func(v int64, info NodeInfo) uint64
	Step func(c *Chunk, states []uint64)
	Out  func(state *uint64) Output
}

// Chunk is the cursor a round algorithm's step walks: one worker's
// view of a chunk of the worklist in one round, on either plane. The
// engine hands the step a chunk and the states column; the step loops
//
//	for c.Next() {
//		s := &states[c.Node]
//		for slot, w := range c.Inbox {
//			...
//		}
//		c.Broadcast(...) // or c.Send(slot, w), or c.Halt()
//	}
//
// The inbox is read in place from the node's own slot row of the arena
// read this round, in slot (letter) order; sends write the arena of
// the next round (on the sharded plane, the staging cells at its tail
// for slots whose peer lives in another shard). Next, Inbox, Send,
// Broadcast and Halt are small enough to be inlined into the step, so
// a round costs no call per node and none per message
// (tools/inlinecheck.sh checks that for every production step).
//
// On a faulty run the engine prepares each chunk before the step sees
// it (prepare): down and crashed nodes leave the chunk's node list,
// dropped deliveries are marked dead in the receiver's row, and when
// the profile duplicates or reorders deliveries each node's delivery
// order is written to a per-worker map. The cursor the step walks is
// the same on clean and faulty runs.
type Chunk struct {
	// Node is the node the cursor stands on, as an index into the
	// states column the step was handed (shard-local on the sharded
	// plane).
	Node int32
	// Round is the round being stepped.
	Round int

	list []int32 // the nodes to step
	k    int     // position in list of the node after Node

	// The current node's slot row, off[Node]:off[Node+1], and its row
	// positions in delivery order, order[olo:ohi].
	lo, hi   int32
	olo, ohi int32

	// The plane's rows this round: slot offsets, routing, the arena
	// read (live cells stamped want) and the arena written (stamped
	// sendWant; on the sharded plane with its staging cells).
	off, dest      []int32
	cur, next      []cell
	want, sendWant int64
	halted         []bool

	// order is where delivery orders come from: the identity order 0,
	// 1, ..., the plane's widest row minus one (shared, read-only), or
	// when the profile duplicates or reorders (remap) the map maps, in
	// which node k of a prepared piece is delivered in the order
	// maps[mOff[k]:mOff[k+1]]. On faulty runs keep is the scratch for
	// the node list of one prepared piece.
	order []int32
	remap bool
	keep  []int32
	maps  []int32
	mOff  []int32

	// failed marks a bad send in the step running, by failNode on
	// failSlot (the first one; sendFailed reports it).
	failed   bool
	failNode int32
	failSlot int

	// halts counts the nodes this worker halted since the barrier last
	// read it; the fault counters feed the run's FaultReport.
	halts     int64
	dropped   int64
	duped     int64
	reordered int64
	downSteps int64

	// Error context: where bad sends are recorded, the first global
	// node id of the plane (a shard's lo) and the profile descriptor
	// ("" on clean runs).
	errs  *runErr
	gbase int64
	prof  string
}

// Next moves the cursor to the chunk's next node and reports whether
// there is one.
func (c *Chunk) Next() bool {
	if c.k == len(c.list) {
		return false
	}
	v := c.list[c.k]
	lo, hi := c.off[v], c.off[v+1]
	c.Node, c.lo, c.hi = v, lo, hi
	if c.remap {
		c.olo, c.ohi = c.mOff[c.k], c.mOff[c.k+1]
	} else {
		c.olo, c.ohi = 0, hi-lo
	}
	c.k++
	return true
}

// Inbox yields the current node's deliveries of this round, each as
// its receiver-local slot (the letter-sorted index: NodeInfo.Letters
// names the arc) and its payload word, in slot order unless the fault
// schedule reorders them. Use it as a range function:
// for slot, w := range c.Inbox.
func (c *Chunk) Inbox(yield func(slot int, w uint64) bool) {
	row, want := c.cur[c.lo:c.hi], c.want
	for _, i := range c.order[c.olo:c.ohi] {
		if x := row[i]; x.stamp == want && !yield(int(i), x.w) {
			return
		}
	}
}

// Send emits the payload word w on the current node's local slot, to
// be delivered next round. A send on an absent slot, or a second send
// on one slot in one round, is an error the run reports; a step whose
// node sent badly is reported once it returns, with its first bad
// send.
func (c *Chunk) Send(slot int, w uint64) {
	if uint(slot) < uint(c.hi-c.lo) {
		if p := &c.next[c.dest[c.lo+int32(slot)]]; p.stamp != c.sendWant {
			*p = cell{w: w, stamp: c.sendWant}
			return
		}
	}
	if !c.failed {
		c.failed, c.failNode, c.failSlot = true, c.Node, slot
	}
}

// Broadcast emits w on every slot of the current node: one pass over
// its slot row, with no per-slot check (it overwrites anything sent on
// those slots this round; a second Broadcast simply wins).
func (c *Chunk) Broadcast(w uint64) {
	next, x := c.next, cell{w: w, stamp: c.sendWant}
	for _, d := range c.dest[c.lo:c.hi] {
		next[d] = x
	}
}

// Halt stops the current node: it leaves the worklist at the barrier
// and keeps the state it has.
func (c *Chunk) Halt() {
	c.halted[c.Node] = true
	c.halts++
}

// sendFailed reports the first bad send of a step as a run error,
// with the node's global id: a send on an absent slot, or a second
// send on one slot.
func (c *Chunk) sendFailed() {
	v, slot := c.failNode, c.failSlot
	c.failed = false
	width := c.off[v+1] - c.off[v]
	var msg string
	if slot >= 0 && slot < int(width) {
		msg = fmt.Sprintf("node %d sent twice on slot %d", c.gbase+int64(v), slot)
	} else {
		msg = fmt.Sprintf("node %d sent on absent slot %d (node has %d)", c.gbase+int64(v), slot, width)
	}
	var err error
	if c.prof != "" {
		err = fmt.Errorf("model: round %d [%s]: %s", c.Round, c.prof, msg)
	} else {
		err = fmt.Errorf("model: round %d: %s", c.Round, msg)
	}
	c.errs.record(v, err)
}

// enter points the chunk at a round that reads arena cur, whose live
// cells are stamped want, and writes arena next at stamp want+1.
func (c *Chunk) enter(round int, cur, next []cell, want int64) {
	c.Round, c.cur, c.next, c.want, c.sendWant = round, cur, next, want, want+1
}

// stepChunk steps the nodes of list with the algorithm's step and the
// states column col: on a clean run in one call, on a faulty run
// piece by piece, each piece prepared by prepare. gs and gv are the
// plane's first global slot and node (0 on the flat plane), the
// coordinates the schedule is asked at. The first bad send, by the
// smallest failing node since pieces keep list order, is reported.
func stepChunk(step func(*Chunk, []uint64), c *Chunk, list []int32, col []uint64, fp *faultPlan, gs, gv int64) {
	if fp.sched == nil {
		c.list, c.k = list, 0
		step(c, col)
	}
	for fp.sched != nil && len(list) > 0 {
		list = c.prepare(list, fp, gs, gv)
		step(c, col)
	}
	if c.failed {
		c.sendFailed()
	}
}

// prepare readies the next piece of list for a faulty step and returns
// the rest of list. For each node in list order it asks the schedule,
// where the plan says the profile can answer anything but the clean
// answer, State, then Fate for each live delivery in slot order, then
// Reorder. Down and crashed nodes leave the piece; a dropped delivery
// is marked dead in the receiver's own row, which only this worker
// reads this round; under a profile that duplicates or reorders, each
// node's delivery order goes to the worker's map. A piece holds at
// most pieceNodes nodes of list, fewer when the map scratch fills.
func (c *Chunk) prepare(list []int32, fp *faultPlan, gs, gv int64) []int32 {
	nodeFaults, remap, uniform := fp.nodeFaults, fp.remap, fp.uniform
	filter := nodeFaults || remap
	sched, round, off, cur, want := fp.sched, c.Round, c.off, c.cur, c.want
	keep, maps, m := c.keep[:0], c.maps, int32(0)
	var dropped, duped, reordered, down int64
	i := 0
	for i < len(list) && i < pieceNodes {
		// list[i:j] is prepared as one row: one node when the plan asks
		// per-node queries, else a run of consecutive nodes, whose slot
		// rows are consecutive too (node by node, a lossy Cole–Vishkin
		// round cost about 30% more; DESIGN §7).
		v, j := list[i], i+1
		for !filter && j < min(len(list), pieceNodes) && list[j] == list[j-1]+1 {
			j++
		}
		lo, hi := off[v], off[list[j-1]+1]
		if remap && int(m+2*(hi-lo)) > len(maps) {
			break
		}
		i = j
		if nodeFaults {
			switch sched.State(round, int32(gv+int64(v))) {
			case StateDown:
				down++
				continue
			case StateCrashed:
				continue
			}
		}
		row, start, slot := cur[lo:hi], m, int32(gs+int64(lo))
		if uniform && fp.dropThr != 0 {
			dropped += dropUniform(row, want, fp.fateSeed, fp.dropThr, round, slot)
		}
		for k := 0; k < len(row) && (!uniform || remap); k++ {
			if row[k].stamp != want {
				continue
			}
			fate := Deliver
			if !uniform {
				fate = sched.Fate(round, slot+int32(k))
			}
			if fate == Drop {
				dropped++
				row[k].stamp = 0
				continue
			}
			if remap {
				if fate == Duplicate {
					duped++
					maps[m] = int32(k)
					m++
				}
				maps[m] = int32(k)
				m++
			}
		}
		if remap {
			if fp.reorder {
				if seed := sched.Reorder(round, int32(gv+int64(v))); seed != 0 && m-start > 1 {
					shuffleOrder(maps[start:m], seed)
					reordered++
				}
			}
			c.mOff[len(keep)+1] = m
		}
		if filter {
			keep = append(keep, v)
		}
	}
	c.dropped += dropped
	c.duped += duped
	c.reordered += reordered
	c.downSteps += down
	c.list, c.k = list[:i], 0
	if filter {
		c.list = keep
	}
	return list[i:]
}

// dropUniform marks dead the live cells of row (stamped want) whose
// delivery uniformDrop drops at seed and threshold thr, row starting
// at plane slot first, and returns how many it marked. It decides a
// drop before it loads the cell, so the cells it keeps are left for
// the step to load.
func dropUniform(row []cell, want int64, seed, thr uint64, round int, first int32) int64 {
	n := int64(0)
	for k := range row {
		if uniformDrop(seed, thr, round, first+int32(k)) && row[k].stamp == want {
			row[k].stamp = 0
			n++
		}
	}
	return n
}
