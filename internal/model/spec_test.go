package model

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/par"
	"repro/internal/view"
)

// This file is the faulty specification loop of the word engines and
// the adapter that runs its per-node test steps on them. A test
// workload is written once, as a per-node step, and runs both on the
// specification loop, the reference, and on the flat and sharded
// engines.

// wordMsg is one delivery a per-node test step receives: the payload
// word and the receiver-local slot it arrived on.
type wordMsg struct {
	W    uint64
	Slot int32
}

// sends is the send surface of a per-node test step: the
// specification loop's specOut, and the engines' Chunk.
type sends interface {
	Send(slot int, w uint64)
	Broadcast(w uint64)
}

// nodeStep is one node's transition in one round: it reads the inbox
// (receiver letter order, or the schedule's permutation of it), sends,
// and reports whether the node halts.
type nodeStep[S any] func(s *S, round int, inbox []wordMsg, out sends) bool

// chunkStep adapts a per-node step to the engines' chunk step: for
// each node of the chunk it copies the inbox out of the cursor and
// steps the node, with the cursor as its send surface.
func chunkStep[S any](step nodeStep[S]) func(*Chunk, []S) {
	return func(c *Chunk, states []S) {
		var inbox []wordMsg
		for c.Next() {
			inbox = inbox[:0]
			for slot, w := range c.Inbox {
				inbox = append(inbox, wordMsg{W: w, Slot: int32(slot)})
			}
			if step(&states[c.Node], c.Round, inbox, c) {
				c.Halt()
			}
		}
	}
}

// specOut is the send surface of the specification loop: sends on
// the sender's global slot row land in the receivers' rows of the
// next round.
type specOut struct {
	sp    *spec
	v     int
	round int
}

func (o *specOut) Send(slot int, w uint64) {
	sp, v := o.sp, o.v
	width := sp.off[v+1] - sp.off[v]
	if slot < 0 || slot >= width {
		sp.fail(v, o.round, fmt.Sprintf("node %d sent on absent slot %d (node has %d)", v, slot, width))
		return
	}
	d := &sp.nxt[sp.peer[sp.off[v]+slot]]
	if d.ok {
		sp.fail(v, o.round, fmt.Sprintf("node %d sent twice on slot %d", v, slot))
		return
	}
	*d = delivery{w: w, ok: true}
}

func (o *specOut) Broadcast(w uint64) {
	sp := o.sp
	for s := sp.off[o.v]; s < sp.off[o.v+1]; s++ {
		sp.nxt[sp.peer[s]] = delivery{w: w, ok: true}
	}
}

// delivery is one global slot of the specification loop's plane.
type delivery struct {
	w  uint64
	ok bool
}

// spec is the specification loop's plane: node v's slots are the
// global slots off[v]:off[v+1] in its letter order, and a send on
// global slot s lands in global slot peer[s] of the receiver.
type spec struct {
	off, peer []int
	cur, nxt  []delivery
	prof      string
	errs      []error
}

func (sp *spec) fail(v, round int, msg string) {
	if sp.errs[v] != nil {
		return
	}
	if sp.prof != "" {
		sp.errs[v] = fmt.Errorf("model: round %d [%s]: %s", round, sp.prof, msg)
	} else {
		sp.errs[v] = fmt.Errorf("model: round %d: %s", round, msg)
	}
}

// specRun is the specification loop of the word engines, clean or
// under a fault schedule: sequential, one node at a time in increasing
// node order, every query asked. It asks the schedule in the order
// DESIGN §8 documents: State(0, v) for every node before round 0; in
// each round, for each node still live, State, then Fate for each
// delivery in slot order, then Reorder; after the round, State of the
// next round for each node still live. It shares no code with the
// engines but the schedule, and returns the final states, the rounds
// run and the fault report (nil when sched is nil).
func specRun[S any](h *Host, ids []int, init func(v int, info NodeInfo) S, step nodeStep[S], maxRounds int, sched Schedule) ([]S, int, *FaultReport, error) {
	n := h.G.N()
	if ids != nil && len(ids) != n {
		return nil, 0, nil, fmt.Errorf("model: RunRounds: %d ids for %d nodes", len(ids), n)
	}
	sp := &spec{off: make([]int, n+1), errs: make([]error, n)}
	if sched != nil {
		sp.prof = sched.String()
	}
	rows := make([][]view.Letter, n)
	for v := range rows {
		rows[v] = lettersOf(h, v)
		slices.SortFunc(rows[v], func(a, b view.Letter) int {
			switch {
			case a.Less(b):
				return -1
			case b.Less(a):
				return 1
			}
			return 0
		})
		sp.off[v+1] = sp.off[v] + len(rows[v])
	}
	sp.peer = make([]int, sp.off[n])
	for v, row := range rows {
		for i, l := range row {
			u, _ := resolveLetter(h, v, l)
			sp.peer[sp.off[v]+i] = sp.off[u] + slices.Index(rows[u], l.Inv())
		}
	}
	sp.cur, sp.nxt = make([]delivery, sp.off[n]), make([]delivery, sp.off[n])
	states := make([]S, n)
	for v := range states {
		info := NodeInfo{ID: -1, Letters: rows[v]}
		if ids != nil {
			info.ID = ids[v]
		}
		states[v] = init(v, info)
	}
	halted, crashed := make([]bool, n), make([]bool, n)
	var rep FaultReport
	if sched != nil {
		for v := range crashed {
			crashed[v] = sched.State(0, int32(v)) == StateCrashed
		}
	}
	live := func(v int) bool { return !halted[v] && !crashed[v] }
	round := 0
	for ; round < maxRounds; round++ {
		anyLive := false
		for v := 0; v < n; v++ {
			anyLive = anyLive || live(v)
		}
		if !anyLive {
			break
		}
		clear(sp.nxt)
		for v := 0; v < n; v++ {
			if !live(v) {
				continue
			}
			if sched != nil {
				switch sched.State(round, int32(v)) {
				case StateDown:
					rep.DownSteps++
					continue
				case StateCrashed:
					continue
				}
			}
			var inbox []wordMsg
			for i := 0; i < sp.off[v+1]-sp.off[v]; i++ {
				d := sp.cur[sp.off[v]+i]
				if !d.ok {
					continue
				}
				m := wordMsg{W: d.w, Slot: int32(i)}
				fate := Deliver
				if sched != nil {
					fate = sched.Fate(round, int32(sp.off[v]+i))
				}
				switch fate {
				case Drop:
					rep.Dropped++
					continue
				case Duplicate:
					rep.Duplicated++
					inbox = append(inbox, m)
				}
				inbox = append(inbox, m)
			}
			if sched != nil {
				if seed := sched.Reorder(round, int32(v)); seed != 0 && len(inbox) > 1 {
					specShuffle(inbox, seed)
					rep.Reordered++
				}
			}
			if step(&states[v], round, inbox, &specOut{sp: sp, v: v, round: round}) {
				halted[v] = true
			}
		}
		for _, err := range sp.errs {
			if err != nil {
				return nil, 0, nil, err
			}
		}
		if sched != nil {
			for v := 0; v < n; v++ {
				if live(v) && sched.State(round+1, int32(v)) == StateCrashed {
					crashed[v] = true
				}
			}
		}
		sp.cur, sp.nxt = sp.nxt, sp.cur
	}
	for v := 0; v < n; v++ {
		if live(v) {
			if sp.prof != "" {
				return nil, 0, nil, fmt.Errorf("model: node %d did not halt within %d rounds [%s]", v, maxRounds, sp.prof)
			}
			return nil, 0, nil, fmt.Errorf("model: node %d did not halt within %d rounds", v, maxRounds)
		}
	}
	if sched == nil {
		return states, round, nil, nil
	}
	rep.Profile, rep.Crashed = sp.prof, crashed
	for _, c := range crashed {
		if c {
			rep.NumCrashed++
		}
	}
	return states, round, &rep, nil
}

// specShuffle is the adversarial reorder written out again: the
// seeded Fisher–Yates permutation the engines apply.
func specShuffle(ms []wordMsg, seed uint64) {
	x := seed
	for i := len(ms) - 1; i > 0; i-- {
		x = mix(x, uint64(i), 0)
		j := x % uint64(i+1)
		ms[i], ms[j] = ms[j], ms[i]
	}
}

// specWorkload is a per-node test workload on uint64 states: its
// Init, its step and the round budget its runs get.
type specWorkload struct {
	init   func(id, deg, n int) uint64
	step   nodeStep[uint64]
	rounds int
}

// specWorkloads are the workloads TestSpecLoopPinsEngines runs: the
// halting pattern (checked sends and broadcasts, halts spread over the
// rounds), the order-sensitive mix and the staggered flood.
func specWorkloads() map[string]specWorkload {
	return map[string]specWorkload{
		"halts": {haltInit, haltWordStep, 300},
		"mix":   {func(id, deg, n int) uint64 { return mixWordInit(id, deg) }, mixWordStep(9), 300},
		"flood": {func(id, deg, n int) uint64 { return floodWordInit(id) }, floodWordStep, 300},
	}
}

// specProfiles has one profile of every family, and a reorder-only
// one (dup+reorder:p=0), whose plan has uniform fates but remaps.
var specProfiles = []string{
	"clean",
	"lossy:p=0.2",
	"dup+reorder",
	"dup+reorder:p=0",
	"crash:f=4,by=3",
	"crash:f=3,by=2,recover=4",
	"churn:p=0.3,window=2",
	"adversarial:p=0.1,f=3",
}

// specResult is one run reduced to what the engines and the
// specification loop must agree on.
type specResult struct {
	Words  []uint64
	Rounds int
	Rep    *FaultReport
	Err    string
}

func specOutcome(words []uint64, rounds int, rep *FaultReport, err error) specResult {
	if err != nil {
		return specResult{Err: err.Error()}
	}
	return specResult{Words: words, Rounds: rounds, Rep: rep}
}

// specFlat runs a workload on the flat engine.
func specFlat(h *Host, ids []int, w specWorkload, sched Schedule) specResult {
	n := h.G.N()
	algo := WordAlgo{
		Init: func(v int, info NodeInfo) uint64 { return w.init(info.ID, len(info.Letters), n) },
		Step: chunkStep(w.step),
		Out:  func(*uint64) Output { return Output{} },
	}
	col, rounds, rep, err := NewWordEngine(h).runStates(ids, algo, w.rounds, sched)
	return specOutcome(slices.Clone(col), rounds, rep, err)
}

// specSharded runs a workload on the sharded engine at P=p.
func specSharded(h *Host, ids []int, p int, w specWorkload, sched Schedule) (specResult, error) {
	n := h.G.N()
	se, err := NewShardedEngine(SourceOf(h), p)
	if err != nil {
		return specResult{}, err
	}
	algo := ShardedWordAlgo{
		Init: func(v int64, info NodeInfo) uint64 { return w.init(info.ID, len(info.Letters), n) },
		Step: chunkStep(w.step),
		Out:  func(*uint64) Output { return Output{} },
	}
	rounds, rep, err := se.run(func(v int64) int { return ids[v] }, algo, w.rounds, sched)
	if err != nil {
		return specOutcome(nil, 0, nil, err), nil
	}
	words := make([]uint64, n)
	se.VisitStates(func(v int64, st uint64) { words[v] = st })
	return specOutcome(words, rounds, rep, nil), nil
}

// specReference runs a workload on the specification loop.
func specReference(h *Host, ids []int, w specWorkload, sched Schedule) specResult {
	n := h.G.N()
	init := func(v int, info NodeInfo) uint64 { return w.init(info.ID, len(info.Letters), n) }
	states, rounds, rep, err := specRun(h, ids, init, w.step, w.rounds, sched)
	return specOutcome(states, rounds, rep, err)
}

// TestSpecLoopPinsEngines pins the flat engine at par 1, 3 and 8 and
// the sharded engine at P = 1, 2 and 8 against the specification loop:
// equal states, rounds, fault reports and errors for every workload,
// on every differential host, clean and under one profile of every
// family, and on a host whose chunks are prepared in several pieces.
func TestSpecLoopPinsEngines(t *testing.T) {
	type specHost struct {
		h        *Host
		profiles []string
	}
	hosts := map[string]specHost{}
	for desc, h := range shardDiffHosts() {
		hosts[desc] = specHost{h, specProfiles}
	}
	// More nodes per chunk or shard than one prepared piece lists
	// (pieceNodes), at a degree where duplicating every delivery fills
	// the delivery-order map (pieceMaps) first: pieces end on the node
	// list in round 0, whose inboxes are empty, and on the map after.
	const big = "shift-regular:d=8,n=4400,seed=3"
	hosts[big] = specHost{mustShardDiffHost(big), []string{"dup+reorder:p=1"}}
	for desc, sh := range hosts {
		h := sh.h
		ids, _ := diffIDs(h.G.N())
		for name, w := range specWorkloads() {
			for _, prof := range sh.profiles {
				sched := MustParseProfile(prof).New(h, 42)
				want := specReference(h, ids, w, sched)
				if want.Err != "" {
					t.Fatalf("%s/%s/%s: specification loop: %s", desc, name, prof, want.Err)
				}
				for _, workers := range []int{1, 3, 8} {
					old := par.Set(workers)
					runs := map[string]specResult{"flat": specFlat(h, ids, w, sched)}
					for _, p := range []int{1, 2, 8} {
						got, err := specSharded(h, ids, p, w, sched)
						if err != nil {
							par.Set(old)
							t.Fatal(err)
						}
						runs[fmt.Sprintf("sharded P=%d", p)] = got
					}
					par.Set(old)
					for engine, got := range runs {
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s/%s/%s par %d %s: %+v, want %+v (reproducer: seed=42)", desc, name, prof, workers, engine, got, want)
						}
					}
				}
			}
		}
	}
}
