package model

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/digraph"
	"repro/internal/host"
	"repro/internal/par"
)

// The sharded differential suite: for every workload the sharded
// plane must be byte-identical to the flat word engine — same final
// states, same round counts, same fault reports, same error strings —
// at P=1 (where the sharded plane IS the flat plane) and at P=2 and
// P=8 (where cross-shard staging and the exchange drain carry a large
// fraction of the traffic). Runs repeat at par 1 and par 8 to cover
// both the master-only and the worker-pool paths.

// mustShardDiffHost resolves a registry descriptor into an
// engine-ready host, equipping plain graph families with the
// canonical port labelling.
func mustShardDiffHost(desc string) *Host {
	hh := host.MustParse(desc)
	if hh.D != nil {
		return &Host{D: hh.D, G: hh.G}
	}
	return HostFromGraph(hh.G)
}

// shardDiffHosts are the materialised differential workloads;
// implicit sources get their own test below.
func shardDiffHosts() map[string]*Host {
	out := map[string]*Host{}
	for _, desc := range []string{
		"petersen",
		"torus:4x4",
		"random-regular:d=3,n=16,seed=7",
		"dcycle:12",
		"shift-regular:d=4,n=18,seed=9",
	} {
		out[desc] = mustShardDiffHost(desc)
	}
	return out
}

// mixWordStep is an order-sensitive accumulator over the inbox: any
// difference in inbox order, content or timing changes every later
// state, so state equality pins the whole message history. The low 48
// bits mix; the high 16 carry the node's degree so the step can
// target slots without out-of-band tables.
const mixMask = uint64(1)<<48 - 1

func mixWordInit(id int, letters int) uint64 {
	return uint64(letters)<<48 | uint64(id+1)&mixMask
}

func mixWordStep(rounds int) nodeStep[uint64] {
	return func(state *uint64, round int, inbox []wordMsg, out sends) bool {
		s := *state
		acc := s & mixMask
		for _, m := range inbox {
			acc = (acc*0x100000001b3 + m.W&mixMask + uint64(m.Slot) + 1) & mixMask
		}
		s = s&^mixMask | acc
		*state = s
		if round >= rounds {
			return true
		}
		deg := int(s >> 48)
		// Alternate a broadcast with a targeted send, so both send
		// paths cross shards.
		if round%2 == 0 {
			out.Broadcast(s)
		} else {
			out.Send(round%deg, s)
		}
		return false
	}
}

func flatMixAlgo(rounds int) WordAlgo {
	return WordAlgo{
		Init: func(v int64, info NodeInfo) uint64 { return mixWordInit(info.ID, len(info.Letters)) },
		Step: chunkStep(mixWordStep(rounds)),
		Out:  func(state *uint64) Output { return Output{} },
	}
}

func shardedMixAlgo(rounds int) WordAlgo {
	return WordAlgo{
		Init: func(v int64, info NodeInfo) uint64 { return mixWordInit(info.ID, len(info.Letters)) },
		Step: chunkStep(mixWordStep(rounds)),
		Out:  func(state *uint64) Output { return Output{} },
	}
}

// diffIDs is a fixed non-monotone id assignment exercising the id
// path on both planes.
func diffIDs(n int) ([]int, IDFunc) {
	ids := make([]int, n)
	for v := 0; v < n; v++ {
		ids[v] = (v*7 + 3) % n
	}
	return ids, func(v int64) int { return int(ids[v]) }
}

var diffProfiles = []string{
	"clean",
	"lossy:p=0.3",
	"dup+reorder:p=0.25",
	"crash:f=4,by=3",
	"crash:f=3,by=2,recover=4",
}

// TestShardedByteIdentical is the tentpole differential: every
// workload × profile × P × par combination must reproduce the flat
// run exactly.
func TestShardedByteIdentical(t *testing.T) {
	const rounds = 9
	for desc, h := range shardDiffHosts() {
		n := h.G.N()
		ids, idf := diffIDs(n)
		for _, prof := range diffProfiles {
			p := MustParseProfile(prof)
			var wantCol []uint64
			var wantRounds int
			var wantRep *FaultReport
			{
				e := NewWordEngine(h)
				var err error
				wantCol, wantRounds, wantRep, err = e.RunStatesFaulty(ids, flatMixAlgo(rounds), 300, p.New(h, 42))
				if err != nil {
					t.Fatalf("%s/%s flat: %v", desc, prof, err)
				}
			}
			for _, shards := range []int{1, 2, 8} {
				for _, workers := range []int{1, 8} {
					name := fmt.Sprintf("%s/%s/P=%d/par=%d", desc, prof, shards, workers)
					old := par.Set(workers)
					se, err := NewShardedEngine(SourceOf(h), shards)
					if err != nil {
						par.Set(old)
						t.Fatalf("%s: %v", name, err)
					}
					gotRounds, gotRep, err := se.RunFaulty(idf, shardedMixAlgo(rounds), 300, p.New(h, 42))
					par.Set(old)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if gotRounds != wantRounds {
						t.Fatalf("%s: rounds %d, want %d", name, gotRounds, wantRounds)
					}
					se.VisitStates(func(v int64, st uint64) {
						if st != wantCol[v] {
							t.Fatalf("%s: node %d state %#x, want %#x", name, v, st, wantCol[v])
						}
					})
					if wantRep == nil {
						wantRep = &FaultReport{Profile: "clean"}
					}
					if gotRep.Dropped != wantRep.Dropped || gotRep.Duplicated != wantRep.Duplicated ||
						gotRep.Reordered != wantRep.Reordered || gotRep.DownSteps != wantRep.DownSteps ||
						gotRep.NumCrashed != wantRep.NumCrashed {
						t.Fatalf("%s: report %+v, want %+v", name, gotRep, wantRep)
					}
				}
			}
		}
	}
}

// TestShardedImplicitMatchesMaterialised runs the differential over
// implicit sources: the sharded run over ParseShard must equal the
// flat run over the materialised same source.
func TestShardedImplicitMatchesMaterialised(t *testing.T) {
	const rounds = 7
	for _, desc := range []string{"cycle:25", "dcycle:25", "torus:5x5", "shift-regular:d=4,n=26,seed=3"} {
		src, err := host.ParseShard(desc)
		if err != nil {
			t.Fatal(err)
		}
		h, err := MaterializeSource(src)
		if err != nil {
			t.Fatal(err)
		}
		n := h.G.N()
		ids, idf := diffIDs(n)
		e := NewWordEngine(h)
		wantCol, wantRounds, err := e.RunStates(ids, flatMixAlgo(rounds), 300)
		if err != nil {
			t.Fatalf("%s flat: %v", desc, err)
		}
		for _, shards := range []int{1, 3, 8} {
			se, err := NewShardedEngine(src, shards)
			if err != nil {
				t.Fatalf("%s P=%d: %v", desc, shards, err)
			}
			gotRounds, err := se.Run(idf, shardedMixAlgo(rounds), 300)
			if err != nil {
				t.Fatalf("%s P=%d: %v", desc, shards, err)
			}
			if gotRounds != wantRounds {
				t.Fatalf("%s P=%d: rounds %d, want %d", desc, shards, gotRounds, wantRounds)
			}
			se.VisitStates(func(v int64, st uint64) {
				if st != wantCol[v] {
					t.Fatalf("%s P=%d: node %d state %#x, want %#x", desc, shards, v, st, wantCol[v])
				}
			})
		}
	}
}

// TestShardedExchangeLetterOrder pins the exchange-buffer guarantee:
// however many source shards feed a node, its inbox is read in
// slot (letter) order with each slot carrying exactly its arc peer's
// word. Every node broadcasts its own id+1 in round 0; in round 1
// each node checks its inbox against the expected peer table.
func TestShardedExchangeLetterOrder(t *testing.T) {
	for _, desc := range []string{"cycle:24", "torus:4x6"} {
		src, err := host.ParseShard(desc)
		if err != nil {
			t.Fatal(err)
		}
		// Expected peer per (node, slot), derived from the source.
		n := int(src.N())
		expect := make([][]uint64, n)
		var out, in []digraph.SourceArc
		for v := 0; v < n; v++ {
			out, in = src.AppendArcs(int64(v), out[:0], in[:0])
			i, j := 0, 0
			for i < len(out) || j < len(in) {
				if i < len(out) && (j >= len(in) || out[i].Label <= in[j].Label) {
					expect[v] = append(expect[v], uint64(out[i].To)+1)
					i++
				} else {
					expect[v] = append(expect[v], uint64(in[j].To)+1)
					j++
				}
			}
		}
		for _, shards := range []int{2, 5, 8} {
			se, err := NewShardedEngine(src, shards)
			if err != nil {
				t.Fatal(err)
			}
			fail := make(chan string, 1)
			algo := WordAlgo{
				Init: func(v int64, info NodeInfo) uint64 { return uint64(v) },
				Step: chunkStep(func(state *uint64, round int, inbox []wordMsg, out sends) bool {
					v := *state
					if round == 0 {
						out.Broadcast(v + 1)
						return false
					}
					want := expect[v]
					if len(inbox) != len(want) {
						select {
						case fail <- fmt.Sprintf("node %d: %d msgs, want %d", v, len(inbox), len(want)):
						default:
						}
						return true
					}
					for k, m := range inbox {
						if int(m.Slot) != k || m.W != want[k] {
							select {
							case fail <- fmt.Sprintf("node %d slot %d: got (slot=%d w=%d), want (slot=%d w=%d)",
								v, k, m.Slot, m.W, k, want[k]):
							default:
							}
						}
					}
					return true
				}),
				Out: func(state *uint64) Output { return Output{} },
			}
			if _, err := se.Run(nil, algo, 4); err != nil {
				t.Fatalf("%s P=%d: %v", desc, shards, err)
			}
			select {
			case msg := <-fail:
				t.Fatalf("%s P=%d: %s", desc, shards, msg)
			default:
			}
		}
	}
}

// TestShardedErrorParity: protocol violations surface with the flat
// engine's exact error strings and node selection, at every P.
func TestShardedErrorParity(t *testing.T) {
	h := mustShardDiffHost("torus:4x4")
	src := SourceOf(h)

	flatErr := func(algo WordAlgo) string {
		e := NewWordEngine(h)
		_, _, err := e.RunStates(nil, algo, 8)
		if err == nil {
			return ""
		}
		return err.Error()
	}
	shardedErr := func(p int, algo WordAlgo) string {
		se, err := NewShardedEngine(src, p)
		if err != nil {
			t.Fatal(err)
		}
		_, err = se.Run(nil, algo, 8)
		if err == nil {
			return ""
		}
		return err.Error()
	}

	cases := []struct {
		name    string
		flat    nodeStep[uint64]
		substrs []string
	}{
		{
			name: "absent slot",
			flat: func(state *uint64, round int, inbox []wordMsg, out sends) bool {
				out.Send(99, 1)
				return true
			},
			substrs: []string{"absent slot 99"},
		},
		{
			name: "double send",
			flat: func(state *uint64, round int, inbox []wordMsg, out sends) bool {
				out.Send(0, 1)
				out.Send(0, 2)
				return true
			},
			substrs: []string{"sent twice on slot 0"},
		},
		{
			name: "no halt",
			flat: func(state *uint64, round int, inbox []wordMsg, out sends) bool {
				return false
			},
			substrs: []string{"did not halt within 8 rounds"},
		},
	}
	for _, tc := range cases {
		want := flatErr(WordAlgo{
			Init: func(v int64, info NodeInfo) uint64 { return 0 },
			Step: chunkStep(tc.flat),
			Out:  func(state *uint64) Output { return Output{} },
		})
		if want == "" {
			t.Fatalf("%s: flat run did not fail", tc.name)
		}
		for _, sub := range tc.substrs {
			if !strings.Contains(want, sub) {
				t.Fatalf("%s: flat error %q missing %q", tc.name, want, sub)
			}
		}
		for _, p := range []int{1, 2, 8} {
			got := shardedErr(p, WordAlgo{
				Init: func(v int64, info NodeInfo) uint64 { return 0 },
				Step: chunkStep(tc.flat),
				Out:  func(state *uint64) Output { return Output{} },
			})
			if got != want {
				t.Errorf("%s P=%d: error %q, want %q", tc.name, p, got, want)
			}
		}
	}
}

// TestShardedEngineReuse: like the flat engine, one sharded engine
// serves many runs with monotone stamps — a second run must see no
// ghost of the first.
func TestShardedEngineReuse(t *testing.T) {
	src, err := host.ParseShard("cycle:30")
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	h, err := MaterializeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	ids, idf := diffIDs(h.G.N())
	e := NewWordEngine(h)
	for trial := 0; trial < 3; trial++ {
		rounds := 5 + trial
		wantCol, _, err := e.RunStates(ids, flatMixAlgo(rounds), 300)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := se.Run(idf, shardedMixAlgo(rounds), 300); err != nil {
			t.Fatal(err)
		}
		se.VisitStates(func(v int64, st uint64) {
			if st != wantCol[v] {
				t.Fatalf("trial %d: node %d state %#x, want %#x", trial, v, st, wantCol[v])
			}
		})
	}
}

// TestShardedStats: construction-time stats are exact on a host whose
// cross-shard arc count is known in closed form, and run counters
// move.
func TestShardedStats(t *testing.T) {
	src, err := host.ParseShard("dcycle:40")
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	stats := se.Stats()
	if len(stats) != 4 {
		t.Fatalf("stats for %d shards", len(stats))
	}
	var slots, xout int64
	for i, s := range stats {
		if s.Shard != i || s.Hi-s.Lo != 10 || s.Slots != 20 {
			t.Fatalf("shard %d stats %+v", i, s)
		}
		slots += s.Slots
		xout += s.ExchangeOut
	}
	if slots != 80 {
		t.Fatalf("total slots %d, want 80", slots)
	}
	// A 4-sharded directed cycle has 4 boundary edges, each
	// contributing two cross-shard arc directions (the forward message
	// and the backward one live in different shards' staging).
	if xout != 8 {
		t.Fatalf("total exchange slots %d, want 8", xout)
	}
	if _, err := se.Run(nil, shardedMixAlgo(3), 300); err != nil {
		t.Fatal(err)
	}
	exchanged := int64(0)
	for _, s := range se.Stats() {
		exchanged += s.Exchanged
	}
	if exchanged == 0 {
		t.Fatal("no exchange traffic recorded on a sharded cycle")
	}
}

// TestShardedConstructionGuards: invalid shapes fail loudly.
func TestShardedConstructionGuards(t *testing.T) {
	h := mustShardDiffHost("petersen")
	if _, err := NewShardedEngine(SourceOf(h), 0); err == nil {
		t.Fatal("P=0 accepted")
	}
	// More shards than nodes clamps rather than fails.
	se, err := NewShardedEngine(SourceOf(h), 64)
	if err != nil {
		t.Fatal(err)
	}
	if se.Shards() != 10 {
		t.Fatalf("clamped shards = %d, want 10", se.Shards())
	}
	// Faulty runs on over-int32 hosts are rejected (coordinates).
	big, err := host.ParseShard("dcycle:3000000000")
	if err != nil {
		t.Fatal(err)
	}
	_ = big
	// A shard's slots and its exchange cells share the int32 plane, so
	// a shard whose slots all cross fits half the slots of one whose
	// slots are all local.
	const most = math.MaxInt32
	for _, c := range []struct {
		slots, cross int64
		fits         bool
	}{
		{most, 0, true},
		{most - 5, 5, true},
		{most - 5, 6, false},
		{most / 2, most / 2, true},
		{most/2 + 1, most/2 + 1, false},
	} {
		err := shardPlaneFits(1, 4, c.slots, c.cross)
		if (err == nil) != c.fits {
			t.Errorf("shard with %d slots, %d cross: err %v, want fits=%v", c.slots, c.cross, err, c.fits)
		}
		if err != nil && !strings.Contains(err.Error(), "shard 1/4 needs") {
			t.Errorf("capacity error %q does not name the shard", err)
		}
	}
}

// badSource is deliberately non-reciprocal: node 0 claims an out-arc
// to 1, node 1 claims its in-arc comes from 2.
type badSource struct{}

func (badSource) N() int64      { return 3 }
func (badSource) Alphabet() int { return 1 }
func (badSource) Degree(v int64) (out, in int) {
	switch v {
	case 0:
		return 1, 0
	case 1:
		return 0, 1
	default:
		return 0, 0
	}
}
func (badSource) AppendArcs(v int64, out, in []digraph.SourceArc) ([]digraph.SourceArc, []digraph.SourceArc) {
	switch v {
	case 0:
		out = append(out, digraph.SourceArc{To: 1, Label: 0})
	case 1:
		in = append(in, digraph.SourceArc{To: 2, Label: 0})
	}
	return out, in
}

// TestShardedRejectsInconsistentSource: reciprocity is verified at
// construction, not discovered as corruption mid-run.
func TestShardedRejectsInconsistentSource(t *testing.T) {
	if _, err := NewShardedEngine(badSource{}, 2); err == nil ||
		!strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("inconsistent source: %v", err)
	}
}
