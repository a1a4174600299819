package model

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/par"
	"repro/internal/view"
)

// The halting-pattern workload behind TestHaltPatternDifferential.
// Node id v halts at round haltRound(v, n): node 0 and the low half's
// ids 3k at round 0, the low half's other ids at rounds 3 and 7, the
// high half's at rounds 2, 5 and 9. Rounds 1, 4, 6 and 8 see no halt
// at all, each between rounds that do, and on a sharded plane rounds
// 2 and 5 halt nodes only in high shards, 3 and 7 only in low ones —
// so a clean barrier both skips and runs worklist compaction, per
// shard as well as for the flat list. Every live node's state word
// takes a step-dependent mix of its inbox each round and its
// neighbours hear it, so a halted node stepped again, or a live node
// dropped from the worklist, changes the states or the error.
const (
	haltLast   = 9
	haltRounds = haltLast + 1
	haltMask   = uint64(1)<<48 - 1
)

func haltRound(id, n int) int {
	r := [3]int{0, 3, 7}[id%3]
	if id >= n/2 {
		r += 2
	}
	return r
}

// haltInit packs a node's state word: the mix accumulator in the low
// 48 bits, the halting round in the next 8 and the degree in the top 8.
func haltInit(id, deg, n int) uint64 {
	return uint64(deg)<<56 | uint64(haltRound(id, n))<<48 | uint64(id+1)
}

// haltFold folds one round's inbox (the wrapping sum of its words and
// its length) into the state word and reports whether the node halts.
func haltFold(s uint64, round int, sum uint64, k int) (uint64, bool) {
	acc := (s&haltMask*0x100000001b3 + sum + uint64(k)*uint64(round+1) + 1) & haltMask
	s = s&^haltMask | acc
	return s, round >= int(s>>48&0xff)
}

// haltWordStep is the workload's step on the word planes: even rounds
// broadcast, odd rounds send on slot round mod degree.
func haltWordStep(state *uint64, round int, inbox []WordMsg, out WordSender) bool {
	sum := uint64(0)
	for _, m := range inbox {
		sum += m.W
	}
	s, done := haltFold(*state, round, sum, len(inbox))
	*state = s
	if done {
		return true
	}
	if round%2 == 0 {
		out.BroadcastWord(s)
	} else {
		out.SendWord(round%int(s>>56), s)
	}
	return false
}

// haltAnyState is the specification twin's state: the word and the
// node's letters in slot (letter) order, so a send on slot i is a send
// on letters[i].
type haltAnyState struct {
	w       uint64
	letters []view.Letter
}

func haltAnyAlgo(n int) RoundAlgo {
	return RoundAlgo{
		Init: func(info NodeInfo) any {
			ls := slices.Clone(info.Letters)
			slices.SortFunc(ls, func(a, b view.Letter) int {
				switch {
				case a.Less(b):
					return -1
				case b.Less(a):
					return 1
				}
				return 0
			})
			return haltAnyState{w: haltInit(info.ID, len(ls), n), letters: ls}
		},
		Step: func(state any, round int, inbox []Msg) (any, []Msg, bool) {
			st := state.(haltAnyState)
			sum := uint64(0)
			for _, m := range inbox {
				sum += m.Data.(uint64)
			}
			s, done := haltFold(st.w, round, sum, len(inbox))
			st.w = s
			if done {
				return st, nil, true
			}
			if round%2 == 0 {
				msgs := make([]Msg, len(st.letters))
				for i, l := range st.letters {
					msgs[i] = Msg{L: l, Data: s}
				}
				return st, msgs, false
			}
			return st, []Msg{{L: st.letters[round%int(s>>56)], Data: s}}, false
		},
		Out: func(any) Output { return Output{} },
	}
}

func haltTypedAlgo(n int) WordAlgo {
	return WordAlgo{
		Init: func(v int, info NodeInfo) uint64 { return haltInit(info.ID, len(info.Letters), n) },
		Step: func(state *uint64, round int, inbox []WordMsg, out *Outbox) bool {
			return haltWordStep(state, round, inbox, out)
		},
		Out: func(*uint64) Output { return Output{} },
	}
}

func haltShardedAlgo(n int) ShardedWordAlgo {
	return ShardedWordAlgo{
		Init: func(v int64, info NodeInfo) uint64 { return haltInit(info.ID, len(info.Letters), n) },
		Step: haltWordStep,
		Out:  func(*uint64) Output { return Output{} },
	}
}

// haltResult is one run reduced to what the engines must agree on.
type haltResult struct {
	words  []uint64
	rounds int
	rep    FaultReport
	err    string
}

func (r haltResult) String() string {
	return fmt.Sprintf("rounds %d err %q report %+v words %x", r.rounds, r.err, r.rep, r.words)
}

func haltOutcome(words []uint64, rounds int, rep *FaultReport, err error) haltResult {
	if err != nil {
		return haltResult{err: err.Error()}
	}
	r := haltResult{words: words, rounds: rounds}
	if rep != nil {
		r.rep = *rep
		r.rep.Crashed = nil
	}
	return r
}

// TestHaltPatternDifferential pins the barrier's compaction skip: the
// halting-pattern workload gives equal rounds, states, fault reports
// and error strings on the flat engine and the sharded engine at
// P = 1, 2 and 8, clean and under lossy:p=0.05, at par 1 and 8 — both
// with rounds to spare and with a round budget that stops the run
// while nodes are still live. The reference is the specification loop
// on clean runs and the sharded engine at P=1 on faulty ones.
func TestHaltPatternDifferential(t *testing.T) {
	for desc, h := range shardDiffHosts() {
		n := h.G.N()
		ids := make([]int, n)
		for v := range ids {
			ids[v] = v
		}
		idf := func(v int64) int { return int(v) }
		for _, budget := range []int{haltRounds, 6} {
			for _, prof := range []string{"clean", "lossy:p=0.05"} {
				var sched Schedule
				if prof != "clean" {
					sched = MustParseProfile(prof).New(h, 7)
				}
				var want haltResult
				if sched == nil {
					states, rounds, err := RunRoundsStates(h, ids, haltAnyAlgo(n), budget)
					want = haltOutcome(anyWords(states), rounds, nil, err)
					if err == nil {
						want.rep.Profile = "clean"
					}
				} else {
					want = haltSharded(t, h, 1, idf, n, budget, sched)
				}
				if budget == haltRounds && (want.err != "" || want.rounds != haltRounds) {
					t.Fatalf("%s/%s: reference run %v, want %d rounds", desc, prof, want, haltRounds)
				}
				if budget < haltRounds && want.err == "" {
					t.Fatalf("%s/%s budget %d: the run halted", desc, prof, budget)
				}
				for _, workers := range []int{1, 8} {
					old := par.Set(workers)
					runs := map[string]haltResult{}
					col, rounds, rep, err := NewWordEngine(h).RunStatesFaulty(ids, haltTypedAlgo(n), budget, sched)
					runs["flat"] = haltOutcome(col, rounds, rep, err)
					for _, p := range []int{1, 2, 8} {
						runs[fmt.Sprintf("sharded P=%d", p)] = haltSharded(t, h, p, idf, n, budget, sched)
					}
					par.Set(old)
					for name, got := range runs {
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s/%s budget %d par %d %s:\n got %v\nwant %v", desc, prof, budget, workers, name, got, want)
						}
					}
				}
			}
		}
	}
}

// haltSharded runs the workload on the sharded engine at P=p.
func haltSharded(t *testing.T, h *Host, p int, idf IDFunc, n, budget int, sched Schedule) haltResult {
	t.Helper()
	se, err := NewShardedEngine(SourceOf(h), p)
	if err != nil {
		t.Fatal(err)
	}
	rounds, rep, err := se.RunFaulty(idf, haltShardedAlgo(n), budget, sched)
	var words []uint64
	if err == nil {
		words = make([]uint64, n)
		se.VisitStates(func(v int64, st uint64) { words[v] = st })
	}
	return haltOutcome(words, rounds, rep, err)
}

func anyWords(states []any) []uint64 {
	if states == nil {
		return nil
	}
	words := make([]uint64, len(states))
	for v, st := range states {
		words[v] = st.(haltAnyState).w
	}
	return words
}
