package model

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the fault-injection scheduler layer of the round
// engines: a Schedule interposed between a node's sends and inbox
// compaction that can drop, duplicate and adversarially reorder
// messages per (arc, round), crash nodes permanently (crash-stop) or
// transiently (crash-recover), and churn nodes in and out of the
// active set.
//
// Every decision is a pure function of a splittable seeded RNG and
// the (round, slot/node) coordinates — never of a shared mutable
// stream — so a faulty execution is deterministic and reproducible
// from (host, algorithm, seed, profile descriptor) at any worker
// count: the reproducer of a failing property test is just that
// tuple. Profiles are parsed from a descriptor grammar mirroring the
// host registry's ("lossy:p=0.05", "crash:f=8,by=16,recover=4", ...);
// an unknown descriptor lists the grammar.

// Fate is the delivery fate of one message on the plane.
type Fate uint8

const (
	// Deliver delivers the message exactly once (the clean semantics).
	Deliver Fate = iota
	// Drop loses the message.
	Drop
	// Duplicate delivers the message twice.
	Duplicate
)

// NodeState is a node's liveness during one round.
type NodeState uint8

const (
	// StateUp: the node steps and sends normally.
	StateUp NodeState = iota
	// StateDown: the node is transiently out this round (crash-recover
	// window or churned out); it neither steps nor sends, and messages
	// addressed to it expire with the round's stamp.
	StateDown
	// StateCrashed: the node is permanently out from this round on; the
	// engine removes it from the worklist and reports it crashed.
	StateCrashed
)

// Schedule decides the faults of one execution. Implementations must
// be pure functions of their seed and the query coordinates — safe
// for concurrent use and independent of call order — so that faulty
// runs stay byte-identical across worker counts and reruns. A nil
// Schedule is the clean profile: the engine takes its unmodified hot
// path. Because the answers are pure, an engine may skip a query whose
// answer the profile fixes (the flat engine's faultPlan does so for
// the canned profiles); a Schedule of any other type is asked every
// query.
type Schedule interface {
	// String returns the profile descriptor the schedule was built
	// from; it appears in error strings and FaultReport.Profile.
	String() string
	// Fate decides the fate of the message delivered in round r on
	// plane slot s (a slot is owned by its receiving node, so targeted
	// profiles can weight by receiver).
	Fate(round int, slot int32) Fate
	// State reports node v's liveness in round r. Once State returns
	// StateCrashed for (r, v) it must do so for every r' >= r.
	State(round int, v int32) NodeState
	// Reorder returns a nonzero permutation seed to adversarially
	// shuffle v's round-r inbox, or 0 to keep letter-order delivery.
	Reorder(round int, v int32) uint64
}

// FaultReport summarises the faults one run actually experienced.
type FaultReport struct {
	// Profile is the schedule's descriptor ("clean" for a nil schedule).
	Profile string
	// Dropped, Duplicated and Reordered count message-plane events
	// (Reordered counts permuted inboxes).
	Dropped, Duplicated, Reordered int64
	// DownSteps counts node-rounds skipped while transiently down.
	DownSteps int64
	// NumCrashed is the number of permanently crashed nodes.
	NumCrashed int
	// Crashed marks the crashed nodes (nil for a clean run).
	Crashed []bool
}

// CrashedNode reports whether v crashed during the run; false for
// clean runs and nil reports.
func (r *FaultReport) CrashedNode(v int) bool {
	return r != nil && r.Crashed != nil && r.Crashed[v]
}

// Survivors returns the number of non-crashed nodes among n.
func (r *FaultReport) Survivors(n int) int {
	if r == nil || r.Crashed == nil {
		return n
	}
	return n - r.NumCrashed
}

// Profile is a parsed fault profile: a schedule family bound to its
// arguments but not yet to a host or seed, so one parse serves many
// runs.
type Profile struct {
	// Desc is the descriptor the profile was parsed from.
	Desc string
	// New binds the profile to a host and seed. It returns nil for the
	// clean profile — the engine's unmodified synchronous semantics.
	New func(h *Host, seed int64) Schedule
}

// mix is the splittable RNG of the fault layer: a splitmix64-style
// hash of a (sub-)seed and two coordinates. Decisions are drawn by
// coordinates, not from a shared stream, so they are independent of
// worker scheduling and of how many other decisions were drawn.
func mix(seed, a, b uint64) uint64 {
	x := seed ^ a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// split derives an independent sub-stream of a profile seed; tags keep
// fate, liveness, duplication and reordering decisions uncorrelated.
func split(seed uint64, tag uint64) uint64 { return mix(seed, tag, 0x9E3779B97F4A7C15) }

const (
	tagFate = 1 + iota
	tagDup
	tagState
	tagPerm
	tagCrash
)

// thr53 converts a probability to the 53-bit threshold below compares
// hashes against.
func thr53(p float64) uint64 { return uint64(math.Round(p * (1 << 53))) }

func below(h, thr uint64) bool { return thr != 0 && (h>>11) < thr }

// uniformDrop reports whether the delivery of the given round and
// plane slot is dropped at threshold thr: the one drop decision behind
// Fate and the engines' planned uniform drops (Chunk.prepare).
func uniformDrop(seed, thr uint64, round int, slot int32) bool {
	return below(mix(seed, uint64(round), uint64(slot)), thr)
}

// schedule is the one implementation behind every canned profile.
type schedule struct {
	desc string
	// Split sub-seeds (see split).
	fateSeed, dupSeed, stateSeed, permSeed uint64

	// Message-plane faults. dropAll is the uniform drop threshold;
	// dropPer, when set, overrides it per delivery slot (targeted
	// profiles). ramp scales the drop threshold up in later rounds —
	// the adversary leaning on the nodes still active late in the run.
	dropAll uint64
	dropPer []uint64
	dupThr  uint64
	shuffle bool
	ramp    bool

	// Node liveness. crashAt[v] is v's crash round (-1 = never);
	// downFor > 0 turns a crash into a crash-recover window of that
	// many rounds. churnThr/churnW take each node out independently
	// for whole windows of churnW rounds.
	crashAt  []int32
	downFor  int32
	churnThr uint64
	churnW   int32
}

func (s *schedule) String() string { return s.desc }

func (s *schedule) Fate(round int, slot int32) Fate {
	thr := s.dropAll
	if s.dropPer != nil {
		thr = s.dropPer[slot]
	}
	if s.ramp && thr != 0 {
		// Double the drop rate linearly over the first 8 rounds, then
		// hold: late (most recently active) traffic suffers the most.
		r := round
		if r > 8 {
			r = 8
		}
		thr += thr * uint64(r) / 8
	}
	if uniformDrop(s.fateSeed, thr, round, slot) {
		return Drop
	}
	if s.dupThr != 0 && below(mix(s.dupSeed, uint64(round), uint64(slot)), s.dupThr) {
		return Duplicate
	}
	return Deliver
}

func (s *schedule) State(round int, v int32) NodeState {
	if s.crashAt != nil {
		// The recover window's end is compared in int64: a crash round
		// and a window each up to MaxInt32 would overflow int32.
		if c := int64(s.crashAt[v]); c >= 0 && int64(round) >= c {
			if s.downFor == 0 {
				return StateCrashed
			}
			if int64(round) < c+int64(s.downFor) {
				return StateDown
			}
		}
	}
	if s.churnThr != 0 {
		w := int32(round) / s.churnW
		if below(mix(s.stateSeed, uint64(w), uint64(v)), s.churnThr) {
			return StateDown
		}
	}
	return StateUp
}

func (s *schedule) Reorder(round int, v int32) uint64 {
	if !s.shuffle {
		return 0
	}
	h := mix(s.permSeed, uint64(round), uint64(v))
	if h == 0 {
		h = 1
	}
	return h
}

// faultPlan is what a run's schedule can produce, derived once per
// run so that both engines' chunk preparation (Chunk.prepare) and
// barriers skip every query whose answer the profile fixes.
type faultPlan struct {
	// sched is the run's schedule (nil: clean).
	sched Schedule
	// nodeFaults: State may answer something other than StateUp. Without
	// node faults State is never asked and the barrier compacts by the
	// clean rule.
	nodeFaults bool
	// reorder: Reorder may answer a nonzero seed.
	reorder bool
	// remap: Fate may duplicate a delivery or Reorder may permute an
	// inbox, so deliveries go through the workers' delivery-order maps.
	remap bool
	// uniform: every fate is Deliver or a drop decided by
	// uniformDrop(fateSeed, dropThr, ...), so Fate is never asked.
	uniform           bool
	fateSeed, dropThr uint64
}

// planFaults derives the fault plan of a run under sched. A nil
// schedule plans a clean run; a Schedule other than the canned
// profiles' is asked every query.
func planFaults(sched Schedule) faultPlan {
	s, ok := sched.(*schedule)
	if !ok {
		full := sched != nil
		return faultPlan{sched: sched, nodeFaults: full, reorder: full, remap: full}
	}
	return faultPlan{
		sched:      sched,
		nodeFaults: s.crashAt != nil || s.churnThr != 0,
		reorder:    s.shuffle,
		remap:      s.dupThr != 0 || s.shuffle,
		uniform:    s.dropPer == nil && !s.ramp && s.dupThr == 0,
		fateSeed:   s.fateSeed,
		dropThr:    s.dropAll,
	}
}

// newSchedule seeds the shared sub-streams.
func newSchedule(desc string, seed int64) *schedule {
	u := uint64(seed)
	return &schedule{
		desc:      desc,
		fateSeed:  split(u, tagFate),
		dupSeed:   split(u, tagDup),
		stateSeed: split(u, tagState),
		permSeed:  split(u, tagPerm),
	}
}

// planeSlots recomputes the engine's slot layout boundaries: slot rows
// follow h.D's incident (arc, direction) pairs exactly as
// NewEngine lays them out, so receiver-targeted thresholds line up
// with the plane.
func planeSlots(h *Host) []int32 {
	n := h.G.N()
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(len(h.D.Out(v))+len(h.D.In(v)))
	}
	return off
}

// crashRounds assigns crash rounds to the given nodes: each crashes at
// a seeded round in [0, by).
func crashRounds(n int, victims []int32, seed uint64, by int) []int32 {
	at := make([]int32, n)
	for v := range at {
		at[v] = -1
	}
	if by < 1 {
		by = 1
	}
	for _, v := range victims {
		at[v] = int32(mix(seed, uint64(v), 7) % uint64(by))
	}
	return at
}

// seededVictims picks f distinct nodes by hash rank (ties impossible:
// ranks are (hash, v) pairs).
func seededVictims(n, f int, seed uint64) []int32 {
	if f > n {
		f = n
	}
	idx := make([]int32, n)
	for v := range idx {
		idx[v] = int32(v)
	}
	sort.Slice(idx, func(i, j int) bool {
		hi, hj := mix(seed, uint64(idx[i]), 3), mix(seed, uint64(idx[j]), 3)
		if hi != hj {
			return hi < hj
		}
		return idx[i] < idx[j]
	})
	return idx[:f]
}

// degreeVictims picks the f highest-degree nodes (ties to the smaller
// index) — the adversary's crash targets.
func degreeVictims(h *Host, f int) []int32 {
	n := h.G.N()
	if f > n {
		f = n
	}
	idx := make([]int32, n)
	for v := range idx {
		idx[v] = int32(v)
	}
	sort.Slice(idx, func(i, j int) bool {
		di, dj := h.G.Degree(int(idx[i])), h.G.Degree(int(idx[j]))
		if di != dj {
			return di > dj
		}
		return idx[i] < idx[j]
	})
	return idx[:f]
}

// profileFamily is one entry of the profile registry.
type profileFamily struct {
	name, syntax, doc string
	build             func(p *fparams) (func(h *Host, seed int64) Schedule, error)
}

// profileFamilies returns the canned profiles in listing order.
func profileFamilies() []profileFamily {
	return []profileFamily{
		{
			name: "clean", syntax: "clean",
			doc: "no faults: the engine's exact synchronous semantics",
			build: func(p *fparams) (func(*Host, int64) Schedule, error) {
				return func(*Host, int64) Schedule { return nil }, nil
			},
		},
		{
			name: "lossy", syntax: "lossy[:p=<prob>]",
			doc: "each delivery independently dropped with probability p (default 0.05)",
			build: func(p *fparams) (func(*Host, int64) Schedule, error) {
				pr, err := p.prob("p", 0.05)
				if err != nil {
					return nil, err
				}
				return func(h *Host, seed int64) Schedule {
					s := newSchedule(p.desc, seed)
					s.dropAll = thr53(pr)
					return s
				}, nil
			},
		},
		{
			name: "dup+reorder", syntax: "dup+reorder[:p=<prob>]",
			doc: "each delivery duplicated with probability p (default 0.25); every inbox adversarially permuted",
			build: func(p *fparams) (func(*Host, int64) Schedule, error) {
				pr, err := p.prob("p", 0.25)
				if err != nil {
					return nil, err
				}
				return func(h *Host, seed int64) Schedule {
					s := newSchedule(p.desc, seed)
					s.dupThr = thr53(pr)
					s.shuffle = true
					return s
				}, nil
			},
		},
		{
			name: "crash", syntax: "crash:f=<count>[,by=<round>][,recover=<rounds>]",
			doc: "f seeded nodes fail at rounds in [0,by) (default by=8): crash-stop, or down for <recover> rounds then back",
			build: func(p *fparams) (func(*Host, int64) Schedule, error) {
				f, err := p.count("f", -1)
				if err != nil {
					return nil, err
				}
				if f < 0 {
					return nil, fmt.Errorf("crash needs f=<count>")
				}
				by, err := p.rounds("by", 8)
				if err != nil {
					return nil, err
				}
				rec, err := p.rounds("recover", 0)
				if err != nil {
					return nil, err
				}
				return func(h *Host, seed int64) Schedule {
					s := newSchedule(p.desc, seed)
					crashSeed := split(uint64(seed), tagCrash)
					s.crashAt = crashRounds(h.G.N(), seededVictims(h.G.N(), f, crashSeed), crashSeed, by)
					s.downFor = int32(rec)
					return s
				}, nil
			},
		},
		{
			name: "churn", syntax: "churn[:p=<prob>][,window=<rounds>]",
			doc: "each node independently out for each whole window of rounds with probability p (defaults p=0.1, window=4)",
			build: func(p *fparams) (func(*Host, int64) Schedule, error) {
				pr, err := p.prob("p", 0.1)
				if err != nil {
					return nil, err
				}
				w, err := p.rounds("window", 4)
				if err != nil {
					return nil, err
				}
				if w < 1 {
					return nil, fmt.Errorf("window must be >= 1")
				}
				return func(h *Host, seed int64) Schedule {
					s := newSchedule(p.desc, seed)
					s.churnThr = thr53(pr)
					s.churnW = int32(w)
					return s
				}, nil
			},
		},
		{
			name: "adversarial", syntax: "adversarial[:p=<prob>][,f=<count>][,by=<round>]",
			doc: "targeted: drops ramp up to 4p into the highest-degree receivers and double in later rounds; the f highest-degree nodes crash-stop at rounds in [0,by)",
			build: func(p *fparams) (func(*Host, int64) Schedule, error) {
				pr, err := p.prob("p", 0.05)
				if err != nil {
					return nil, err
				}
				f, err := p.count("f", 0)
				if err != nil {
					return nil, err
				}
				by, err := p.rounds("by", 8)
				if err != nil {
					return nil, err
				}
				return func(h *Host, seed int64) Schedule {
					s := newSchedule(p.desc, seed)
					s.ramp = true
					// Per-slot thresholds: a message into receiver v is
					// dropped with probability between p and 4p, scaled
					// by v's degree relative to the maximum.
					off := planeSlots(h)
					maxDeg := h.G.MaxDegree()
					if maxDeg == 0 {
						maxDeg = 1
					}
					per := make([]uint64, off[h.G.N()])
					for v := 0; v < h.G.N(); v++ {
						pv := pr * (1 + 3*float64(h.G.Degree(v))/float64(maxDeg))
						if pv > 1 {
							pv = 1
						}
						t := thr53(pv)
						for sl := off[v]; sl < off[v+1]; sl++ {
							per[sl] = t
						}
					}
					s.dropPer = per
					if f > 0 {
						s.crashAt = crashRounds(h.G.N(), degreeVictims(h, f), split(uint64(seed), tagCrash), by)
					}
					return s
				}, nil
			},
		},
	}
}

// DescribeProfiles renders the profile grammar as a usage listing —
// appended to unknown-descriptor errors so a mistyped -faults flag is
// self-repairing, exactly like the host registry's Describe.
func DescribeProfiles() string {
	var sb strings.Builder
	sb.WriteString("fault profiles:\n")
	for _, f := range profileFamilies() {
		fmt.Fprintf(&sb, "  %-52s %s\n", f.syntax, f.doc)
	}
	return sb.String()
}

// ParseProfile resolves a fault-profile descriptor. The grammar is the
// host registry's: name[:arg,arg,...] with key=value arguments;
// unknown families and unused arguments fail loudly with the listing.
func ParseProfile(desc string) (*Profile, error) {
	name, rest := desc, ""
	if i := strings.IndexByte(desc, ':'); i >= 0 {
		name, rest = desc[:i], desc[i+1:]
	}
	var fam *profileFamily
	for _, f := range profileFamilies() {
		if f.name == name {
			fam = &f
			break
		}
	}
	if fam == nil {
		return nil, fmt.Errorf("model: unknown fault profile %q in descriptor %q\n%s", name, desc, DescribeProfiles())
	}
	p, err := parseFParams(desc, rest)
	if err != nil {
		return nil, fmt.Errorf("model: fault descriptor %q: %w", desc, err)
	}
	build, err := fam.build(p)
	if err != nil {
		return nil, fmt.Errorf("model: fault profile %s (syntax: %s): %w", desc, fam.syntax, err)
	}
	if err := p.unusedErr(); err != nil {
		return nil, fmt.Errorf("model: fault descriptor %q: %w", desc, err)
	}
	return &Profile{Desc: desc, New: build}, nil
}

// MustParseProfile is ParseProfile that panics on error; for tests.
func MustParseProfile(desc string) *Profile {
	p, err := ParseProfile(desc)
	if err != nil {
		panic(err)
	}
	return p
}

// fparams parses a profile argument list (key=value pairs only — the
// profiles have no positional arguments).
type fparams struct {
	desc string
	kv   map[string]string
	used map[string]bool
}

func parseFParams(desc, rest string) (*fparams, error) {
	p := &fparams{desc: desc, kv: map[string]string{}, used: map[string]bool{}}
	if rest == "" {
		return p, nil
	}
	for _, item := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(item, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("malformed argument %q (want key=value)", item)
		}
		if _, dup := p.kv[k]; dup {
			return nil, fmt.Errorf("duplicate argument %q", k)
		}
		p.kv[k] = v
	}
	return p, nil
}

// prob reads a probability argument in [0, 1] (NaN is not one).
func (p *fparams) prob(name string, def float64) (float64, error) {
	s, ok := p.kv[name]
	if !ok {
		return def, nil
	}
	p.used[name] = true
	x, err := strconv.ParseFloat(s, 64)
	if err != nil || !(x >= 0 && x <= 1) {
		return 0, fmt.Errorf("argument %s=%q is not a probability in [0,1]", name, s)
	}
	return x, nil
}

// count reads a non-negative integer argument.
func (p *fparams) count(name string, def int) (int, error) {
	s, ok := p.kv[name]
	if !ok {
		return def, nil
	}
	p.used[name] = true
	x, err := strconv.Atoi(s)
	if err != nil || x < 0 {
		return 0, fmt.Errorf("argument %s=%q is not a non-negative integer", name, s)
	}
	return x, nil
}

// rounds reads a round-count argument: a count that fits the int32
// round and crash-round columns of a schedule.
func (p *fparams) rounds(name string, def int) (int, error) {
	x, err := p.count(name, def)
	if err == nil && x > math.MaxInt32 {
		return 0, fmt.Errorf("argument %s=%d exceeds the round bound %d", name, x, math.MaxInt32)
	}
	return x, err
}

func (p *fparams) unusedErr() error {
	var bad []string
	for k := range p.kv {
		if !p.used[k] {
			bad = append(bad, k)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("unused arguments %v", bad)
}

// shuffleOrder applies the seeded Fisher–Yates permutation — the
// adversarial reordering — in place to a node's delivery order.
func shuffleOrder(ms []int32, seed uint64) {
	x := seed
	for i := len(ms) - 1; i > 0; i-- {
		x = mix(x, uint64(i), 0)
		ms[i], ms[x%uint64(i+1)] = ms[x%uint64(i+1)], ms[i]
	}
}
