// Package host is the unified registry of host-graph families: every
// experiment, example and CLI that runs on a parameterisable host
// resolves it here by descriptor instead of hand-building adjacency.
//
// A descriptor is
//
//	name[:arg,arg,...]
//
// where each arg is either positional ("torus:12x12") or a key=value
// pair ("random-regular:d=4,n=512,seed=7"). Composite families embed a
// base descriptor as their first positional argument
// ("lift:cycle:9,l=3"); a nested descriptor may therefore contain ':'
// but not ','. List-valued arguments use '+' ("circulant:24,1+3").
//
// The registry is populated by families.go and shards.go at init
// time; callers may Register additional families (names are unique).
package host

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/digraph"
	"repro/internal/graph"
)

// Host is a resolved host graph. G is always set; D carries an
// L-digraph (port numbering and orientation) when the family
// constructs one — Cayley graphs and lifts come with their canonical
// labelling, plain graph families leave D nil and callers equip ports
// themselves.
type Host struct {
	// Desc is the descriptor the host was built from.
	Desc string
	// G is the underlying undirected simple graph.
	G *graph.Graph
	// D is the family's L-digraph, or nil for plain graph families.
	D *digraph.Digraph
}

// Family is a named, parameterised host-graph family.
type Family struct {
	// Name is the descriptor prefix (unique in the registry).
	Name string
	// Syntax documents the argument grammar, e.g. "torus:<s1>x<s2>[x<s3>...]".
	Syntax string
	// Doc is a one-line description.
	Doc string
	// Build constructs the host from parsed arguments.
	Build func(p *Params) (*Host, error)
	// Source, when set, generates the host implicitly for ParseShard;
	// such a family's Build materialises the same source (shards.go).
	Source func(p *Params) (digraph.Source, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Family{}
)

// Register adds a family to the registry; duplicate names panic.
func Register(f Family) {
	if f.Name == "" || f.Build == nil {
		panic("host: Register needs a name and a Build func")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[f.Name]; dup {
		panic(fmt.Sprintf("host: family %q registered twice", f.Name))
	}
	registry[f.Name] = f
}

// Families returns the registered families sorted by name.
func Families() []Family {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Family, 0, len(registry))
	for _, f := range registry {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Describe renders the registry as a usage listing — appended to
// unknown-descriptor errors so a mistyped -host flag is self-repairing.
func Describe() string {
	var sb strings.Builder
	sb.WriteString("registered host families:\n")
	for _, f := range Families() {
		fmt.Fprintf(&sb, "  %-44s %s\n", f.Syntax, f.Doc)
	}
	return sb.String()
}

// splitDesc splits a descriptor into its family name and arguments.
func splitDesc(desc string) (name, rest string) {
	if i := strings.IndexByte(desc, ':'); i >= 0 {
		return desc[:i], desc[i+1:]
	}
	return desc, ""
}

// Parse resolves a descriptor into a Host.
func Parse(desc string) (*Host, error) {
	name, rest := splitDesc(desc)
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("host: unknown family %q in descriptor %q\n%s", name, desc, Describe())
	}
	p, err := parseParams(rest)
	if err != nil {
		return nil, fmt.Errorf("host: descriptor %q: %w", desc, err)
	}
	h, err := f.Build(p)
	if err != nil {
		return nil, fmt.Errorf("host: %s (syntax: %s): %w", desc, f.Syntax, err)
	}
	if err := p.unusedErr(); err != nil {
		return nil, fmt.Errorf("host: descriptor %q: %w", desc, err)
	}
	h.Desc = desc
	return h, nil
}

// MustParse is Parse that panics on error; for tests and goldens.
func MustParse(desc string) *Host {
	h, err := Parse(desc)
	if err != nil {
		panic(err)
	}
	return h
}

// Params holds the parsed argument list of a descriptor.
type Params struct {
	pos    []string
	kv     map[string]string
	usedKV map[string]bool
	posUse int
	// flat is set when the arguments build a flat host, whose size
	// must fit the int32 CSR substrate; implicit sources need not.
	flat bool
}

func parseParams(rest string) (*Params, error) {
	p := &Params{kv: map[string]string{}, usedKV: map[string]bool{}}
	if rest == "" {
		return p, nil
	}
	for _, item := range strings.Split(rest, ",") {
		if item == "" {
			return nil, fmt.Errorf("empty argument")
		}
		if i := strings.IndexByte(item, '='); i >= 0 {
			k, v := item[:i], item[i+1:]
			if k == "" || v == "" {
				return nil, fmt.Errorf("malformed argument %q", item)
			}
			if _, dup := p.kv[k]; dup {
				return nil, fmt.Errorf("duplicate argument %q", k)
			}
			p.kv[k] = v
		} else {
			p.pos = append(p.pos, item)
		}
	}
	return p, nil
}

// Pos consumes and returns the next positional argument, or "".
func (p *Params) Pos() string {
	if p.posUse >= len(p.pos) {
		return ""
	}
	s := p.pos[p.posUse]
	p.posUse++
	return s
}

// Str returns the named argument, falling back to the next positional
// argument, then to def.
func (p *Params) Str(name, def string) string {
	if v, ok := p.kv[name]; ok {
		p.usedKV[name] = true
		return v
	}
	if s := p.Pos(); s != "" {
		return s
	}
	return def
}

// Int is Str parsed as a decimal integer; parse failures are recorded
// and surfaced by Err.
func (p *Params) Int(name string, def int) (int, error) {
	s := p.Str(name, "")
	if s == "" {
		return def, nil
	}
	x, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("argument %s=%q is not an integer", name, s)
	}
	return x, nil
}

// Int64 is Int with 64-bit range (seeds).
func (p *Params) Int64(name string, def int64) (int64, error) {
	s := p.Str(name, "")
	if s == "" {
		return def, nil
	}
	x, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("argument %s=%q is not an integer", name, s)
	}
	return x, nil
}

// Dims parses an "AxBxC" dimension list from the named or positional
// argument; an empty argument yields def.
func (p *Params) Dims(name string, def []int) ([]int, error) {
	s := p.Str(name, "")
	if s == "" {
		return def, nil
	}
	parts := strings.Split(s, "x")
	dims := make([]int, len(parts))
	for i, part := range parts {
		x, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("argument %s=%q: %q is not an integer", name, s, part)
		}
		dims[i] = x
	}
	return dims, nil
}

// IntList parses a '+'-separated integer list ("1+3+5").
func (p *Params) IntList(name string, def []int) ([]int, error) {
	s := p.Str(name, "")
	if s == "" {
		return def, nil
	}
	parts := strings.Split(s, "+")
	out := make([]int, len(parts))
	for i, part := range parts {
		x, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("argument %s=%q: %q is not an integer", name, s, part)
		}
		out[i] = x
	}
	return out, nil
}

// unusedErr reports arguments no Build consumed — typos like "ssed=7"
// fail loudly instead of being silently ignored.
func (p *Params) unusedErr() error {
	var bad []string
	for k := range p.kv {
		if !p.usedKV[k] {
			bad = append(bad, k)
		}
	}
	if p.posUse < len(p.pos) {
		bad = append(bad, p.pos[p.posUse:]...)
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("unused arguments %v", bad)
}
