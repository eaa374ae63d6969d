// Package nsa assembles stopwatch automata into networks (NSA) and
// interprets them: shared bounded integer variables, binary/broadcast/urgent
// channels, committed locations, action and delay transitions, and
// synchronization-event traces.
//
// The deterministic simulator (Engine) and the exhaustive model checker in
// package mc evaluate guards through the same compiled form of the network
// (compile.go), and the naive successor computation (EnabledTransitions /
// Fire / DelayBound / Advance) is the reference semantics both are checked
// against, so the paper's Table 1 comparison measures exploration strategy,
// not implementation differences.
package nsa

import (
	"fmt"

	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/sa"
)

// VarDecl declares a global integer variable.
type VarDecl struct {
	Name      string
	Init      int64
	Min, Max  int64 // inclusive domain bounds, used when HasBounds
	HasBounds bool
}

// ClockDecl declares a global clock. All clocks start at zero and advance at
// rate 1 except where stopped by the owning automaton's current location.
type ClockDecl struct {
	Name string
}

// ChanDecl declares a channel.
type ChanDecl struct {
	Name      string
	Broadcast bool
	Urgent    bool
}

// Network is an assembled network of stopwatch automata.
type Network struct {
	Automata []*sa.Automaton
	Vars     []VarDecl
	Clocks   []ClockDecl
	Chans    []ChanDecl

	consts map[string]int64
	scope  expr.Scope

	// idx is the static dependency index (see index.go), built by
	// Builder.Build and shared by all compiled runtimes over this network.
	idx *netIndex

	// cnet is the flat compiled execution form (see compile.go), built by
	// Builder.Build and shared by all compiled runtimes and enumerators
	// over this network.
	cnet *compiledNet
}

// Builder allocates the global variable/clock/channel index spaces and
// collects automata. Automata must be constructed against the indices the
// builder hands out.
type Builder struct {
	net    Network
	vars   map[string]int
	clocks map[string]int
	chans  map[string]int
	consts map[string]int64
	arrays map[string]int // name -> length, for Scope lookups of arrays
	err    error
}

// NewBuilder returns an empty network builder.
func NewBuilder() *Builder {
	return &Builder{
		vars:   make(map[string]int),
		clocks: make(map[string]int),
		chans:  make(map[string]int),
		consts: make(map[string]int64),
		arrays: make(map[string]int),
	}
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

func (b *Builder) checkName(name string) {
	if name == "" {
		b.fail(fmt.Errorf("nsa: empty declaration name"))
		return
	}
	_, v := b.vars[name]
	_, c := b.clocks[name]
	_, ch := b.chans[name]
	_, k := b.consts[name]
	if v || c || ch || k {
		b.fail(fmt.Errorf("nsa: duplicate declaration %q", name))
	}
}

// Var declares a scalar variable with initial value init and no bounds.
func (b *Builder) Var(name string, init int64) sa.VarID {
	return b.declareVar(VarDecl{Name: name, Init: init})
}

// BoundedVar declares a scalar variable with an inclusive domain.
func (b *Builder) BoundedVar(name string, init, min, max int64) sa.VarID {
	if init < min || init > max {
		b.fail(fmt.Errorf("nsa: variable %q: initial value %d outside [%d,%d]", name, init, min, max))
	}
	return b.declareVar(VarDecl{Name: name, Init: init, Min: min, Max: max, HasBounds: true})
}

func (b *Builder) declareVar(d VarDecl) sa.VarID {
	b.checkName(d.Name)
	b.vars[d.Name] = len(b.net.Vars)
	b.net.Vars = append(b.net.Vars, d)
	return sa.VarID(len(b.net.Vars) - 1)
}

// VarArray declares n consecutive variables name[0..n-1] with initial value
// init each, returning the index of element 0.
func (b *Builder) VarArray(name string, n int, init int64) sa.VarID {
	b.checkName(name)
	if n <= 0 {
		b.fail(fmt.Errorf("nsa: array %q: non-positive length %d", name, n))
		n = 1
	}
	base := len(b.net.Vars)
	b.vars[name] = base
	b.arrays[name] = n
	for i := 0; i < n; i++ {
		b.net.Vars = append(b.net.Vars, VarDecl{Name: fmt.Sprintf("%s[%d]", name, i), Init: init})
	}
	return sa.VarID(base)
}

// Clock declares a clock.
func (b *Builder) Clock(name string) sa.ClockID {
	b.checkName(name)
	b.clocks[name] = len(b.net.Clocks)
	b.net.Clocks = append(b.net.Clocks, ClockDecl{Name: name})
	return sa.ClockID(len(b.net.Clocks) - 1)
}

// Chan declares a binary channel.
func (b *Builder) Chan(name string) sa.ChanID { return b.declareChan(ChanDecl{Name: name}) }

// BroadcastChan declares a broadcast channel.
func (b *Builder) BroadcastChan(name string) sa.ChanID {
	return b.declareChan(ChanDecl{Name: name, Broadcast: true})
}

// UrgentChan declares an urgent binary channel: no delay may elapse while a
// synchronization on it is enabled.
func (b *Builder) UrgentChan(name string) sa.ChanID {
	return b.declareChan(ChanDecl{Name: name, Urgent: true})
}

// UrgentBroadcastChan declares an urgent broadcast channel.
func (b *Builder) UrgentBroadcastChan(name string) sa.ChanID {
	return b.declareChan(ChanDecl{Name: name, Broadcast: true, Urgent: true})
}

func (b *Builder) declareChan(d ChanDecl) sa.ChanID {
	b.checkName(d.Name)
	b.chans[d.Name] = len(b.net.Chans)
	b.net.Chans = append(b.net.Chans, d)
	return sa.ChanID(len(b.net.Chans) - 1)
}

// Const declares a named integer constant visible to Scope.
func (b *Builder) Const(name string, val int64) {
	b.checkName(name)
	b.consts[name] = val
}

// Add appends an automaton to the network.
func (b *Builder) Add(a *sa.Automaton) *Builder {
	if err := a.Validate(); err != nil {
		b.fail(err)
		return b
	}
	b.net.Automata = append(b.net.Automata, a)
	return b
}

// Scope returns an expr.Scope over the declarations made so far, for
// resolving guard/update/invariant sources during construction.
func (b *Builder) Scope() expr.Scope { return builderScope{b} }

type builderScope struct{ b *Builder }

func (s builderScope) Lookup(name string) (expr.Symbol, bool) {
	if i, ok := s.b.vars[name]; ok {
		return expr.Symbol{Kind: expr.SymVar, Index: i, Len: s.b.arrays[name]}, true
	}
	if i, ok := s.b.clocks[name]; ok {
		return expr.Symbol{Kind: expr.SymClock, Index: i}, true
	}
	if v, ok := s.b.consts[name]; ok {
		return expr.Symbol{Kind: expr.SymConst, Const: v}, true
	}
	return expr.Symbol{}, false
}

// Build finalizes the network, validating cross-references.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	net := b.net
	for _, a := range net.Automata {
		for _, c := range a.Clocks {
			if int(c) < 0 || int(c) >= len(net.Clocks) {
				return nil, fmt.Errorf("nsa: automaton %q owns unknown clock %d", a.Name, c)
			}
		}
		for i, e := range a.Edges {
			if e.Sync.Dir != sa.NoSync {
				if int(e.Sync.Chan) < 0 || int(e.Sync.Chan) >= len(net.Chans) {
					return nil, fmt.Errorf("nsa: automaton %q edge %d: unknown channel %d", a.Name, i, e.Sync.Chan)
				}
			}
		}
	}
	// Every clock must be owned by at most one automaton; unowned clocks run
	// everywhere (e.g. observers' reference clocks).
	owner := make([]int, len(net.Clocks))
	for i := range owner {
		owner[i] = -1
	}
	for ai, a := range net.Automata {
		for _, c := range a.Clocks {
			if owner[c] >= 0 && owner[c] != ai {
				return nil, fmt.Errorf("nsa: clock %q owned by both %q and %q",
					net.Clocks[c].Name, net.Automata[owner[c]].Name, a.Name)
			}
			owner[c] = ai
		}
	}
	net.consts = b.consts
	net.scope = builderScope{b}
	net.idx = buildIndex(&net)
	net.cnet = buildCompiledNet(&net)
	return &net, nil
}

// MustBuild is Build panicking on error.
func (b *Builder) MustBuild() *Network {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}

// Reindex rebuilds the dependency index and the compiled execution form.
// Build constructs both once; callers that mutate automata afterwards (test
// sabotage helpers) must reindex before interpreting the network again.
func (n *Network) Reindex() {
	n.idx = buildIndex(n)
	n.cnet = buildCompiledNet(n)
}

// Scope resolves names declared in the network.
func (n *Network) Scope() expr.Scope { return n.scope }

// AutomatonIndex returns the index of the automaton with the given name, or
// -1 if absent.
func (n *Network) AutomatonIndex(name string) int {
	for i, a := range n.Automata {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// ChanName returns a printable name for ch.
func (n *Network) ChanName(ch sa.ChanID) string {
	if int(ch) < 0 || int(ch) >= len(n.Chans) {
		return fmt.Sprintf("ch#%d", int(ch))
	}
	return n.Chans[ch].Name
}
