// Package sa defines stopwatch automata: finite automata extended with
// bounded integer variables and clocks that can be stopped per location
// (the paper's progress conditions P: L×C → B). An automaton is the unit of
// composition; networks of automata with shared variables and channels are
// assembled and interpreted by package nsa.
//
// Automata reference variables, clocks and channels through global indices
// assigned by the network builder, so a constructed automaton is always tied
// to the network it was built for.
package sa

import (
	"fmt"

	"stopwatchsim/internal/expr"
)

// LocID identifies a location within one automaton (index into Locations).
type LocID int

// ClockID is a global clock index within a network.
type ClockID int

// VarID is a global variable index within a network.
type VarID int

// ChanID is a global channel index within a network.
type ChanID int

// NoChan marks the absence of a synchronization action on an edge.
const NoChan ChanID = -1

// SyncDir is the direction of a synchronization action.
type SyncDir uint8

// Synchronization directions.
const (
	NoSync SyncDir = iota
	Send           // ch!
	Recv           // ch?
)

func (d SyncDir) String() string {
	switch d {
	case Send:
		return "!"
	case Recv:
		return "?"
	default:
		return ""
	}
}

// Sync is an edge's synchronization label.
type Sync struct {
	Chan ChanID
	Dir  SyncDir
}

// None is the empty synchronization label (internal transition).
var None = Sync{Chan: NoChan, Dir: NoSync}

// Guard is an edge guard: a side-effect-free predicate over variables and
// clocks. A nil Guard is trivially true.
//
// Guards that depend on clock values should either be expression-based
// (ExprGuard, which supports enabling-time analysis) or implement Waker;
// otherwise the interpretation engine assumes delay transitions cannot
// enable them (true for all variable-only guards).
type Guard interface {
	Holds(env expr.Env) bool
	String() string
}

// Waker is implemented by clock-dependent guards that can report a lower
// bound on the delay after which they may become enabled. NextEnable returns
// the smallest d ≥ 1 such that the guard could hold after running clocks
// advance by d, or expr.NoBound if delay alone can never enable it. It is
// only consulted when the guard is currently false.
type Waker interface {
	NextEnable(env expr.Env, running func(clock int) bool) int64
}

// Update is an edge update: an action mutating variables and clocks.
// A nil Update is a no-op.
type Update interface {
	Apply(env expr.MutableEnv)
	String() string
}

// Invariant is a location invariant. A nil Invariant is trivially true.
// *expr.Invariant implements it.
type Invariant interface {
	Holds(env expr.Env) bool
	// MaxDelay returns the largest admissible delay with the given running
	// clocks, or expr.NoBound.
	MaxDelay(env expr.Env, running func(clock int) bool) int64
	String() string
}

// Deps declares the variable and clock footprint of an opaque Go function
// (GuardFunc, UpdateFunc). Expression-based guards and updates have their
// footprints extracted from the AST; function-backed ones must declare them
// to let the interpretation engine re-evaluate only what a transition may
// have changed. A nil *Deps means "unknown": the engine then conservatively
// re-evaluates the owning automaton after every step.
type Deps struct {
	Vars   []VarID
	Clocks []ClockID
}

// GuardFunc is a Guard backed by a Go function. F must not depend on clock
// values unless NextEnableF is also provided, or every edge it guards
// leaves a committed location: time cannot pass there, so no delay can
// enable it (the model library's pick and preempts guards read the
// response-time clocks this way). Reads, when non-nil, declares every
// variable and clock F (and NextEnableF) may read.
type GuardFunc struct {
	Desc        string
	F           func(env expr.Env) bool
	NextEnableF func(env expr.Env, running func(clock int) bool) int64
	Reads       *Deps
}

// Holds implements Guard.
func (g *GuardFunc) Holds(env expr.Env) bool { return g.F(env) }

// String implements Guard.
func (g *GuardFunc) String() string { return g.Desc }

// NextEnable implements Waker when NextEnableF is set.
func (g *GuardFunc) NextEnable(env expr.Env, running func(clock int) bool) int64 {
	if g.NextEnableF == nil {
		return expr.NoBound
	}
	return g.NextEnableF(env, running)
}

// UpdateFunc is an Update backed by a Go function. Writes, when non-nil,
// declares every variable and clock F may assign.
type UpdateFunc struct {
	Desc   string
	F      func(env expr.MutableEnv)
	Writes *Deps
}

// Apply implements Update.
func (u *UpdateFunc) Apply(env expr.MutableEnv) { u.F(env) }

// String implements Update.
func (u *UpdateFunc) String() string { return u.Desc }

// ExprGuard adapts a resolved boolean expression to Guard, with
// enabling-time analysis for its clock atoms (see Waker).
type ExprGuard struct {
	Node   expr.Node
	clocks []int
}

// NewExprGuard wraps a resolved bool-typed expression.
func NewExprGuard(n expr.Node) *ExprGuard {
	return &ExprGuard{Node: n, clocks: expr.Clocks(n, nil)}
}

// Holds implements Guard.
func (g *ExprGuard) Holds(env expr.Env) bool { return g.Node.EvalBool(env) }

// String implements Guard.
func (g *ExprGuard) String() string { return g.Node.String() }

// ClockFree reports whether the guard references no clocks.
func (g *ExprGuard) ClockFree() bool { return len(g.clocks) == 0 }

// NextEnable implements Waker: it returns the smallest delay d ≥ 1 at which
// the guard expression could flip to true, determined by scanning the delays
// at which any clock atom changes truth value. The result is a sound
// wake-up schedule: the engine re-evaluates the guard after delaying, so a
// conservative (too early) answer only costs time.
func (g *ExprGuard) NextEnable(env expr.Env, running func(clock int) bool) int64 {
	if len(g.clocks) == 0 {
		return expr.NoBound
	}
	best := expr.NoBound
	scan(g.Node, env, running, &best)
	if best < 1 {
		best = 1
	}
	return best
}

// scan records into best the minimal delay ≥ 1 at which some comparison atom
// involving a running clock changes truth value.
func scan(n expr.Node, env expr.Env, running func(clock int) bool, best *int64) {
	switch n := n.(type) {
	case *expr.Unary:
		scan(n.X, env, running, best)
	case *expr.Cond:
		scan(n.C, env, running, best)
		scan(n.A, env, running, best)
		scan(n.B, env, running, best)
	case *expr.Binary:
		switch n.Op {
		case expr.OpAnd, expr.OpOr:
			scan(n.X, env, running, best)
			scan(n.Y, env, running, best)
			return
		case expr.OpLT, expr.OpLE, expr.OpGT, expr.OpGE, expr.OpEQ, expr.OpNE:
			// Atom c ⋈ e or e ⋈ c with clock-free e: truth value changes
			// exactly when the running clock crosses e (or e, e+1 for the
			// strict/equality boundaries); the earliest crossing is at
			// delay e-c or e-c+1.
			cl, bound, ok := clockAtom(n)
			if !ok {
				return
			}
			if !running(cl) {
				return
			}
			c := env.Clock(cl)
			b := bound.EvalInt(env)
			for _, d := range [2]int64{b - c, b - c + 1} {
				if d >= 1 && d < *best {
					*best = d
				}
			}
		}
	}
}

// clockAtom decomposes a comparison with a bare clock on one side and a
// clock-free expression on the other.
func clockAtom(b *expr.Binary) (clock int, bound expr.Node, ok bool) {
	if cr, isC := b.X.(*expr.ClockRef); isC && len(expr.Clocks(b.Y, nil)) == 0 {
		return cr.Index, b.Y, true
	}
	if cr, isC := b.Y.(*expr.ClockRef); isC && len(expr.Clocks(b.X, nil)) == 0 {
		return cr.Index, b.X, true
	}
	return 0, nil, false
}

// GuardReads appends the global variable and clock indices guard g may read
// to vars and clocks. ok is false when the footprint is unknown (an opaque
// guard without a Reads declaration); callers must then assume g reads
// everything.
func GuardReads(g Guard, vars, clocks []int) (v, c []int, ok bool) {
	switch g := g.(type) {
	case nil:
		return vars, clocks, true
	case *ExprGuard:
		return expr.Vars(g.Node, vars), expr.Clocks(g.Node, clocks), true
	case *GuardFunc:
		if g.Reads == nil {
			return vars, clocks, false
		}
		for _, vi := range g.Reads.Vars {
			vars = append(vars, int(vi))
		}
		for _, ci := range g.Reads.Clocks {
			clocks = append(clocks, int(ci))
		}
		return vars, clocks, true
	default:
		return vars, clocks, false
	}
}

// UpdateWrites appends the global variable and clock indices update u may
// assign to vars and clocks. ok is false when the footprint is unknown;
// callers must then assume u writes everything. Assignments through a
// dynamic array index contribute the whole array range.
func UpdateWrites(u Update, vars, clocks []int) (v, c []int, ok bool) {
	switch u := u.(type) {
	case nil:
		return vars, clocks, true
	case *ExprUpdate:
		for _, s := range u.Stmts {
			switch t := s.Target.(type) {
			case *expr.VarRef:
				vars = append(vars, t.Index)
			case *expr.ClockRef:
				clocks = append(clocks, t.Index)
			case *expr.DynVarRef:
				for i := 0; i < t.Len; i++ {
					vars = append(vars, t.Base+i)
				}
			default:
				return vars, clocks, false
			}
		}
		return vars, clocks, true
	case *UpdateFunc:
		if u.Writes == nil {
			return vars, clocks, false
		}
		for _, vi := range u.Writes.Vars {
			vars = append(vars, int(vi))
		}
		for _, ci := range u.Writes.Clocks {
			clocks = append(clocks, int(ci))
		}
		return vars, clocks, true
	default:
		return vars, clocks, false
	}
}

// ExprUpdate adapts a resolved statement list to Update.
type ExprUpdate struct {
	Stmts expr.StmtList
}

// Apply implements Update.
func (u *ExprUpdate) Apply(env expr.MutableEnv) { u.Stmts.Apply(env) }

// String implements Update.
func (u *ExprUpdate) String() string { return u.Stmts.String() }

// Location is an automaton location.
type Location struct {
	Name      string
	Committed bool
	Invariant Invariant // nil means true
	Stopped   []ClockID // clocks whose progress is stopped here
}

// Edge is an action transition between locations.
type Edge struct {
	Src, Dst LocID
	Guard    Guard // nil means true
	Sync     Sync
	Update   Update // nil means no update
}

// Automaton is a stopwatch automaton wired into a network's global variable,
// clock and channel index spaces.
type Automaton struct {
	Name      string
	Locations []Location
	Initial   LocID
	Edges     []Edge

	// Clocks lists the global indices of clocks owned by this automaton
	// (the clocks its progress conditions may stop).
	Clocks []ClockID

	// Priority orders simultaneous transitions across automata (the UPPAAL
	// process-priority mechanism): of all enabled transitions, only those
	// whose highest-priority participant is maximal may fire. The component
	// library gives time-driven automata (tasks, links) priority 1 over the
	// reactive schedulers (0), so releases, kills and deliveries at an
	// instant are processed before scheduling decisions at that instant.
	Priority int

	// edgesFrom[l] lists indices into Edges of edges leaving location l;
	// edgesIndexed is the edge count it was built from, so the index
	// refreshes when edges are added or removed after first use.
	edgesFrom    [][]int
	edgesIndexed int
}

// EdgesFrom returns the indices of edges leaving location l, computing the
// index on first use and recomputing it when the edge count has changed.
func (a *Automaton) EdgesFrom(l LocID) []int {
	if a.edgesFrom == nil || a.edgesIndexed != len(a.Edges) {
		a.edgesFrom = make([][]int, len(a.Locations))
		a.edgesIndexed = len(a.Edges)
		for i, e := range a.Edges {
			a.edgesFrom[e.Src] = append(a.edgesFrom[e.Src], i)
		}
	}
	return a.edgesFrom[l]
}

// LocationName returns a printable name for l.
func (a *Automaton) LocationName(l LocID) string {
	if int(l) < 0 || int(l) >= len(a.Locations) {
		return fmt.Sprintf("loc#%d", int(l))
	}
	if n := a.Locations[l].Name; n != "" {
		return n
	}
	return fmt.Sprintf("loc#%d", int(l))
}

// Validate checks structural well-formedness: location and edge indices in
// range, initial location valid, stopped clocks owned by the automaton and
// sync labels consistent.
func (a *Automaton) Validate() error {
	if len(a.Locations) == 0 {
		return fmt.Errorf("sa: automaton %q has no locations", a.Name)
	}
	if a.Initial < 0 || int(a.Initial) >= len(a.Locations) {
		return fmt.Errorf("sa: automaton %q: initial location %d out of range", a.Name, a.Initial)
	}
	owned := make(map[ClockID]bool, len(a.Clocks))
	for _, c := range a.Clocks {
		owned[c] = true
	}
	for li, l := range a.Locations {
		for _, c := range l.Stopped {
			if !owned[c] {
				return fmt.Errorf("sa: automaton %q location %q stops clock %d it does not own", a.Name, a.LocationName(LocID(li)), c)
			}
		}
	}
	for i, e := range a.Edges {
		if e.Src < 0 || int(e.Src) >= len(a.Locations) || e.Dst < 0 || int(e.Dst) >= len(a.Locations) {
			return fmt.Errorf("sa: automaton %q edge %d: location out of range", a.Name, i)
		}
		switch e.Sync.Dir {
		case NoSync:
			if e.Sync.Chan != NoChan {
				return fmt.Errorf("sa: automaton %q edge %d: channel set without direction", a.Name, i)
			}
		case Send, Recv:
			if e.Sync.Chan == NoChan {
				return fmt.Errorf("sa: automaton %q edge %d: sync direction without channel", a.Name, i)
			}
		default:
			return fmt.Errorf("sa: automaton %q edge %d: bad sync direction %d", a.Name, i, e.Sync.Dir)
		}
	}
	return nil
}

// EdgeString renders edge i for diagnostics.
func (a *Automaton) EdgeString(i int) string {
	e := a.Edges[i]
	s := fmt.Sprintf("%s -> %s", a.LocationName(e.Src), a.LocationName(e.Dst))
	if e.Guard != nil {
		s += fmt.Sprintf(" [%s]", e.Guard)
	}
	if e.Sync.Dir != NoSync {
		s += fmt.Sprintf(" ch%d%s", e.Sync.Chan, e.Sync.Dir)
	}
	if e.Update != nil {
		s += fmt.Sprintf(" {%s}", e.Update)
	}
	return s
}
