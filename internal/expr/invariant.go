package expr

import (
	"fmt"
	"math"
)

// NoBound is returned by MaxDelay when the invariant places no upper bound
// on time progress.
const NoBound = int64(math.MaxInt64)

// InvariantError reports that an expression is not a valid location
// invariant. Invariants are conjunctions of atoms; every atom referencing a
// clock must be an upper bound of the form clock <= e, clock < e (or the
// mirrored e >= clock, e > clock) with a clock-free right-hand side, matching
// the UPPAAL restriction. Clock-free atoms are allowed freely.
type InvariantError struct {
	Expr string
	Msg  string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("expr: invalid invariant %q: %s", e.Expr, e.Msg)
}

// InvariantAtom is one normalized invariant atom.
type InvariantAtom struct {
	Clock  int  // clock index; -1 for clock-free atoms
	Strict bool // clock < Bound rather than clock <= Bound
	Bound  Node // clock-free int expression (nil for clock-free atoms)
	Free   Node // the original clock-free boolean atom
}

// Invariant is a checked location invariant supporting both satisfaction
// tests and maximum-delay computation.
type Invariant struct {
	src   string
	atoms []InvariantAtom
}

// True is the trivial invariant (always satisfied, no time bound).
var True = &Invariant{src: "true"}

// CompileInvariant validates a resolved boolean expression as a location
// invariant and compiles it into atom form.
func CompileInvariant(n Node) (*Invariant, error) {
	inv := &Invariant{src: n.String()}
	if err := inv.collect(n); err != nil {
		return nil, err
	}
	return inv, nil
}

// MustCompileInvariant is CompileInvariant panicking on error.
func MustCompileInvariant(n Node) *Invariant {
	inv, err := CompileInvariant(n)
	if err != nil {
		panic(err)
	}
	return inv
}

// ParseInvariant parses, resolves and compiles src as an invariant.
func ParseInvariant(src string, sc Scope) (*Invariant, error) {
	n, err := Parse(src)
	if err != nil {
		return nil, err
	}
	r, err := Resolve(n, sc, TypeBool)
	if err != nil {
		return nil, err
	}
	return CompileInvariant(r)
}

func (inv *Invariant) collect(n Node) error {
	if b, ok := n.(*Binary); ok && b.Op == OpAnd {
		if err := inv.collect(b.X); err != nil {
			return err
		}
		return inv.collect(b.Y)
	}
	if lit, ok := n.(*BoolLit); ok && lit.Val {
		return nil // "true" conjunct
	}
	clocks := Clocks(n, nil)
	if len(clocks) == 0 {
		inv.atoms = append(inv.atoms, InvariantAtom{Clock: -1, Free: n})
		return nil
	}
	b, ok := n.(*Binary)
	if !ok {
		return &InvariantError{Expr: inv.src, Msg: fmt.Sprintf("clock atom %q is not a comparison", n)}
	}
	var clockSide, boundSide Node
	var strict bool
	switch b.Op {
	case OpLE, OpLT:
		clockSide, boundSide, strict = b.X, b.Y, b.Op == OpLT
	case OpGE, OpGT:
		clockSide, boundSide, strict = b.Y, b.X, b.Op == OpGT
	case OpEQ, OpNE, OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return &InvariantError{Expr: inv.src, Msg: fmt.Sprintf("clock atom %q must be an upper bound (<=, <)", n)}
	default:
		return &InvariantError{Expr: inv.src, Msg: fmt.Sprintf("clock atom %q is not a comparison", n)}
	}
	cr, ok := clockSide.(*ClockRef)
	if !ok {
		return &InvariantError{Expr: inv.src, Msg: fmt.Sprintf("clock atom %q must be an upper bound (<=, <) with a bare clock on the bounded side", n)}
	}
	if len(Clocks(boundSide, nil)) != 0 {
		return &InvariantError{Expr: inv.src, Msg: fmt.Sprintf("bound of clock atom %q must be clock-free", n)}
	}
	inv.atoms = append(inv.atoms, InvariantAtom{Clock: cr.Index, Strict: strict, Bound: boundSide})
	return nil
}

// String returns the source form of the invariant.
func (inv *Invariant) String() string { return inv.src }

// Holds reports whether the invariant is satisfied in env.
func (inv *Invariant) Holds(env Env) bool {
	for _, a := range inv.atoms {
		if a.Clock < 0 {
			if !a.Free.EvalBool(env) {
				return false
			}
			continue
		}
		c := env.Clock(a.Clock)
		b := a.Bound.EvalInt(env)
		if a.Strict {
			if c >= b {
				return false
			}
		} else if c > b {
			return false
		}
	}
	return true
}

// MaxDelay returns the largest d ≥ 0 such that the invariant still holds
// after all clocks for which running(clock) is true advance by d. It returns
// NoBound when unconstrained. The invariant must hold in env; callers check
// Holds first (MaxDelay may return a negative value otherwise).
func (inv *Invariant) MaxDelay(env Env, running func(clock int) bool) int64 {
	d := NoBound
	for _, a := range inv.atoms {
		if a.Clock < 0 || !running(a.Clock) {
			continue // variables and stopped clocks do not change under delay
		}
		c := env.Clock(a.Clock)
		b := a.Bound.EvalInt(env)
		room := b - c
		if a.Strict {
			room--
		}
		if room < d {
			d = room
		}
	}
	return d
}

// AppendDeps appends the global indices of the variables and clocks the
// invariant reads to vars and clocks (duplicates possible) and returns both.
// Bound expressions are clock-free by construction, so the only clocks are
// the bounded ones.
func (inv *Invariant) AppendDeps(vars, clocks []int) ([]int, []int) {
	for i := range inv.atoms {
		a := &inv.atoms[i]
		if a.Clock < 0 {
			vars = Vars(a.Free, vars)
			continue
		}
		clocks = append(clocks, a.Clock)
		vars = Vars(a.Bound, vars)
	}
	return vars, clocks
}

// AtomList returns the invariant's normalized atoms, so backend compilers
// can flatten invariants into their own representations. Callers must not
// modify it.
func (inv *Invariant) AtomList() []InvariantAtom { return inv.atoms }

// HasClockBound reports whether the invariant constrains at least one clock.
func (inv *Invariant) HasClockBound() bool {
	for _, a := range inv.atoms {
		if a.Clock >= 0 {
			return true
		}
	}
	return false
}
