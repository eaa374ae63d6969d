package nsa

import (
	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/sa"
)

// compiledNet is the flat, allocation-free execution form of a network: all
// per-location data lives in contiguous slices indexed by dense IDs assigned
// at build time (locBase[ai]+loc addresses a location, small integers
// address guard programs, updates and invariants), guards and updates are
// compiled into expression bytecode where possible with closure and opaque
// fallbacks, and invariants are flattened into atom arrays with a dedicated
// constant-bound fast path. One compiledNet is built per Network by
// Builder.Build and shared, immutably, by every compiledRuntime and
// Enumerator over it.
type compiledNet struct {
	// locBase[ai] + int(loc) is the dense ID of location loc of automaton
	// ai, indexing locs.
	locBase []int32
	locs    []cloc

	progs   []*expr.Prog    // guard bytecode (gProg)
	cmps    []expr.CmpConst // flattened compare-const conjunctions (gCmpList)
	fns     []expr.BoolFn   // guard closures (gClosure)
	slows   []sa.Guard      // opaque guards (gOpaque), evaluated via the env
	wakers  []sa.Waker      // guard wake-up providers, referenced by cedge.waker
	updates []cupdate       // edge updates, referenced by updOf
	invs    []cinv          // location invariants, referenced by cloc.inv
	domains []expr.VarDomain

	// updOf[ai][ei] indexes updates for edge ei of automaton ai; -1 means no
	// update.
	updOf [][]int32

	prio    []int32 // per-automaton process priority
	maxPrio int32   // highest automaton priority in the network

	broadcast   []bool  // per channel
	urgentChans []int32 // urgent channel IDs, ascending

	// maxRegs is the largest register file any compiled program needs; a
	// runtime allocates one scratch slice of this length for all of them.
	maxRegs int
}

// cguardKind classifies how a guard is evaluated, cheapest first.
type cguardKind uint8

const (
	gTrue      cguardKind = iota // no guard
	gVarCmpK                     // vars[gidx] gop gk, inlined
	gClockCmpK                   // clocks[gidx] gop gk, inlined
	gCmpList                     // conjunction: cmps[gidx : gidx+gn], inlined loop
	gProg                        // bytecode: progs[gidx]
	gClosure                     // closure: fns[gidx]
	gOpaque                      // interface: slows[gidx] via the env
)

// cloc is one location in dense form.
type cloc struct {
	edges          []cedge
	inv            int32 // invs index; -1 when trivially true
	committed      bool
	clockSensitive bool
}

// cedge is one pre-classified outgoing edge.
type cedge struct {
	edge  int32 // edge index within the automaton
	ch    sa.ChanID
	dir   sa.SyncDir
	gkind cguardKind
	gop   expr.Op // comparison operator for gVarCmpK / gClockCmpK
	gidx  int32   // var/clock index, or cmps/progs/fns/slows index, per gkind
	gn    int32   // conjunct count for gCmpList
	gk    int64   // comparison constant for gVarCmpK / gClockCmpK
	// waker indexes wakers when the guard can report a wake-up delay; -1
	// otherwise. volatileWaker marks wakers whose wake-up points are not
	// invariant under time advance (anything but ExprGuard's clock-atom
	// scan), forcing a deadline recompute after every delay transition.
	waker         int32
	volatileWaker bool
}

// cupdate is one edge update: bytecode when provably compilable, the
// interface fallback otherwise.
type cupdate struct {
	prog *expr.Prog
	slow sa.Update
}

// catomKind classifies flattened invariant atoms.
type catomKind uint8

const (
	aConstBound catomKind = iota // clock ≤/< K
	aFnBound                     // clock ≤/< boundFn(vars, clocks)
	aFree                        // clock-free boolean conjunct
)

// catom is one flattened invariant atom.
type catom struct {
	kind    catomKind
	clock   int32
	strict  bool
	k       int64       // aConstBound
	boundFn expr.IntFn  // aFnBound
	freeFn  expr.BoolFn // aFree
}

// cinv is one location invariant: flattened atoms, or the opaque interface
// fallback (slow non-nil, atoms nil).
type cinv struct {
	atoms []catom
	slow  sa.Invariant
}

// compiled returns the network's compiled execution form. Builder.Build
// constructs it eagerly; the lazy fallback covers networks assembled without
// the builder (single-goroutine test helpers only).
func (n *Network) compiled() *compiledNet {
	if n.cnet == nil {
		n.cnet = buildCompiledNet(n)
	}
	return n.cnet
}

func buildCompiledNet(n *Network) *compiledNet {
	cn := &compiledNet{
		locBase:   make([]int32, len(n.Automata)),
		domains:   make([]expr.VarDomain, len(n.Vars)),
		updOf:     make([][]int32, len(n.Automata)),
		prio:      make([]int32, len(n.Automata)),
		broadcast: make([]bool, len(n.Chans)),
	}
	for i, v := range n.Vars {
		cn.domains[i] = expr.VarDomain{Name: v.Name, Min: v.Min, Max: v.Max, Bounded: v.HasBounds}
	}
	for ch, c := range n.Chans {
		cn.broadcast[ch] = c.Broadcast
		if c.Urgent {
			cn.urgentChans = append(cn.urgentChans, int32(ch))
		}
	}
	idx := n.index()
	for ai, a := range n.Automata {
		cn.prio[ai] = int32(a.Priority)
		if ai == 0 || cn.prio[ai] > cn.maxPrio {
			cn.maxPrio = cn.prio[ai]
		}

		cn.updOf[ai] = make([]int32, len(a.Edges))
		for ei := range a.Edges {
			cn.updOf[ai][ei] = cn.addUpdate(a.Edges[ei].Update)
		}

		cn.locBase[ai] = int32(len(cn.locs))
		for li := range a.Locations {
			loc := &a.Locations[li]
			c := cloc{
				inv:            cn.addInvariant(loc.Invariant),
				committed:      loc.Committed,
				clockSensitive: idx.clockSensitive[ai][li],
			}
			for _, ei := range a.EdgesFrom(sa.LocID(li)) {
				c.edges = append(c.edges, cn.compileEdge(a, ei))
			}
			cn.locs = append(cn.locs, c)
		}
	}
	return cn
}

func (cn *compiledNet) trackRegs(p *expr.Prog) {
	if p != nil && p.NumRegs() > cn.maxRegs {
		cn.maxRegs = p.NumRegs()
	}
}

// compileEdge classifies and compiles the guard of edge ei, picking the
// cheapest evaluation tier it can prove correct: inlined var/clock-vs-const
// comparison, bytecode, compiled closure, or the opaque interface path.
func (cn *compiledNet) compileEdge(a *sa.Automaton, ei int) cedge {
	e := &a.Edges[ei]
	ce := cedge{edge: int32(ei), ch: sa.NoChan, waker: -1}
	if e.Sync.Dir != sa.NoSync {
		ce.dir = e.Sync.Dir
		ce.ch = e.Sync.Chan
	}
	switch g := e.Guard.(type) {
	case nil:
		ce.gkind = gTrue
	case *sa.ExprGuard:
		if isClock, idx, op, k, ok := expr.MatchCmpConst(g.Node); ok {
			if isClock {
				ce.gkind = gClockCmpK
			} else {
				ce.gkind = gVarCmpK
			}
			ce.gidx, ce.gop, ce.gk = int32(idx), op, k
		} else if list, ok := expr.MatchCmpList(g.Node, cn.cmps); ok {
			ce.gkind = gCmpList
			ce.gidx = int32(len(cn.cmps))
			ce.gn = int32(len(list) - len(cn.cmps))
			cn.cmps = list
		} else if p := expr.CompileBoolProg(g.Node); p != nil {
			ce.gkind = gProg
			ce.gidx = int32(len(cn.progs))
			cn.progs = append(cn.progs, p)
			cn.trackRegs(p)
		} else {
			ce.gkind = gClosure
			ce.gidx = int32(len(cn.fns))
			cn.fns = append(cn.fns, expr.CompileBool(g.Node))
		}
		if !g.ClockFree() {
			ce.waker = int32(len(cn.wakers))
			cn.wakers = append(cn.wakers, g)
		}
	default:
		ce.gkind = gOpaque
		ce.gidx = int32(len(cn.slows))
		cn.slows = append(cn.slows, g)
		if w, ok := g.(sa.Waker); ok {
			if gf, isFn := g.(*sa.GuardFunc); !isFn || gf.NextEnableF != nil {
				ce.waker = int32(len(cn.wakers))
				cn.wakers = append(cn.wakers, w)
				ce.volatileWaker = true
			}
		}
	}
	return ce
}

// addUpdate compiles an edge update into the updates table, returning its
// index (-1 for no update). ExprUpdate statement lists compile to bytecode
// when provably well-typed; everything else keeps the interface path.
func (cn *compiledNet) addUpdate(u sa.Update) int32 {
	if u == nil {
		return -1
	}
	cu := cupdate{slow: u}
	if eu, ok := u.(*sa.ExprUpdate); ok {
		if p := expr.CompileUpdateProg(eu.Stmts); p != nil {
			cu.prog = p
			cn.trackRegs(p)
		}
	}
	cn.updates = append(cn.updates, cu)
	return int32(len(cn.updates) - 1)
}

// addInvariant flattens a location invariant into the invs table, returning
// its index (-1 for trivially true). Expression invariants flatten to atom
// arrays — constant clock bounds become immediate k comparisons, the common
// case in the component library — and anything else keeps the interface
// fallback.
func (cn *compiledNet) addInvariant(inv sa.Invariant) int32 {
	if inv == nil {
		return -1
	}
	ci := cinv{}
	if fi, ok := inv.(*expr.Invariant); ok {
		atoms := fi.AtomList()
		ci.atoms = make([]catom, 0, len(atoms))
		for _, a := range atoms {
			if a.Clock < 0 {
				ci.atoms = append(ci.atoms, catom{kind: aFree, clock: -1, freeFn: a.FreeFn})
				continue
			}
			ca := catom{kind: aFnBound, clock: int32(a.Clock), strict: a.Strict, boundFn: a.BoundFn}
			if lit, isLit := a.Bound.(*expr.IntLit); isLit {
				ca.kind = aConstBound
				ca.k = lit.Val
			}
			ci.atoms = append(ci.atoms, ca)
		}
		if ci.atoms == nil {
			ci.atoms = []catom{} // non-nil marks "use atoms", even when empty
		}
	} else {
		ci.slow = inv
	}
	cn.invs = append(cn.invs, ci)
	return int32(len(cn.invs) - 1)
}

// loc returns the dense-form location automaton ai occupies in s.
func (cn *compiledNet) loc(ai int32, s *State) *cloc {
	return &cn.locs[cn.locBase[ai]+int32(s.Locs[ai])]
}

// evalGuard evaluates one pre-classified guard against raw state arrays,
// cheapest tier first. regs is bytecode scratch of at least maxRegs; env
// must view the same state and is consulted only by opaque guards.
func (cn *compiledNet) evalGuard(ce *cedge, vars, clocks, regs []int64, env expr.Env) bool {
	switch ce.gkind {
	case gTrue:
		return true
	case gVarCmpK:
		return cmpConst(vars[ce.gidx], ce.gop, ce.gk)
	case gClockCmpK:
		return cmpConst(clocks[ce.gidx], ce.gop, ce.gk)
	case gCmpList:
		for i := ce.gidx; i < ce.gidx+ce.gn; i++ {
			c := &cn.cmps[i]
			v := vars
			if c.IsClock {
				v = clocks
			}
			if !cmpConst(v[c.Idx], c.Op, c.K) {
				return false
			}
		}
		return true
	case gProg:
		return cn.progs[ce.gidx].EvalBool(vars, clocks, regs)
	case gClosure:
		return cn.fns[ce.gidx](vars, clocks)
	default: // gOpaque
		return guardHolds(cn.slows[ce.gidx], env)
	}
}

func cmpConst(v int64, op expr.Op, k int64) bool {
	switch op {
	case expr.OpLT:
		return v < k
	case expr.OpLE:
		return v <= k
	case expr.OpGT:
		return v > k
	case expr.OpGE:
		return v >= k
	case expr.OpEQ:
		return v == k
	default: // OpNE
		return v != k
	}
}
