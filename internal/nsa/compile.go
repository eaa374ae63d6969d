package nsa

import (
	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/sa"
)

// compiledNet is the flat, allocation-free execution form of a network: all
// per-location data lives in contiguous slices indexed by dense IDs assigned
// at build time (locBase[ai]+loc addresses a location, small integers
// address guard programs, updates and invariants), guards and updates are
// compiled into expression bytecode where possible with the opaque
// interface path as the fallback, and invariants are flattened into atom
// arrays with a dedicated constant-bound fast path. One compiledNet is
// built per Network by Builder.Build and shared, immutably, by every
// compiledRuntime and Enumerator over it.
type compiledNet struct {
	// locBase[ai] + int(loc) is the dense ID of location loc of automaton
	// ai, indexing locs.
	locBase []int32
	locs    []cloc

	progs   []*expr.Prog    // guard bytecode (gProg)
	cmps    []expr.CmpConst // flattened compare-const conjunctions (gCmpList)
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

	// maxRegs is the largest register file any compiled program (guard,
	// update or invariant atom) needs; a runtime allocates one scratch
	// slice of this length for all of them.
	maxRegs int

	// Build time only, nil afterwards: the progs index of each compiled
	// guard and the updates index of each compiled update, so an
	// expression shared by several edges compiles once.
	guardProg map[*sa.ExprGuard]int32
	updateIdx map[*sa.ExprUpdate]int32
}

// cguardKind classifies how a guard is evaluated, cheapest first. Every
// tier but gOpaque is compiled; an expression guard the bytecode compiler
// rejects is gOpaque, and its tree walker raises the canonical
// *RuntimeError.
type cguardKind uint8

const (
	gTrue      cguardKind = iota // no guard
	gVarCmpK                     // vars[gidx] gop gk, inlined
	gClockCmpK                   // clocks[gidx] gop gk, inlined
	gCmpList                     // conjunction: cmps[gidx : gidx+gn], inlined loop
	gProg                        // bytecode: progs[gidx]
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
	gidx  int32   // var/clock index, or cmps/progs/slows index, per gkind
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
	aConstBound catomKind = iota // clock ≤/< k
	aProgBound                   // clock ≤/< prog, an int program
	aFree                        // clock-free boolean conjunct: prog
)

// catom is one flattened invariant atom.
type catom struct {
	kind   catomKind
	clock  int32
	strict bool
	k      int64      // aConstBound
	prog   *expr.Prog // aProgBound, aFree
}

// cinv is one location invariant: flattened atoms, or the interface
// fallback (slow non-nil, atoms nil) for invariants that are not
// expressions or have an atom the bytecode compiler rejects.
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
		guardProg: map[*sa.ExprGuard]int32{},
		updateIdx: map[*sa.ExprUpdate]int32{},
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
	cn.guardProg, cn.updateIdx = nil, nil
	return cn
}

func (cn *compiledNet) trackRegs(p *expr.Prog) {
	if p != nil && p.NumRegs() > cn.maxRegs {
		cn.maxRegs = p.NumRegs()
	}
}

// compileEdge classifies and compiles the guard of edge ei, picking the
// cheapest evaluation tier it can prove correct: inlined var/clock-vs-const
// comparison, bytecode, or the opaque interface path. Wakers go by guard
// type, not tier: an expression guard keeps its non-volatile clock-atom
// scan even on the opaque path.
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
		} else if i, ok := cn.guardProg[g]; ok {
			ce.gkind, ce.gidx = gProg, i
		} else if p := expr.CompileBoolProg(g.Node); p != nil {
			ce.gkind = gProg
			ce.gidx = int32(len(cn.progs))
			cn.guardProg[g] = ce.gidx
			cn.progs = append(cn.progs, p)
			cn.trackRegs(p)
		} else {
			ce.gkind = gOpaque
		}
		if !g.ClockFree() {
			ce.waker = int32(len(cn.wakers))
			cn.wakers = append(cn.wakers, g)
		}
	default:
		ce.gkind = gOpaque
		if w, ok := g.(sa.Waker); ok {
			if gf, isFn := g.(*sa.GuardFunc); !isFn || gf.NextEnableF != nil {
				ce.waker = int32(len(cn.wakers))
				cn.wakers = append(cn.wakers, w)
				ce.volatileWaker = true
			}
		}
	}
	if ce.gkind == gOpaque {
		ce.gidx = int32(len(cn.slows))
		cn.slows = append(cn.slows, e.Guard)
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
	eu, isExpr := u.(*sa.ExprUpdate)
	if i, ok := cn.updateIdx[eu]; isExpr && ok {
		return i
	}
	cu := cupdate{slow: u}
	if isExpr {
		if p := expr.CompileUpdateProg(eu.Stmts); p != nil {
			cu.prog = p
			cn.trackRegs(p)
		}
	}
	i := int32(len(cn.updates))
	cn.updates = append(cn.updates, cu)
	if isExpr {
		cn.updateIdx[eu] = i
	}
	return i
}

// addInvariant flattens a location invariant into the invs table, returning
// its index (-1 for trivially true). Expression invariants flatten to atom
// arrays — constant clock bounds become immediate k comparisons, the common
// case in the component library, and other atoms compile to bytecode —
// and anything else keeps the interface fallback.
func (cn *compiledNet) addInvariant(inv sa.Invariant) int32 {
	if inv == nil {
		return -1
	}
	ci := cinv{slow: inv}
	if fi, ok := inv.(*expr.Invariant); ok {
		if atoms, ok := cn.compileAtoms(fi.AtomList()); ok {
			ci = cinv{atoms: atoms}
		}
	}
	cn.invs = append(cn.invs, ci)
	return int32(len(cn.invs) - 1)
}

// compileAtoms flattens an expression invariant's atoms. It reports false
// when the bytecode compiler rejects an atom; the whole invariant then
// takes the interface fallback.
func (cn *compiledNet) compileAtoms(list []expr.InvariantAtom) ([]catom, bool) {
	atoms := make([]catom, len(list))
	for i, a := range list {
		ca := catom{kind: aProgBound, clock: int32(a.Clock), strict: a.Strict}
		if lit, isLit := a.Bound.(*expr.IntLit); isLit {
			ca.kind, ca.k = aConstBound, lit.Val
		} else if a.Clock < 0 {
			ca.kind, ca.prog = aFree, expr.CompileBoolProg(a.Free)
		} else {
			ca.prog = expr.CompileIntProg(a.Bound)
		}
		if ca.kind != aConstBound && ca.prog == nil {
			return nil, false
		}
		cn.trackRegs(ca.prog)
		atoms[i] = ca
	}
	return atoms, true
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
