package expr

import "fmt"

// Register-based expression bytecode: the compiled form of expressions and
// the second of the two evaluators, beside the tree walkers (ast.go), which
// define the semantics. A resolved expression compiles once into a flat
// instruction slice evaluated by a single switch loop over an int64
// register file, so the interpretation hot path pays no per-node calls and
// no interface dispatch. The dominant guard shapes (clock cmp const, var
// cmp const) compile to single superinstructions.
//
// Compilation is conservative: CompileBoolProg / CompileIntProg /
// CompileUpdateProg return nil for any node they cannot prove well-typed
// (unresolved identifiers, type confusion). Callers then evaluate the node
// with the tree walker through an environment, the engine's opaque path,
// which raises the canonical *RuntimeError for malformed nodes. For
// everything the bytecode does accept, its dynamic semantics — including
// panic messages for division and modulo by zero, array indices out of
// range and domain violations, and the evaluation order that determines
// which panic fires first — match the tree walkers exactly;
// bytecode_fuzz_test.go holds the VM to that contract.

// opCode enumerates the bytecode instructions. A/B/C are register or index
// operands, K an inline constant (see instr).
type opCode uint8

const (
	opRet   opCode = iota // return R[A]
	opConst               // R[A] = K
	opVar                 // R[A] = vars[B]
	opClock               // R[A] = clocks[B]
	opDyn                 // R[A] = vars[B+R[C]]; panics unless 0 ≤ R[C] < K

	opAdd // R[A] = R[B] + R[C]
	opSub
	opMul
	opDiv // panics when R[C] == 0
	opMod
	opNeg // R[A] = -R[B]
	opNot // R[A] = R[B] ^ 1 (booleans are 0/1 by construction)

	opLT // R[A] = R[B] < R[C] (as 0/1)
	opLE
	opGT
	opGE
	opEQ
	opNE

	// Superinstructions for the guard shapes that dominate interpretation.
	opVarLTK // R[A] = vars[B] < K
	opVarLEK
	opVarGTK
	opVarGEK
	opVarEQK
	opVarNEK
	opClkLTK // R[A] = clocks[B] < K
	opClkLEK
	opClkGTK
	opClkGEK
	opClkEQK
	opClkNEK

	opJmp // pc = A
	opJz  // if R[B] == 0 { pc = A }
	opJnz // if R[B] != 0 { pc = A }

	// Update statements (CompileUpdateProg only).
	opCheckIdx   // panics unless 0 ≤ R[B] < K (array target index check)
	opStoreVar   // vars[A] = R[B], enforcing domains[A]
	opStoreClock // clocks[A] = R[B]
	opStoreDyn   // vars[B+R[C]] = R[A], enforcing domains[B+R[C]]
)

// instr is one bytecode instruction. The operand meaning depends on Op; K
// carries inline constants and array lengths so there is no constant pool.
type instr struct {
	Op      opCode
	A, B, C int32
	K       int64
}

// VarDomain is the declared domain of one variable, consulted by update
// stores. The zero value (Bounded false) admits every int64.
type VarDomain struct {
	Name     string
	Min, Max int64
	Bounded  bool
}

// Prog is a compiled expression or update program. A Prog is immutable
// after compilation and safe for concurrent evaluation as long as each
// evaluation uses its own register slice.
type Prog struct {
	code []instr
	// src[i] is the AST node instruction i reports in *RuntimeError panics
	// (nil for instructions that cannot fail).
	src  []Node
	nreg int
}

// NumRegs is the register count an evaluation needs; callers pass a scratch
// slice of at least this length.
func (p *Prog) NumRegs() int { return p.nreg }

// Len returns the instruction count (diagnostics and tests).
func (p *Prog) Len() int { return len(p.code) }

// EvalBool evaluates a program compiled by CompileBoolProg.
func (p *Prog) EvalBool(vars, clocks, regs []int64) bool {
	return p.run(vars, clocks, regs, nil) != 0
}

// EvalInt evaluates a program compiled by CompileIntProg.
func (p *Prog) EvalInt(vars, clocks, regs []int64) int64 {
	return p.run(vars, clocks, regs, nil)
}

// Exec runs a program compiled by CompileUpdateProg, mutating vars and
// clocks in place. domains, when non-nil, is indexed by global variable
// index and enforced on every store exactly as a bounds-checking
// MutableEnv would (panicking with the identical *RuntimeError).
func (p *Prog) Exec(vars, clocks, regs []int64, domains []VarDomain) {
	p.run(vars, clocks, regs, domains)
}

func (p *Prog) run(vars, clocks, regs []int64, domains []VarDomain) int64 {
	code := p.code
	for pc := 0; pc < len(code); {
		in := &code[pc]
		pc++
		switch in.Op {
		case opRet:
			return regs[in.A]
		case opConst:
			regs[in.A] = in.K
		case opVar:
			regs[in.A] = vars[in.B]
		case opClock:
			regs[in.A] = clocks[in.B]
		case opDyn:
			i := regs[in.C]
			if i < 0 || i >= in.K {
				rtErr(p.src[pc-1], "array index %d out of range [0,%d)", i, in.K)
			}
			regs[in.A] = vars[in.B+int32(i)]
		case opAdd:
			regs[in.A] = regs[in.B] + regs[in.C]
		case opSub:
			regs[in.A] = regs[in.B] - regs[in.C]
		case opMul:
			regs[in.A] = regs[in.B] * regs[in.C]
		case opDiv:
			d := regs[in.C]
			if d == 0 {
				rtErr(p.src[pc-1], "division by zero")
			}
			regs[in.A] = regs[in.B] / d
		case opMod:
			d := regs[in.C]
			if d == 0 {
				rtErr(p.src[pc-1], "modulo by zero")
			}
			regs[in.A] = regs[in.B] % d
		case opNeg:
			regs[in.A] = -regs[in.B]
		case opNot:
			regs[in.A] = regs[in.B] ^ 1
		case opLT:
			regs[in.A] = b2i(regs[in.B] < regs[in.C])
		case opLE:
			regs[in.A] = b2i(regs[in.B] <= regs[in.C])
		case opGT:
			regs[in.A] = b2i(regs[in.B] > regs[in.C])
		case opGE:
			regs[in.A] = b2i(regs[in.B] >= regs[in.C])
		case opEQ:
			regs[in.A] = b2i(regs[in.B] == regs[in.C])
		case opNE:
			regs[in.A] = b2i(regs[in.B] != regs[in.C])
		case opVarLTK:
			regs[in.A] = b2i(vars[in.B] < in.K)
		case opVarLEK:
			regs[in.A] = b2i(vars[in.B] <= in.K)
		case opVarGTK:
			regs[in.A] = b2i(vars[in.B] > in.K)
		case opVarGEK:
			regs[in.A] = b2i(vars[in.B] >= in.K)
		case opVarEQK:
			regs[in.A] = b2i(vars[in.B] == in.K)
		case opVarNEK:
			regs[in.A] = b2i(vars[in.B] != in.K)
		case opClkLTK:
			regs[in.A] = b2i(clocks[in.B] < in.K)
		case opClkLEK:
			regs[in.A] = b2i(clocks[in.B] <= in.K)
		case opClkGTK:
			regs[in.A] = b2i(clocks[in.B] > in.K)
		case opClkGEK:
			regs[in.A] = b2i(clocks[in.B] >= in.K)
		case opClkEQK:
			regs[in.A] = b2i(clocks[in.B] == in.K)
		case opClkNEK:
			regs[in.A] = b2i(clocks[in.B] != in.K)
		case opJmp:
			pc = int(in.A)
		case opJz:
			if regs[in.B] == 0 {
				pc = int(in.A)
			}
		case opJnz:
			if regs[in.B] != 0 {
				pc = int(in.A)
			}
		case opCheckIdx:
			i := regs[in.B]
			if i < 0 || i >= in.K {
				rtErr(p.src[pc-1], "array index %d out of range [0,%d)", i, in.K)
			}
		case opStoreVar:
			storeVar(vars, domains, int(in.A), regs[in.B])
		case opStoreClock:
			clocks[in.A] = regs[in.B]
		case opStoreDyn:
			storeVar(vars, domains, int(in.B)+int(regs[in.C]), regs[in.A])
		}
	}
	return 0
}

// storeVar assigns vars[i] = v under the declared domain, panicking with
// the exact *RuntimeError a bounds-checking environment raises.
func storeVar(vars []int64, domains []VarDomain, i int, v int64) {
	if domains != nil {
		d := &domains[i]
		if d.Bounded && (v < d.Min || v > d.Max) {
			panic(DomainError(v, d.Min, d.Max, d.Name))
		}
	}
	vars[i] = v
}

// DomainError is the *RuntimeError a bounds-checking store raises for a
// value outside a variable's declared domain; shared between the bytecode
// VM and the engine's mutable environments so the messages stay
// byte-identical across backends.
func DomainError(v, min, max int64, name string) *RuntimeError {
	return &RuntimeError{
		Msg:  fmt.Sprintf("value %d outside domain [%d,%d]", v, min, max),
		Expr: name,
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// CompileBoolProg compiles a resolved bool-typed node to bytecode. It
// returns nil when the node is not provably well-typed; callers then fall
// back to the tree walker.
func CompileBoolProg(n Node) *Prog {
	b := newProgBuilder()
	b.compileBool(n, 0)
	b.emit(instr{Op: opRet, A: 0}, nil)
	return b.finish()
}

// CompileIntProg compiles a resolved int-typed node to bytecode, or nil.
func CompileIntProg(n Node) *Prog {
	b := newProgBuilder()
	b.compileInt(n, 0)
	b.emit(instr{Op: opRet, A: 0}, nil)
	return b.finish()
}

// CompileUpdateProg compiles an assignment list to bytecode, or nil. The
// program preserves StmtList.Apply's evaluation order: per statement, an
// array target's index expression evaluates (and range-checks) before the
// value; scalar targets evaluate the value directly.
func CompileUpdateProg(l StmtList) *Prog {
	b := newProgBuilder()
	for _, s := range l {
		switch t := s.Target.(type) {
		case *VarRef:
			b.compileInt(s.Value, 0)
			b.emit(instr{Op: opStoreVar, A: int32(t.Index), B: 0}, nil)
		case *ClockRef:
			b.compileInt(s.Value, 0)
			b.emit(instr{Op: opStoreClock, A: int32(t.Index), B: 0}, nil)
		case *DynVarRef:
			b.compileInt(t.Index, 0)
			b.emit(instr{Op: opCheckIdx, B: 0, K: int64(t.Len)}, t)
			b.compileInt(s.Value, 1)
			b.emit(instr{Op: opStoreDyn, A: 1, B: int32(t.Base), C: 0}, nil)
		default:
			b.ok = false
		}
	}
	return b.finish()
}

type progBuilder struct {
	code []instr
	src  []Node
	nreg int
	ok   bool
}

// newProgBuilder pre-sizes for the few instructions a typical guard or
// update compiles to, so a small program costs two slice allocations.
func newProgBuilder() *progBuilder {
	return &progBuilder{ok: true, code: make([]instr, 0, 8), src: make([]Node, 0, 8)}
}

func (b *progBuilder) finish() *Prog {
	if !b.ok {
		return nil
	}
	return &Prog{code: b.code, src: b.src, nreg: b.nreg}
}

func (b *progBuilder) emit(in instr, src Node) int {
	b.code = append(b.code, in)
	b.src = append(b.src, src)
	return len(b.code) - 1
}

// patch sets the jump target of instruction i to the current end of code.
func (b *progBuilder) patch(i int) { b.code[i].A = int32(len(b.code)) }

func (b *progBuilder) reg(r int32) {
	if int(r)+1 > b.nreg {
		b.nreg = int(r) + 1
	}
}

// compileBool emits code leaving the 0/1 value of n in register dst.
func (b *progBuilder) compileBool(n Node, dst int32) {
	if !b.ok {
		return
	}
	b.reg(dst)
	switch n := n.(type) {
	case *BoolLit:
		b.emit(instr{Op: opConst, A: dst, K: b2i(n.Val)}, nil)
	case *Unary:
		if n.Op != OpNot {
			b.ok = false
			return
		}
		b.compileBool(n.X, dst)
		b.emit(instr{Op: opNot, A: dst, B: dst}, nil)
	case *Binary:
		switch n.Op {
		case OpAnd:
			b.compileBool(n.X, dst)
			j := b.emit(instr{Op: opJz, B: dst}, nil)
			b.compileBool(n.Y, dst)
			b.patch(j)
		case OpOr:
			b.compileBool(n.X, dst)
			j := b.emit(instr{Op: opJnz, B: dst}, nil)
			b.compileBool(n.Y, dst)
			b.patch(j)
		case OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE:
			b.compileCmp(n, dst)
		default:
			b.ok = false
		}
	case *Cond:
		b.compileBool(n.C, dst)
		jz := b.emit(instr{Op: opJz, B: dst}, nil)
		b.compileBool(n.A, dst)
		jmp := b.emit(instr{Op: opJmp}, nil)
		b.patch(jz)
		b.compileBool(n.B, dst)
		b.patch(jmp)
	default:
		b.ok = false
	}
}

// cmpOp maps a comparison operator onto the register-register opcode; the
// superinstruction variants are derived by fixed offsets from this base.
func cmpOp(op Op) (opCode, bool) {
	switch op {
	case OpLT:
		return opLT, true
	case OpLE:
		return opLE, true
	case OpGT:
		return opGT, true
	case OpGE:
		return opGE, true
	case OpEQ:
		return opEQ, true
	case OpNE:
		return opNE, true
	}
	return 0, false
}

// mirrorCmp maps "const op x" onto the equivalent "x op' const".
func mirrorCmp(op Op) (Op, bool) {
	switch op {
	case OpLT:
		return OpGT, true
	case OpLE:
		return OpGE, true
	case OpGT:
		return OpLT, true
	case OpGE:
		return OpLE, true
	case OpEQ, OpNE:
		return op, true
	}
	return op, false
}

func (b *progBuilder) compileCmp(n *Binary, dst int32) {
	op, okOp := cmpOp(n.Op)
	if !okOp {
		b.ok = false
		return
	}
	if n.X.Type() == TypeBool || n.Y.Type() == TypeBool {
		// == and != over booleans; other operators are type errors the
		// tree walker reports canonically.
		if (n.Op != OpEQ && n.Op != OpNE) || n.X.Type() != TypeBool || n.Y.Type() != TypeBool {
			b.ok = false
			return
		}
		b.compileBool(n.X, dst)
		b.compileBool(n.Y, dst+1)
		b.emit(instr{Op: op, A: dst, B: dst, C: dst + 1}, nil)
		b.reg(dst + 1)
		return
	}
	// Superinstruction shapes: clock/var cmp const, possibly mirrored.
	x, y, sop := n.X, n.Y, n.Op
	if _, isLit := x.(*IntLit); isLit {
		if m, okM := mirrorCmp(sop); okM {
			x, y, sop = y, x, m
		}
	}
	if lit, okLit := y.(*IntLit); okLit {
		base, _ := cmpOp(sop)
		off := int32(base - opLT)
		switch r := x.(type) {
		case *ClockRef:
			b.emit(instr{Op: opClkLTK + opCode(off), A: dst, B: int32(r.Index), K: lit.Val}, nil)
			return
		case *VarRef:
			b.emit(instr{Op: opVarLTK + opCode(off), A: dst, B: int32(r.Index), K: lit.Val}, nil)
			return
		}
	}
	b.compileInt(n.X, dst)
	b.compileInt(n.Y, dst+1)
	b.emit(instr{Op: op, A: dst, B: dst, C: dst + 1}, nil)
	b.reg(dst + 1)
}

// compileInt emits code leaving the value of n in register dst.
func (b *progBuilder) compileInt(n Node, dst int32) {
	if !b.ok {
		return
	}
	b.reg(dst)
	switch n := n.(type) {
	case *IntLit:
		b.emit(instr{Op: opConst, A: dst, K: n.Val}, nil)
	case *VarRef:
		b.emit(instr{Op: opVar, A: dst, B: int32(n.Index)}, nil)
	case *ClockRef:
		b.emit(instr{Op: opClock, A: dst, B: int32(n.Index)}, nil)
	case *DynVarRef:
		b.compileInt(n.Index, dst)
		b.emit(instr{Op: opDyn, A: dst, B: int32(n.Base), C: dst, K: int64(n.Len)}, n)
	case *Unary:
		if n.Op != OpNeg {
			b.ok = false
			return
		}
		b.compileInt(n.X, dst)
		b.emit(instr{Op: opNeg, A: dst, B: dst}, nil)
	case *Binary:
		var op opCode
		var src Node
		switch n.Op {
		case OpAdd:
			op = opAdd
		case OpSub:
			op = opSub
		case OpMul:
			op = opMul
		case OpDiv:
			op, src = opDiv, n
		case OpMod:
			op, src = opMod, n
		default:
			b.ok = false
			return
		}
		b.compileInt(n.X, dst)
		b.compileInt(n.Y, dst+1)
		b.emit(instr{Op: op, A: dst, B: dst, C: dst + 1}, src)
		b.reg(dst + 1)
	case *Cond:
		b.compileBool(n.C, dst)
		jz := b.emit(instr{Op: opJz, B: dst}, nil)
		b.compileInt(n.A, dst)
		jmp := b.emit(instr{Op: opJmp}, nil)
		b.patch(jz)
		b.compileInt(n.B, dst)
		b.patch(jmp)
	default:
		b.ok = false
	}
}

// MatchCmpConst matches n as a comparison of a bare variable or clock
// against an integer literal, in either orientation (mirrored comparisons
// are normalized so the variable or clock is on the left). This is the
// dominant guard shape in interpretation; backends use the match to inline
// such guards without any call or dispatch at all.
func MatchCmpConst(n Node) (isClock bool, idx int, op Op, k int64, ok bool) {
	b, isBin := n.(*Binary)
	if !isBin {
		return false, 0, 0, 0, false
	}
	switch b.Op {
	case OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE:
	default:
		return false, 0, 0, 0, false
	}
	x, y, bop := b.X, b.Y, b.Op
	if _, isLit := x.(*IntLit); isLit {
		m, mok := mirrorCmp(bop)
		if !mok {
			return false, 0, 0, 0, false
		}
		x, y, bop = y, x, m
	}
	lit, isLit := y.(*IntLit)
	if !isLit {
		return false, 0, 0, 0, false
	}
	switch ref := x.(type) {
	case *VarRef:
		return false, ref.Index, bop, lit.Val, true
	case *ClockRef:
		return true, ref.Index, bop, lit.Val, true
	}
	return false, 0, 0, 0, false
}

// CmpConst is one flattened conjunct of a MatchCmpList match: a variable or
// clock compared against a constant.
type CmpConst struct {
	IsClock bool
	Idx     int32
	Op      Op
	K       int64
}

// MatchCmpList matches n as a conjunction (an && tree) of two or more
// MatchCmpConst leaves, appending the conjuncts to dst in evaluation order.
// Evaluating the list left to right with early-false exit is exactly &&'s
// short-circuit semantics, because compare-const leaves cannot fault; the
// compiled backend uses the match to run such guards as a tight compare loop
// with no interpreter dispatch. On failure dst is returned unchanged.
func MatchCmpList(n Node, dst []CmpConst) ([]CmpConst, bool) {
	mark := len(dst)
	dst, ok := appendCmpList(n, dst)
	if !ok || len(dst)-mark < 2 {
		return dst[:mark], false
	}
	return dst, true
}

func appendCmpList(n Node, dst []CmpConst) ([]CmpConst, bool) {
	if b, isBin := n.(*Binary); isBin && b.Op == OpAnd {
		dst, ok := appendCmpList(b.X, dst)
		if !ok {
			return dst, false
		}
		return appendCmpList(b.Y, dst)
	}
	isClock, idx, op, k, ok := MatchCmpConst(n)
	if !ok {
		return dst, false
	}
	return append(dst, CmpConst{IsClock: isClock, Idx: int32(idx), Op: op, K: k}), true
}
