package expr

import (
	"testing"
)

// evalTiers evaluates a bool node through all three tiers (tree walker,
// closure chain, bytecode VM) and checks they agree, returning the value.
func evalBoolTiers(t *testing.T, src string, vars, clocks []int64) bool {
	t.Helper()
	n := MustParseResolve(src, testScope(), TypeBool)
	tree := n.EvalBool(testEnv{vars: vars, clocks: clocks})
	closure := CompileBool(n)(vars, clocks)
	prog := CompileBoolProg(n)
	if prog == nil {
		t.Fatalf("%q: CompileBoolProg returned nil", src)
	}
	vm := prog.EvalBool(vars, clocks, make([]int64, prog.NumRegs()))
	if tree != closure || tree != vm {
		t.Fatalf("%q: tree=%t closure=%t vm=%t", src, tree, closure, vm)
	}
	return tree
}

func evalIntTiers(t *testing.T, src string, vars, clocks []int64) int64 {
	t.Helper()
	n := MustParseResolve(src, testScope(), TypeInt)
	tree := n.EvalInt(testEnv{vars: vars, clocks: clocks})
	closure := CompileInt(n)(vars, clocks)
	prog := CompileIntProg(n)
	if prog == nil {
		t.Fatalf("%q: CompileIntProg returned nil", src)
	}
	vm := prog.EvalInt(vars, clocks, make([]int64, prog.NumRegs()))
	if tree != closure || tree != vm {
		t.Fatalf("%q: tree=%d closure=%d vm=%d", src, tree, closure, vm)
	}
	return tree
}

func TestBytecodeBoolParity(t *testing.T) {
	exprs := []string{
		"true", "false",
		"t <= 10", "t < 10", "t >= 3", "t > 3", "t == 5", "t != 5",
		"5 >= t", "5 > t", "5 <= t", "5 < t", "5 == t", "5 != t",
		"x <= 4", "x < 4", "x >= 4", "x > 4", "x == 4", "x != 4",
		"4 == x", "4 != x",
		"!(x > 0)",
		"x > 0 && y > 0", "x > 0 || y > 0",
		"x != 0 && 10 / x > 1", // short circuit must protect the division
		"x == 0 || 10 / x > 1", // likewise for ||
		"(x > 0) == (y > 0)",   // bool equality
		"(x > 0) != (y > 0)",   // bool inequality
		"t - u >= x + y",       // reg-reg comparison
		"x + y * 2 - arr[1] / (y + 3) % 3 > t - u",
		"x > 0 ? t <= 10 : t > 10", // bool-valued conditional
	}
	envs := [][2][]int64{
		{{4, -2, 7, 8, 9}, {5, 0}},
		{{0, 1, 1, 2, 3}, {10, 4}},
		{{-3, 0, 0, 0, 0}, {3, 3}},
		{{5, 5, -1, -2, -3}, {11, 7}},
	}
	for _, src := range exprs {
		for _, e := range envs {
			evalBoolTiers(t, src, e[0], e[1])
		}
	}
	// Dynamic array access needs x-3 in [0,3).
	for _, e := range [][2][]int64{
		{{4, -2, 7, 8, 9}, {5, 0}},
		{{3, 1, 1, 2, 3}, {10, 4}},
	} {
		evalBoolTiers(t, "arr[x - 3] >= 8 || false", e[0], e[1])
	}
}

func TestBytecodeIntParity(t *testing.T) {
	exprs := []string{
		"7", "x", "y", "t", "u", "N", "-x", "x + y", "x - y", "x * y",
		"x / (y + 3)", "x % (y + 3)", "arr[0]", "arr[2]", "arr[x - 3]",
		"x > y ? x : y", "N * 2 + x", "t - u + arr[1]",
	}
	envs := [][2][]int64{
		{{4, -2, 7, 8, 9}, {5, 0}},
		{{3, 1, 1, 2, 3}, {10, 4}},
	}
	for _, src := range exprs {
		for _, e := range envs {
			evalIntTiers(t, src, e[0], e[1])
		}
	}
}

// TestBytecodeSuperinstructions pins that the dominant guard shapes compile
// to a single comparison instruction plus the return.
func TestBytecodeSuperinstructions(t *testing.T) {
	for _, src := range []string{"t <= 10", "t < 10", "5 > t", "x == 4", "10 <= x", "u != 0"} {
		n := MustParseResolve(src, testScope(), TypeBool)
		prog := CompileBoolProg(n)
		if prog == nil {
			t.Fatalf("%q: not compiled", src)
		}
		if prog.Len() != 2 {
			t.Errorf("%q compiled to %d instructions, want 2 (cmp + ret)", src, prog.Len())
		}
	}
}

// capture runs f and returns the message of the *RuntimeError it panics
// with ("" when it returns normally).
func capture(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(*RuntimeError)
			if !ok {
				t.Fatalf("panic %v (%T), want *RuntimeError", r, r)
			}
			msg = re.Error()
		}
	}()
	f()
	return ""
}

func TestBytecodePanicParity(t *testing.T) {
	cases := []struct {
		src  string
		vars []int64
	}{
		{"x / y", []int64{4, 0, 0, 0, 0}},      // division by zero
		{"x % y", []int64{4, 0, 0, 0, 0}},      // modulo by zero
		{"arr[x]", []int64{5, 0, 0, 0, 0}},     // index out of range (high)
		{"arr[y]", []int64{0, -1, 0, 0, 0}},    // index out of range (negative)
		{"arr[x] / y", []int64{9, 0, 0, 0, 0}}, // index panic fires before the division
	}
	clocks := []int64{0, 0}
	for _, c := range cases {
		n := MustParseResolve(c.src, testScope(), TypeInt)
		closureMsg := capture(t, func() { CompileInt(n)(c.vars, clocks) })
		prog := CompileIntProg(n)
		if prog == nil {
			t.Fatalf("%q: not compiled", c.src)
		}
		regs := make([]int64, prog.NumRegs())
		vmMsg := capture(t, func() { prog.EvalInt(c.vars, clocks, regs) })
		if closureMsg == "" || closureMsg != vmMsg {
			t.Errorf("%q: closure panic %q, vm panic %q", c.src, closureMsg, vmMsg)
		}
	}
}

// boundedEnv mirrors the engine's state environment: stores enforce
// declared domains with the shared DomainError.
type boundedEnv struct {
	vars, clocks []int64
	domains      []VarDomain
}

func (e *boundedEnv) Var(i int) int64   { return e.vars[i] }
func (e *boundedEnv) Clock(i int) int64 { return e.clocks[i] }
func (e *boundedEnv) SetVar(i int, v int64) {
	d := &e.domains[i]
	if d.Bounded && (v < d.Min || v > d.Max) {
		panic(DomainError(v, d.Min, d.Max, d.Name))
	}
	e.vars[i] = v
}
func (e *boundedEnv) SetClock(i int, v int64) { e.clocks[i] = v }

func testDomains() []VarDomain {
	return []VarDomain{
		{Name: "x", Min: -10, Max: 10, Bounded: true},
		{Name: "y"},
		{Name: "arr[0]", Min: 0, Max: 100, Bounded: true},
		{Name: "arr[1]", Min: 0, Max: 100, Bounded: true},
		{Name: "arr[2]", Min: 0, Max: 100, Bounded: true},
	}
}

func TestBytecodeUpdateParity(t *testing.T) {
	updates := []string{
		"x = x + 1",
		"t = 0",
		"x = y * 2, y = x", // sequential: second stmt sees first's write
		"arr[x - 3] = arr[0] + 5",
		"arr[2] = arr[2] + 1, u = t + 1",
		"x = y != 0 ? x / y : 0",
	}
	for _, src := range updates {
		l := MustParseResolveUpdate(src, testScope())
		vars1 := []int64{4, 2, 7, 8, 9}
		clocks1 := []int64{5, 1}
		l.Apply(&boundedEnv{vars: vars1, clocks: clocks1, domains: testDomains()})

		prog := CompileUpdateProg(l)
		if prog == nil {
			t.Fatalf("%q: CompileUpdateProg returned nil", src)
		}
		vars2 := []int64{4, 2, 7, 8, 9}
		clocks2 := []int64{5, 1}
		prog.Exec(vars2, clocks2, make([]int64, prog.NumRegs()), testDomains())

		for i := range vars1 {
			if vars1[i] != vars2[i] {
				t.Errorf("%q: vars[%d] env=%d vm=%d", src, i, vars1[i], vars2[i])
			}
		}
		for i := range clocks1 {
			if clocks1[i] != clocks2[i] {
				t.Errorf("%q: clocks[%d] env=%d vm=%d", src, i, clocks1[i], clocks2[i])
			}
		}
	}
}

func TestBytecodeUpdatePanicParity(t *testing.T) {
	cases := []struct {
		src  string
		vars []int64
	}{
		{"x = x * 100", []int64{4, 0, 0, 0, 0}},    // domain violation on x
		{"arr[y] = 1", []int64{0, 7, 0, 0, 0}},     // target index out of range
		{"arr[y] = 1 / x", []int64{0, 7, 0, 0, 0}}, // index panic fires before value eval
		{"x = 1 / y", []int64{4, 0, 0, 0, 0}},      // value panic before store
		{"arr[0] = -1", []int64{0, 0, 5, 0, 0}},    // domain violation through array
	}
	for _, c := range cases {
		l := MustParseResolveUpdate(c.src, testScope())
		vars1 := append([]int64(nil), c.vars...)
		clocks1 := []int64{0, 0}
		envMsg := capture(t, func() {
			l.Apply(&boundedEnv{vars: vars1, clocks: clocks1, domains: testDomains()})
		})

		prog := CompileUpdateProg(l)
		if prog == nil {
			t.Fatalf("%q: not compiled", c.src)
		}
		vars2 := append([]int64(nil), c.vars...)
		clocks2 := []int64{0, 0}
		vmMsg := capture(t, func() {
			prog.Exec(vars2, clocks2, make([]int64, prog.NumRegs()), testDomains())
		})
		if envMsg == "" || envMsg != vmMsg {
			t.Errorf("%q: env panic %q, vm panic %q", c.src, envMsg, vmMsg)
		}
	}
}

// TestBytecodeRejectsOpaque pins that the compiler bails (returns nil) on
// nodes it cannot prove well-typed, leaving them to the closure fallback.
func TestBytecodeRejectsOpaque(t *testing.T) {
	if CompileBoolProg(&Ident{Name: "z"}) != nil {
		t.Error("unresolved identifier compiled")
	}
	if CompileIntProg(&Ident{Name: "z"}) != nil {
		t.Error("unresolved int identifier compiled")
	}
	// Type confusion: int op over a bool operand.
	if CompileIntProg(&Binary{Op: OpAdd, X: &BoolLit{Val: true}, Y: &IntLit{Val: 1}}) != nil {
		t.Error("bool-operand addition compiled")
	}
	// && over an int operand (EvalBool would raise a type error).
	if CompileBoolProg(&Binary{Op: OpAnd, X: &VarRef{Index: 0, Name: "x"}, Y: &BoolLit{Val: true}}) != nil {
		t.Error("int-operand conjunction compiled")
	}
	if CompileUpdateProg(StmtList{{Target: &IntLit{Val: 1}, Value: &IntLit{Val: 2}}}) != nil {
		t.Error("invalid assignment target compiled")
	}
	// One bad statement poisons the whole program.
	l := MustParseResolveUpdate("x = 1", testScope())
	l = append(l, Stmt{Target: &IntLit{Val: 1}, Value: &IntLit{Val: 2}})
	if CompileUpdateProg(l) != nil {
		t.Error("update list with invalid tail compiled")
	}
}

func TestBytecodeZeroAllocEval(t *testing.T) {
	n := MustParseResolve("t <= 10 && x * 3 + 1 > 2 && arr[x - 3] >= 0", testScope(), TypeBool)
	prog := CompileBoolProg(n)
	if prog == nil {
		t.Fatal("not compiled")
	}
	vars := []int64{4, 0, 1, 2, 3}
	clocks := []int64{5, 0}
	regs := make([]int64, prog.NumRegs())
	allocs := testing.AllocsPerRun(100, func() {
		prog.EvalBool(vars, clocks, regs)
	})
	if allocs != 0 {
		t.Errorf("EvalBool allocates %v/op, want 0", allocs)
	}
}
