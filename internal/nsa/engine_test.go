package nsa

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/sa"
)

func TestUrgentBroadcastBlocksDelay(t *testing.T) {
	b := NewBuilder()
	n := b.Var("n", 0)
	ck := b.Clock("t")
	ch := b.UrgentBroadcastChan("bang")
	sc := b.Scope()

	// Sender becomes enabled at t==0 (immediately); without urgency the
	// receiver-less broadcast could be delayed arbitrarily (no invariant).
	snd := sa.NewBuilder("S")
	snd.OwnClock(ck)
	s0 := snd.Loc("S0")
	s1 := snd.Loc("S1")
	snd.Init(s0)
	snd.SendEdge(s0, s1, nil, ch,
		&sa.ExprUpdate{Stmts: expr.MustParseResolveUpdate("n := t", sc)})
	b.Add(snd.MustBuild())
	net := b.MustBuild()

	eng := NewEngine(net, Options{Horizon: 50})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := eng.State().Vars[n]; got != 0 {
		t.Errorf("broadcast fired at t=%d, want 0 (urgent)", got)
	}
}

func TestListenerFuncAndSyncTraceKinds(t *testing.T) {
	b := NewBuilder()
	b.Var("x", 0)
	bc := b.BroadcastChan("bc")
	bin := b.Chan("bin")
	sc := b.Scope()

	ab := sa.NewBuilder("A")
	a0 := ab.Loc("A0", sa.Committed())
	a1 := ab.Loc("A1", sa.Committed())
	a2 := ab.Loc("A2", sa.Committed())
	a3 := ab.Loc("A3")
	ab.Init(a0)
	ab.Edge(a0, a1, nil, sa.None, &sa.ExprUpdate{Stmts: expr.MustParseResolveUpdate("x := 1", sc)})
	ab.SendEdge(a1, a2, nil, bc, nil)
	ab.SendEdge(a2, a3, nil, bin, nil)
	b.Add(ab.MustBuild())

	rb := sa.NewBuilder("R")
	r0 := rb.Loc("R0")
	r1 := rb.Loc("R1")
	rb.Init(r0)
	rb.RecvEdge(r0, r1, nil, bin, nil)
	b.Add(rb.MustBuild())
	net := b.MustBuild()

	var kinds []TransKind
	lf := ListenerFunc(func(_ int64, tr *Transition, _ *Network, _ *State) {
		kinds = append(kinds, tr.Kind)
	})
	st := &SyncTrace{}
	eng := NewEngine(net, Options{Horizon: 5, Listeners: []Listener{lf, st}})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []TransKind{Internal, Broadcast, BinarySync}
	if len(kinds) != 3 {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("kind %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if len(st.Events) != 3 || st.Events[0].Chan != -1 {
		t.Errorf("sync trace = %+v", st.Events)
	}
}

func TestChooserOutOfRange(t *testing.T) {
	net, _ := pingPong(t, 0, true)
	bad := chooserFunc(func(s *State, cands []Transition) int { return 99 })
	eng := NewEngine(net, Options{Horizon: 5, Chooser: bad})
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "chooser") {
		t.Errorf("err = %v", err)
	}
}

type chooserFunc func(s *State, cands []Transition) int

func (f chooserFunc) Choose(s *State, cands []Transition) int { return f(s, cands) }

func TestBadHorizon(t *testing.T) {
	net, _ := pingPong(t, 1, false)
	eng := NewEngine(net, Options{})
	if _, err := eng.Run(); err == nil {
		t.Error("zero horizon must error")
	}
	eng2 := NewEngine(net, Options{Horizon: -3})
	if _, err := eng2.Run(); err == nil {
		t.Error("negative horizon must error")
	}
}

func TestAdvanceNegativeDelay(t *testing.T) {
	net, _ := pingPong(t, 1, false)
	s := net.InitialState()
	if err := net.Advance(s, -1); err == nil {
		t.Error("negative delay must error")
	}
}

func TestAdvancePastInvariant(t *testing.T) {
	net, _ := pingPong(t, 3, false)
	s := net.InitialState()
	if err := net.Advance(s, 100); err == nil {
		t.Error("advancing past the invariant bound must error")
	}
}

func TestFireTargetInvariantViolation(t *testing.T) {
	// An edge that jumps into a location whose invariant is already false.
	b := NewBuilder()
	ck := b.Clock("t")
	sc := b.Scope()
	ab := sa.NewBuilder("A")
	ab.OwnClock(ck)
	l0 := ab.Loc("L0", sa.WithInvariant(mustInv(t, "t <= 10", sc)))
	bad := ab.Loc("Bad", sa.WithInvariant(mustInv(t, "t <= 2", sc)))
	ab.Init(l0)
	ab.Edge(l0, bad, sa.NewExprGuard(expr.MustParseResolve("t == 5", sc, expr.TypeBool)), sa.None, nil)
	b.Add(ab.MustBuild())
	net := b.MustBuild()
	_, _, err := Simulate(net, 20)
	if err == nil || !strings.Contains(err.Error(), "violating invariant") {
		t.Errorf("err = %v", err)
	}
}

func TestRandomChooserStillTerminates(t *testing.T) {
	// Random resolution over a committed cascade with several candidates.
	b := NewBuilder()
	b.Var("x", 0)
	sc := b.Scope()
	for i := 0; i < 4; i++ {
		ab := sa.NewBuilder(string(rune('A' + i)))
		l0 := ab.Loc("L0", sa.Committed())
		l1 := ab.Loc("L1")
		ab.Init(l0)
		ab.Edge(l0, l1, nil, sa.None, &sa.ExprUpdate{Stmts: expr.MustParseResolveUpdate("x := x + 1", sc)})
		b.Add(ab.MustBuild())
	}
	net := b.MustBuild()
	for seed := int64(0); seed < 10; seed++ {
		eng := NewEngine(net, Options{Horizon: 5, Chooser: RandomChooser{Rng: rand.New(rand.NewSource(seed))}})
		if _, err := eng.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := eng.State().Vars[0]; got != 4 {
			t.Errorf("seed %d: x = %d, want 4", seed, got)
		}
	}
}

func TestStoppedClocksHelper(t *testing.T) {
	b := NewBuilder()
	c1 := b.Clock("c1")
	c2 := b.Clock("c2")
	ab := sa.NewBuilder("A")
	ab.OwnClock(c1)
	ab.Loc("L0", sa.Stops(c1))
	ab.Init(0)
	b.Add(ab.MustBuild())
	net := b.MustBuild()
	s := net.InitialState()
	stopped := net.StoppedClocks(s, nil)
	if !stopped[c1] || stopped[c2] {
		t.Errorf("stopped = %v", stopped)
	}
	// Reuse with a provided buffer resets it.
	stopped[c2] = true
	stopped = net.StoppedClocks(s, stopped)
	if stopped[c2] {
		t.Error("buffer not reset")
	}
}

func TestClockOwnershipConflict(t *testing.T) {
	b := NewBuilder()
	ck := b.Clock("shared")
	a1 := sa.NewBuilder("A1")
	a1.OwnClock(ck)
	a1.Loc("L")
	a1.Init(0)
	a2 := sa.NewBuilder("A2")
	a2.OwnClock(ck)
	a2.Loc("L")
	a2.Init(0)
	b.Add(a1.MustBuild())
	b.Add(a2.MustBuild())
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "owned by both") {
		t.Errorf("err = %v", err)
	}
}

func TestUnknownChannelRejected(t *testing.T) {
	b := NewBuilder()
	ab := sa.NewBuilder("A")
	l := ab.Loc("L")
	ab.Init(l)
	ab.SendEdge(l, l, nil, 7, nil) // channel 7 was never declared
	b.Add(ab.MustBuild())
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unknown channel") {
		t.Errorf("err = %v", err)
	}
}

func TestUnknownClockRejected(t *testing.T) {
	b := NewBuilder()
	ab := sa.NewBuilder("A")
	ab.OwnClock(5)
	ab.Loc("L")
	ab.Init(0)
	b.Add(ab.MustBuild())
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unknown clock") {
		t.Errorf("err = %v", err)
	}
}

func TestDelayInfoStep(t *testing.T) {
	d := DelayInfo{Max: 10, Wake: 3}
	if d.Step() != 3 {
		t.Errorf("Step = %d", d.Step())
	}
	d = DelayInfo{Max: 2, Wake: expr.NoBound}
	if d.Step() != 2 {
		t.Errorf("Step = %d", d.Step())
	}
}

func TestLocationString(t *testing.T) {
	net, _ := pingPong(t, 1, false)
	s := net.InitialState()
	got := net.LocationString(s)
	if !strings.Contains(got, "A.Wait") || !strings.Contains(got, "B.Idle") {
		t.Errorf("LocationString = %q", got)
	}
}

// TestGuardPanicSameErrorOnBothBackends drives an expression-guard panic
// through the engine's recover boundary: the guard 10 / x > 0 compiles to
// bytecode and becomes reachable at t = 2 with x == 0. The compiled and
// naive backends must report the identical *SemanticsError.
func TestGuardPanicSameErrorOnBothBackends(t *testing.T) {
	b := NewBuilder()
	b.Var("x", 1)
	ck := b.Clock("t")
	sc := b.Scope()
	ab := sa.NewBuilder("A")
	ab.OwnClock(ck)
	l0 := ab.Loc("L0", sa.WithInvariant(mustInv(t, "t <= 2", sc)))
	l1 := ab.Loc("L1")
	l2 := ab.Loc("L2")
	ab.Init(l0)
	ab.Edge(l0, l1, sa.NewExprGuard(expr.MustParseResolve("t == 2", sc, expr.TypeBool)), sa.None,
		&sa.ExprUpdate{Stmts: expr.MustParseResolveUpdate("x := 0", sc)})
	ab.Edge(l1, l2, sa.NewExprGuard(expr.MustParseResolve("10 / x > 0", sc, expr.TypeBool)), sa.None, nil)
	b.Add(ab.MustBuild())
	net := b.MustBuild()

	cn := net.compiled()
	if g := cn.locs[cn.locBase[0]+int32(l1)].edges[0].gkind; g != gProg {
		t.Fatalf("guard tier = %d, want gProg (%d)", g, gProg)
	}
	var msgs []string
	for _, bk := range []Backend{BackendCompiled, BackendNaive} {
		_, err := NewEngine(net, Options{Horizon: 10, Backend: bk}).Run()
		var se *SemanticsError
		if !errors.As(err, &se) {
			t.Fatalf("%s: err = %v, want *SemanticsError", bk, err)
		}
		if se.Time != 2 || !strings.Contains(se.Msg, "division by zero") {
			t.Errorf("%s: err = %v, want division by zero at t=2", bk, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("backends disagree:\n compiled: %s\n naive:    %s", msgs[0], msgs[1])
	}
}
