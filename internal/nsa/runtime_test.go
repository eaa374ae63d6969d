package nsa

import (
	"math/rand"
	"strings"
	"testing"

	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/sa"
)

func TestTimeHeapGenerationInvalidation(t *testing.T) {
	var h timeHeap
	gens := []uint32{0, 0, 0}
	h.push(10, 0, 0)
	h.push(5, 1, 0)
	h.push(7, 2, 0)
	if abs, ok := h.min(gens); !ok || abs != 5 {
		t.Fatalf("min = %d,%v want 5,true", abs, ok)
	}
	// Supersede automaton 1: its entry must be skipped lazily.
	gens[1] = 1
	h.push(9, 1, 1)
	if abs, ok := h.min(gens); !ok || abs != 7 {
		t.Fatalf("min after invalidation = %d,%v want 7,true", abs, ok)
	}
	// Supersede everything: heap drains to empty.
	gens[0], gens[1], gens[2] = 2, 2, 2
	if _, ok := h.min(gens); ok {
		t.Fatal("min on fully stale heap must report empty")
	}
	if len(h.e) != 0 {
		t.Fatalf("lazy deletion left %d entries", len(h.e))
	}
}

func TestTimeHeapCompact(t *testing.T) {
	var h timeHeap
	gens := make([]uint32, 4)
	// Many stale generations of the same automata.
	for g := uint32(0); g < 50; g++ {
		for aut := int32(0); aut < 4; aut++ {
			h.push(int64(100-g), aut, g)
			gens[aut] = g
		}
	}
	h.compact(gens)
	if len(h.e) != 4 {
		t.Fatalf("compact kept %d entries, want 4", len(h.e))
	}
	if abs, ok := h.min(gens); !ok || abs != 51 {
		t.Fatalf("min after compact = %d,%v want 51,true", abs, ok)
	}
}

// stopResumeNet builds a stopwatch scenario: W's clock c runs toward an
// invariant bound c <= 10 with a completion guard c == 10, while driver D
// pauses c (location with Stops) during [3,5). The deadline heap must track
// the expiry moving from t=10 to t=12 across the stop and resume.
func stopResumeNet(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder()
	c := b.Clock("c")
	d := b.Clock("d")
	pause := b.Chan("pause")
	resume := b.Chan("resume")
	sc := b.Scope()

	wb := sa.NewBuilder("W")
	wb.OwnClock(c)
	run := wb.Loc("Run", sa.WithInvariant(mustInv(t, "c <= 10", sc)))
	paused := wb.Loc("Paused", sa.Stops(c))
	done := wb.Loc("Done")
	wb.Init(run)
	wb.Edge(run, done, sa.NewExprGuard(expr.MustParseResolve("c == 10", sc, expr.TypeBool)), sa.None, nil)
	wb.RecvEdge(run, paused, nil, pause, nil)
	wb.RecvEdge(paused, run, nil, resume, nil)

	db := sa.NewBuilder("D")
	db.OwnClock(d)
	l0 := db.Loc("L0", sa.WithInvariant(mustInv(t, "d <= 3", sc)))
	l1 := db.Loc("L1", sa.WithInvariant(mustInv(t, "d <= 5", sc)))
	l2 := db.Loc("L2")
	db.Init(l0)
	db.SendEdge(l0, l1, sa.NewExprGuard(expr.MustParseResolve("d == 3", sc, expr.TypeBool)), pause, nil)
	db.SendEdge(l1, l2, sa.NewExprGuard(expr.MustParseResolve("d == 5", sc, expr.TypeBool)), resume, nil)

	b.Add(wb.MustBuild())
	b.Add(db.MustBuild())
	return b.MustBuild()
}

func TestRuntimeDeadlineHeapStopResume(t *testing.T) {
	net := stopResumeNet(t)
	// CheckEngine verifies the compiled runtime's candidate sets and delay
	// bounds against the naive enumeration at every step.
	eng := NewEngine(net, Options{Horizon: 100, CheckEngine: true})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiescent {
		t.Errorf("result = %+v, want quiescent", res)
	}
	s := eng.State()
	if s.Time != 12 {
		t.Errorf("final time = %d, want 12 (2 units spent paused)", s.Time)
	}
	if got := net.Automata[0].LocationName(s.Locs[0]); got != "Done" {
		t.Errorf("W ended in %s, want Done", got)
	}
}

// TestRuntimeDelayBoundsStopResume drives the compiled runtime directly and
// compares its delay bounds against the naive DelayBound at each phase of
// the stop/resume schedule.
func TestRuntimeDelayBoundsStopResume(t *testing.T) {
	net := stopResumeNet(t)
	s := net.InitialState()
	rt := newCompiledRuntime(net, s, nil)

	check := func(stage string, wantMax int64) {
		t.Helper()
		cands := rt.enabled(nil)
		if len(cands) != 0 {
			t.Fatalf("%s: unexpected candidates %v", stage, cands)
		}
		info := rt.delayBound()
		naive := net.DelayBound(s)
		if info != naive {
			t.Fatalf("%s: runtime delay %+v != naive %+v", stage, info, naive)
		}
		if info.Max != wantMax {
			t.Fatalf("%s: Max = %d, want %d", stage, info.Max, wantMax)
		}
	}
	fire := func(stage string) {
		t.Helper()
		cands := rt.enabled(nil)
		if len(cands) != 1 {
			t.Fatalf("%s: candidates = %v, want exactly one", stage, cands)
		}
		if err := rt.fire(&cands[0]); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	advance := func(d int64) {
		t.Helper()
		if err := rt.advance(d); err != nil {
			t.Fatal(err)
		}
	}

	check("initial", 3) // D's d <= 3 binds before W's c <= 10
	advance(3)
	fire("pause") // c stops at 3; W's expiry must stretch to NoBound's backstop via D
	check("paused", 2)
	advance(2)
	fire("resume") // c resumes at 3, expiry becomes t=5+(10-3)=12
	check("resumed", 7)
	advance(7)
	fire("complete")
	check("final", expr.NoBound)
}

func TestRandomChooserEmptyCandidates(t *testing.T) {
	ch := RandomChooser{Rng: rand.New(rand.NewSource(1))}
	if got := ch.Choose(nil, nil); got != -1 {
		t.Errorf("Choose(empty) = %d, want -1", got)
	}
}

// TestRandomChooserDeadlockDiagnosis: a network that deadlocks must surface
// the structured deadlock error with RandomChooser too (historically the
// chooser panicked before the engine could diagnose the empty set).
func TestRandomChooserDeadlockDiagnosis(t *testing.T) {
	b := NewBuilder()
	ck := b.Clock("t")
	sc := b.Scope()
	ab := sa.NewBuilder("A")
	ab.OwnClock(ck)
	wait := ab.Loc("Wait", sa.WithInvariant(mustInv(t, "t <= 2", sc)))
	ab.Init(wait)
	// No edge discharges the invariant: timelock at t=2.
	b.Add(ab.MustBuild())
	net := b.MustBuild()

	eng := NewEngine(net, Options{Horizon: 10, Chooser: RandomChooser{Rng: rand.New(rand.NewSource(7))}})
	_, err := eng.Run()
	var dl *DeadlockError
	if !asDeadlock(err, &dl) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if !strings.Contains(err.Error(), "invariant bounds delay") {
		t.Errorf("err = %v", err)
	}
}

func asDeadlock(err error, out **DeadlockError) bool {
	if de, ok := err.(*DeadlockError); ok {
		*out = de
		return true
	}
	return false
}

// TestCheckEngineUrgentBroadcast exercises the compiled runtime's urgent and
// broadcast handling (urgent broadcast sender, multi-receiver cartesian
// products, committed relays) under per-step differential checking.
func TestCheckEngineUrgentBroadcast(t *testing.T) {
	b := NewBuilder()
	n1 := b.Var("n1", 0)
	ck := b.Clock("t")
	tick := b.BroadcastChan("tick")
	kick := b.UrgentBroadcastChan("kick")
	sc := b.Scope()

	sb := sa.NewBuilder("S")
	sb.OwnClock(ck)
	l0 := sb.Loc("L0", sa.WithInvariant(mustInv(t, "t <= 4", sc)))
	l1 := sb.Loc("L1", sa.Committed())
	l2 := sb.Loc("L2")
	sb.Init(l0)
	sb.SendEdge(l0, l1, sa.NewExprGuard(expr.MustParseResolve("t == 4", sc, expr.TypeBool)), tick, nil)
	sb.SendEdge(l1, l2, nil, kick, nil)

	mk := func(name string) *sa.Automaton {
		rb := sa.NewBuilder(name)
		idle := rb.Loc("Idle")
		got := rb.Loc("Got")
		fin := rb.Loc("Fin")
		rb.Init(idle)
		rb.RecvEdge(idle, got, nil, tick,
			&sa.ExprUpdate{Stmts: expr.MustParseResolveUpdate("n1 := n1 + 1", sc)})
		rb.RecvEdge(got, fin, nil, kick, nil)
		return rb.MustBuild()
	}
	b.Add(sb.MustBuild())
	b.Add(mk("R1"))
	b.Add(mk("R2"))
	net := b.MustBuild()

	eng := NewEngine(net, Options{Horizon: 50, CheckEngine: true})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiescent {
		t.Errorf("result = %+v", res)
	}
	if got := eng.State().Vars[n1]; got != 2 {
		t.Errorf("n1 = %d, want 2 (both receivers moved)", got)
	}
}
