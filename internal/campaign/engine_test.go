package campaign

import (
	"context"
	"testing"
	"time"

	"stopwatchsim/internal/analysis"
	"stopwatchsim/internal/config"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/store"
)

// bdSystem is the breakdown reference: one task C=10, T=D=40 on a full
// window. analysis.CriticalScaling pins its critical WCET scale at 409%
// (409% of 10 truncates to 40 = the deadline; 410% yields 41).
func bdSystem() *config.System {
	return &config.System{
		Name:      "bd",
		CoreTypes: []string{"cpu"},
		Cores:     []config.Core{{Name: "c1", Type: 0, Module: 1}},
		Partitions: []config.Partition{{
			Name: "P1", Core: 0, Policy: config.FPPS,
			Tasks: []config.Task{
				{Name: "T", Priority: 1, WCET: []int64{10}, Period: 40, Deadline: 40},
			},
			Windows: []config.Window{{Start: 0, End: 40}},
		}},
	}
}

// runCampaign starts spec on a fresh engine and waits for the terminal
// state.
func runCampaign(t *testing.T, eng *Engine, spec *Spec) State {
	t.Helper()
	st, err := eng.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Minute)
	defer cancel()
	final, err := eng.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return final
}

func TestGridCampaign(t *testing.T) {
	pool := jobs.New(jobs.Options{Workers: 2})
	defer pool.Close()
	eng := NewEngine(pool, nil, nil)

	spec := &Spec{
		Name:     "grid",
		Strategy: StrategyGrid,
		Base:     bdSystem(),
		Axes:     []Axis{{Param: ParamWCETPct, Min: 100, Max: 500, Step: 100}},
		Parallel: 2,
	}
	final := runCampaign(t, eng, spec)
	if final.Status != StatusDone {
		t.Fatalf("status = %s (%s)", final.Status, final.Error)
	}
	if len(final.Points) != 5 {
		t.Fatalf("evaluated %d points, want 5", len(final.Points))
	}
	// Schedulable through 400%, not at 500%.
	want := map[float64]bool{100: true, 200: true, 300: true, 400: true, 500: false}
	for _, p := range final.Points {
		v := p.Point[ParamWCETPct]
		if p.Schedulable != want[v] {
			t.Errorf("wcet_pct=%g schedulable=%v, want %v", v, p.Schedulable, want[v])
		}
		if p.Fingerprint == "" || p.Source == SourceFailed {
			t.Errorf("point %s: fingerprint=%q source=%s", p.Point.Key(), p.Fingerprint, p.Source)
		}
	}
	if final.Convergence.Evaluations != 5 {
		t.Errorf("evaluations = %d, want 5", final.Convergence.Evaluations)
	}

	// Re-starting the identical spec returns the completed campaign
	// without re-running anything (content-addressed identity).
	again, err := eng.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != final.ID || again.Status != StatusDone {
		t.Fatalf("restart: id=%s status=%s", again.ID, again.Status)
	}
	if m := eng.Metrics(); m.Started != 1 {
		t.Errorf("started = %d, want 1", m.Started)
	}
}

// TestBisectMatchesGrid is the acceptance criterion: breakdown bisection
// converges to the same critical point an exhaustive sweep finds.
func TestBisectMatchesGrid(t *testing.T) {
	pool := jobs.New(jobs.Options{Workers: 2})
	defer pool.Close()
	eng := NewEngine(pool, nil, nil)

	bis := runCampaign(t, eng, &Spec{
		Name:     "bisect",
		Strategy: StrategyBisect,
		Base:     bdSystem(),
		Axes:     []Axis{{Param: ParamWCETPct, Min: 100, Max: 500, Tol: 1}},
	})
	if bis.Status != StatusDone {
		t.Fatalf("bisect status = %s (%s)", bis.Status, bis.Error)
	}
	if bis.Critical == nil {
		t.Fatal("bisect found no critical point")
	}

	// Exhaustive scan at the same resolution over the bracketing window.
	grid := runCampaign(t, eng, &Spec{
		Name:     "scan",
		Strategy: StrategyGrid,
		Base:     bdSystem(),
		Axes:     []Axis{{Param: ParamWCETPct, Min: 400, Max: 420, Step: 1}},
	})
	if grid.Status != StatusDone {
		t.Fatalf("grid status = %s (%s)", grid.Status, grid.Error)
	}
	sweepCritical := 0.0
	for _, p := range grid.Points {
		if p.Schedulable && p.Point[ParamWCETPct] > sweepCritical {
			sweepCritical = p.Point[ParamWCETPct]
		}
	}
	if sweepCritical != 409 {
		t.Fatalf("exhaustive sweep critical = %g, want 409", sweepCritical)
	}
	if *bis.Critical != sweepCritical {
		t.Fatalf("bisect critical %g != sweep critical %g", *bis.Critical, sweepCritical)
	}
	// The witness bracket localizes the breakdown to one tol-wide step:
	// critical itself schedulable, critical+tol unschedulable.
	if b := bis.Bracket; b == nil || b.Feasible == nil || b.Infeasible == nil ||
		*b.Feasible != 409 || *b.Infeasible != 410 {
		t.Fatalf("bisect bracket = %+v, want [409 schedulable, 410 unschedulable]", bis.Bracket)
	}
	// Bisection must be cheaper than scanning the full range.
	if bis.Convergence.Evaluations >= 40 {
		t.Errorf("bisect used %d evaluations", bis.Convergence.Evaluations)
	}
}

func TestBisectDegenerateEnds(t *testing.T) {
	pool := jobs.New(jobs.Options{Workers: 1})
	defer pool.Close()
	eng := NewEngine(pool, nil, nil)

	// Everything schedulable: critical is the axis maximum.
	hi := runCampaign(t, eng, &Spec{
		Name: "all-ok", Strategy: StrategyBisect, Base: bdSystem(),
		Axes: []Axis{{Param: ParamWCETPct, Min: 50, Max: 300, Tol: 1}},
	})
	if hi.Status != StatusDone || hi.Critical == nil || *hi.Critical != 300 {
		t.Fatalf("all-schedulable: status=%s critical=%v", hi.Status, hi.Critical)
	}
	if b := hi.Bracket; b == nil || b.Feasible == nil || *b.Feasible != 300 || b.Infeasible != nil {
		t.Fatalf("all-schedulable bracket = %+v, want feasible 300 only", hi.Bracket)
	}
	// Nothing schedulable: critical is nil.
	lo := runCampaign(t, eng, &Spec{
		Name: "none-ok", Strategy: StrategyBisect, Base: bdSystem(),
		Axes: []Axis{{Param: ParamWCETPct, Min: 500, Max: 900, Tol: 1}},
	})
	if lo.Status != StatusDone || lo.Critical != nil {
		t.Fatalf("none-schedulable: status=%s critical=%v", lo.Status, lo.Critical)
	}
	if b := lo.Bracket; b == nil || b.Infeasible == nil || *b.Infeasible != 500 || b.Feasible != nil {
		t.Fatalf("none-schedulable bracket = %+v, want infeasible 500 only", lo.Bracket)
	}
}

func TestFrontierCampaign(t *testing.T) {
	base := bdSystem()
	base.Partitions[0].Policy = config.RR
	base.Partitions[0].Quantum = 1

	pool := jobs.New(jobs.Options{Workers: 2})
	defer pool.Close()
	eng := NewEngine(pool, nil, nil)

	final := runCampaign(t, eng, &Spec{
		Name:     "frontier",
		Strategy: StrategyFrontier,
		Base:     base,
		Axes: []Axis{
			{Param: ParamQuantum, Min: 1, Max: 3, Step: 1},
			{Param: ParamWCETPct, Min: 100, Max: 500, Tol: 1},
		},
	})
	if final.Status != StatusDone {
		t.Fatalf("status = %s (%s)", final.Status, final.Error)
	}
	if len(final.Frontier) != 3 {
		t.Fatalf("frontier rows = %d, want 3", len(final.Frontier))
	}
	// A single task ignores the RR quantum, so every row's critical point
	// is the FPPS breakdown value, and rows after the first must reuse the
	// previous row's bracket.
	for _, r := range final.Frontier {
		if r.Critical == nil || *r.Critical != 409 {
			t.Errorf("row %g: critical = %v, want 409", r.Row, r.Critical)
		}
	}
	if final.Convergence.BracketReuses != 2 {
		t.Errorf("bracket reuses = %d, want 2", final.Convergence.BracketReuses)
	}
	if final.Convergence.FrontierRows != 3 {
		t.Errorf("frontier rows counter = %d, want 3", final.Convergence.FrontierRows)
	}
}

// TestResumeSkipsCompleted is the crash-resume contract: a campaign whose
// checkpoint lost its last points (simulated crash between checkpoints)
// resumes on a fresh engine and pool, answers the retained points from the
// checkpoint without touching the pool, and completes only the remainder.
func TestResumeSkipsCompleted(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{PinnedKinds: []string{StoreKind()}})
	if err != nil {
		t.Fatal(err)
	}

	spec := &Spec{
		Name:     "resume",
		Strategy: StrategyGrid,
		Base:     bdSystem(),
		Axes:     []Axis{{Param: ParamWCETPct, Min: 100, Max: 500, Step: 50}},
		Parallel: 1,
	}

	pool1 := jobs.New(jobs.Options{Workers: 1, Store: st})
	eng1 := NewEngine(pool1, st, nil)
	final := runCampaign(t, eng1, spec)
	if final.Status != StatusDone {
		t.Fatalf("first run status = %s (%s)", final.Status, final.Error)
	}
	total := len(final.Points)
	if total != 9 {
		t.Fatalf("first run evaluated %d points, want 9", total)
	}
	pool1.Close()

	// Rewind the checkpoint: drop the last 3 points and mark the campaign
	// running again, as if the process died before they were recorded.
	rewound := final.clone()
	rewound.Points = rewound.Points[:total-3]
	rewound.Status = StatusRunning
	if err := st.Put(StoreKind(), rewound.ID, &rewound); err != nil {
		t.Fatal(err)
	}
	// Drop the pool-tier outcomes for those 3 points too, so resume must
	// actually recompute them (not just disk-hit).
	for _, p := range final.Points[total-3:] {
		if err := st.Delete("outcome", p.Fingerprint); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// "Restart": reopen the store, fresh pool and engine, ResumeAll.
	st2, err := store.Open(dir, store.Options{PinnedKinds: []string{StoreKind()}})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	pool2 := jobs.New(jobs.Options{Workers: 1, Store: st2})
	defer pool2.Close()
	eng2 := NewEngine(pool2, st2, nil)

	resumed := eng2.ResumeAll()
	if len(resumed) != 1 || resumed[0] != final.ID {
		t.Fatalf("resumed = %v, want [%s]", resumed, final.ID)
	}
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Minute)
	defer cancel()
	done, err := eng2.Wait(ctx, final.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("resumed status = %s (%s)", done.Status, done.Error)
	}
	if len(done.Points) != total {
		t.Fatalf("resumed campaign has %d points, want %d", len(done.Points), total)
	}
	// The retained points answer from the checkpoint; exactly the dropped
	// 3 go through the pool and are recomputed.
	if got := done.Convergence.CheckpointHits; got != total-3 {
		t.Errorf("checkpoint hits = %d, want %d", got, total-3)
	}
	m := eng2.Metrics()
	if m.PointsCheckpoint != int64(total-3) {
		t.Errorf("points_checkpoint = %d, want %d", m.PointsCheckpoint, total-3)
	}
	if m.PointsComputed != 3 {
		t.Errorf("points_computed = %d, want 3", m.PointsComputed)
	}
	if pm := pool2.Metrics(); pm.Done != 3 {
		t.Errorf("pool finished %d jobs, want 3", pm.Done)
	}
	if m.Resumed != 1 {
		t.Errorf("resumed counter = %d, want 1", m.Resumed)
	}
}

// TestResumeDiskTier covers the other crash window: points the pool
// persisted but whose campaign checkpoint was lost entirely resume via the
// disk tier without re-running the engine.
func TestResumeDiskTier(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{PinnedKinds: []string{StoreKind()}})
	if err != nil {
		t.Fatal(err)
	}

	spec := &Spec{
		Name:     "disk-resume",
		Strategy: StrategyGrid,
		Base:     bdSystem(),
		Axes:     []Axis{{Param: ParamWCETPct, Min: 100, Max: 300, Step: 100}},
		Parallel: 1,
	}
	pool1 := jobs.New(jobs.Options{Workers: 1, Store: st})
	eng1 := NewEngine(pool1, st, nil)
	final := runCampaign(t, eng1, spec)
	if final.Status != StatusDone {
		t.Fatalf("first run status = %s", final.Status)
	}
	pool1.Close()
	// Lose the campaign checkpoint but keep the pool outcomes.
	if err := st.Delete(StoreKind(), final.ID); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := store.Open(dir, store.Options{PinnedKinds: []string{StoreKind()}})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	pool2 := jobs.New(jobs.Options{Workers: 1, Store: st2})
	defer pool2.Close()
	eng2 := NewEngine(pool2, st2, nil)
	redo := runCampaign(t, eng2, spec)
	if redo.Status != StatusDone {
		t.Fatalf("redo status = %s (%s)", redo.Status, redo.Error)
	}
	for _, p := range redo.Points {
		if p.Source != SourceDisk {
			t.Errorf("point %s source = %s, want %s", p.Point.Key(), p.Source, SourceDisk)
		}
	}
	if m := eng2.Metrics(); m.PointsCacheDisk != 3 || m.PointsComputed != 0 {
		t.Errorf("disk=%d computed=%d, want 3/0", m.PointsCacheDisk, m.PointsComputed)
	}
}

func TestCancelCampaign(t *testing.T) {
	pool := jobs.New(jobs.Options{Workers: 1})
	defer pool.Close()
	eng := NewEngine(pool, nil, nil)

	// A wide, fine grid gives cancellation a window to land in.
	st, err := eng.Start(&Spec{
		Name:      "cancel",
		Strategy:  StrategyGrid,
		Base:      bdSystem(),
		Axes:      []Axis{{Param: ParamWCETPct, Min: 100, Max: 2000, Step: 1}},
		Parallel:  1,
		MaxPoints: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Cancel(st.ID) {
		// The campaign may already have finished on a fast machine; accept
		// either terminal outcome below.
		t.Log("cancel raced completion")
	}
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Minute)
	defer cancel()
	final, err := eng.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCanceled && final.Status != StatusDone {
		t.Fatalf("status = %s (%s)", final.Status, final.Error)
	}
	if eng.Cancel(st.ID) {
		t.Error("canceling a terminal campaign reported success")
	}
}

func TestUnknownCampaign(t *testing.T) {
	pool := jobs.New(jobs.Options{Workers: 1})
	defer pool.Close()
	eng := NewEngine(pool, nil, nil)
	if _, ok := eng.Get("nope"); ok {
		t.Error("Get on unknown id succeeded")
	}
	if eng.Cancel("nope") {
		t.Error("Cancel on unknown id succeeded")
	}
	if _, err := eng.Wait(context.Background(), "nope"); err != ErrUnknownCampaign {
		t.Errorf("Wait err = %v", err)
	}
}

// headroomSystem is schedulable at 100% with headroom that runs out well
// before 400%: hi C=2/P=10 and lo C=9/P=20 on one core.
func headroomSystem() *config.System {
	return &config.System{
		Name:      "headroom",
		CoreTypes: []string{"cpu"},
		Cores:     []config.Core{{Name: "c1", Type: 0, Module: 1}},
		Partitions: []config.Partition{{
			Name: "P1", Core: 0, Policy: config.FPPS,
			Tasks: []config.Task{
				{Name: "hi", Priority: 2, WCET: []int64{2}, Period: 10, Deadline: 10},
				{Name: "lo", Priority: 1, WCET: []int64{9}, Period: 20, Deadline: 20},
			},
			Windows: []config.Window{{Start: 0, End: 20}},
		}},
	}
}

// TestGridAndBisectAgreeWithCriticalScaling: analysis.CriticalScaling is
// the oracle of the WCET breakdown search. An exhaustive grid must match
// the serial simulator at every point and top out at the oracle's
// critical percentage, and bisection must converge to the same value.
func TestGridAndBisectAgreeWithCriticalScaling(t *testing.T) {
	sys := headroomSystem()
	exact, err := analysis.CriticalScaling(sys, 400)
	if err != nil {
		t.Fatal(err)
	}
	pool := jobs.New(jobs.Options{Workers: 2})
	defer pool.Close()
	eng := NewEngine(pool, nil, nil)

	grid := runCampaign(t, eng, &Spec{
		Name:     "headroom-grid",
		Strategy: StrategyGrid,
		Base:     sys,
		Axes:     []Axis{{Param: ParamWCETPct, Min: 1, Max: 400, Step: 1}},
		Parallel: 8,
	})
	if grid.Status != StatusDone || len(grid.Points) != 400 {
		t.Fatalf("grid status = %s (%s), %d points", grid.Status, grid.Error, len(grid.Points))
	}
	var best int64
	for _, p := range grid.Points {
		pct := int64(p.Point[ParamWCETPct])
		want, err := analysis.Schedulable(analysis.ScaleWCET(sys, pct))
		if err != nil {
			t.Fatal(err)
		}
		if p.Schedulable != want {
			t.Errorf("wcet_pct=%d: grid says schedulable=%t, the simulator %t", pct, p.Schedulable, want)
		}
		if p.Schedulable && pct > best {
			best = pct
		}
	}
	if best != exact {
		t.Errorf("grid critical point %d%% != CriticalScaling %d%%", best, exact)
	}

	bis := runCampaign(t, eng, &Spec{
		Name:     "headroom-bisect",
		Strategy: StrategyBisect,
		Base:     sys,
		Axes:     []Axis{{Param: ParamWCETPct, Min: 1, Max: 400, Tol: 1}},
	})
	if bis.Status != StatusDone || bis.Critical == nil {
		t.Fatalf("bisect status = %s (%s), critical %v", bis.Status, bis.Error, bis.Critical)
	}
	if got := int64(*bis.Critical); got != exact {
		t.Errorf("bisect critical point %d%% != CriticalScaling %d%%", got, exact)
	}
}

// TestGridAliasesEvaluateOnce: grid points that materialize to one
// configuration (wcet_pct 100..109 of C=10 all truncate to 10) run once
// even when they are in flight together; the rest are recorded from that
// run as checkpoint points, so the provenance counts are deterministic.
func TestGridAliasesEvaluateOnce(t *testing.T) {
	for round := 0; round < 5; round++ {
		pool := jobs.New(jobs.Options{Workers: 4})
		eng := NewEngine(pool, nil, nil)
		final := runCampaign(t, eng, &Spec{
			Name:     "aliases",
			Strategy: StrategyGrid,
			Base:     bdSystem(),
			Axes:     []Axis{{Param: ParamWCETPct, Min: 100, Max: 109, Step: 1}},
			Parallel: 10,
		})
		sum := final.Summarize()
		if sum.Points.Total != 10 || sum.Points.Computed != 1 || sum.Points.Checkpoint != 9 {
			t.Fatalf("round %d: points %+v, want 1 computed and 9 checkpoint", round, sum.Points)
		}
		if n := len(pool.List()); n != 1 {
			t.Fatalf("round %d: %d pool jobs, want 1", round, n)
		}
		pool.Close()
	}
}
