package campaign

import (
	"context"
	"testing"
	"time"

	"stopwatchsim/internal/fault"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/store"
)

// faultyPool builds a pool whose injector runs the given rules
// deterministically (seed fixed, sequence-point triggered).
func faultyPool(workers int, st *store.Store, rules ...fault.Rule) *jobs.Pool {
	return jobs.New(jobs.Options{
		Workers: workers,
		Store:   st,
		Faults:  fault.New(fault.Plan{Seed: 1, Rules: rules}),
	})
}

// TestQuarantineRetryHeals: a point whose first two attempts hit an
// injected campaign-level fault settles successfully on the third, with
// the retries accounted and nothing quarantined.
func TestQuarantineRetryHeals(t *testing.T) {
	pool := faultyPool(1, nil,
		fault.Rule{Site: fault.SiteCampaignPoint, Kind: fault.KindError, Every: 1, Limit: 2})
	defer pool.Close()
	eng := NewEngine(pool, nil, nil)

	final := runCampaign(t, eng, &Spec{
		Name:           "retry-heals",
		Strategy:       StrategyGrid,
		Base:           bdSystem(),
		Axes:           []Axis{{Param: ParamWCETPct, Min: 100, Max: 100, Step: 100}},
		Parallel:       1,
		RetryBackoffMS: 1,
	})
	if final.Status != StatusDone {
		t.Fatalf("status = %s (%s)", final.Status, final.Error)
	}
	if len(final.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(final.Points))
	}
	p := final.Points[0]
	if p.Source != SourceComputed || !p.Schedulable || p.Error != "" {
		t.Errorf("healed point: source=%s schedulable=%v error=%q", p.Source, p.Schedulable, p.Error)
	}
	if final.Convergence.Retries != 2 {
		t.Errorf("retries = %d, want 2", final.Convergence.Retries)
	}
	if final.Convergence.Failed != 0 {
		t.Errorf("failed points = %d, want 0", final.Convergence.Failed)
	}
	res := pool.Resilience()
	if got := res.PointRetries.Load(); got != 2 {
		t.Errorf("PointRetries = %d, want 2", got)
	}
	if got := res.PointsQuarantined.Load(); got != 0 {
		t.Errorf("PointsQuarantined = %d, want 0", got)
	}
}

// TestQuarantineExhaustion: with retries disabled, an injected point is
// quarantined — recorded failed — while the rest of the grid completes,
// and the campaign still finishes Done.
func TestQuarantineExhaustion(t *testing.T) {
	pool := faultyPool(1, nil,
		fault.Rule{Site: fault.SiteCampaignPoint, Kind: fault.KindError, Every: 1, Limit: 1})
	defer pool.Close()
	eng := NewEngine(pool, nil, nil)

	final := runCampaign(t, eng, &Spec{
		Name:     "quarantine",
		Strategy: StrategyGrid,
		Base:     bdSystem(),
		Axes:     []Axis{{Param: ParamWCETPct, Min: 100, Max: 200, Step: 100}},
		Parallel: 1,
		Retries:  -1,
	})
	if final.Status != StatusDone {
		t.Fatalf("status = %s (%s)", final.Status, final.Error)
	}
	if len(final.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(final.Points))
	}
	var failed, ok int
	for _, p := range final.Points {
		if p.Source == SourceFailed {
			failed++
			if p.Error == "" {
				t.Error("quarantined point has no error")
			}
		} else {
			ok++
			if !p.Schedulable {
				t.Errorf("point %s unexpectedly unschedulable", p.Point.Key())
			}
		}
	}
	if failed != 1 || ok != 1 {
		t.Fatalf("failed=%d ok=%d, want 1/1", failed, ok)
	}
	if final.Convergence.Failed != 1 || final.Convergence.Retries != 0 {
		t.Errorf("convergence failed=%d retries=%d, want 1/0",
			final.Convergence.Failed, final.Convergence.Retries)
	}
	if got := pool.Resilience().PointsQuarantined.Load(); got != 1 {
		t.Errorf("PointsQuarantined = %d, want 1", got)
	}
	sum := final.Summarize()
	if sum.Points.Failed != 1 || sum.Points.Total != 2 {
		t.Errorf("summary failed=%d total=%d, want 1/2", sum.Points.Failed, sum.Points.Total)
	}
}

// TestResumeHealsQuarantinedPoint: a campaign checkpointed with a
// quarantined point, resumed on a healthy pool, re-evaluates that point
// and overwrites the stale failed record in place — no duplicate records,
// no lingering failed count.
func TestResumeHealsQuarantinedPoint(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{PinnedKinds: []string{StoreKind()}})
	if err != nil {
		t.Fatal(err)
	}

	spec := &Spec{
		Name:     "heal-on-resume",
		Strategy: StrategyGrid,
		Base:     bdSystem(),
		Axes:     []Axis{{Param: ParamWCETPct, Min: 100, Max: 300, Step: 100}},
		Parallel: 1,
		Retries:  -1,
	}
	pool1 := faultyPool(1, st,
		fault.Rule{Site: fault.SiteCampaignPoint, Kind: fault.KindError, Every: 1, Limit: 1})
	eng1 := NewEngine(pool1, st, nil)
	final := runCampaign(t, eng1, spec)
	if final.Status != StatusDone {
		t.Fatalf("first run status = %s (%s)", final.Status, final.Error)
	}
	if final.Convergence.Failed != 1 {
		t.Fatalf("first run failed points = %d, want 1", final.Convergence.Failed)
	}
	pool1.Close()

	// Mark the campaign running again, as if it had been interrupted
	// right after quarantining the point.
	rewound := final.clone()
	rewound.Status = StatusRunning
	if err := st.Put(StoreKind(), rewound.ID, &rewound); err != nil {
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

	if resumed := eng2.ResumeAll(); len(resumed) != 1 || resumed[0] != final.ID {
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
	// The stale failed record was overwritten in place, not appended.
	if len(done.Points) != 3 {
		t.Fatalf("resumed points = %d, want 3", len(done.Points))
	}
	if done.Convergence.Failed != 0 {
		t.Errorf("resumed failed points = %d, want 0", done.Convergence.Failed)
	}
	seen := map[string]int{}
	for _, p := range done.Points {
		seen[p.Point.Key()]++
		if p.Source == SourceFailed {
			t.Errorf("point %s still failed after resume", p.Point.Key())
		}
		if !p.Schedulable {
			t.Errorf("point %s unexpectedly unschedulable", p.Point.Key())
		}
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("point %s recorded %d times", k, n)
		}
	}
	// Only the healed point goes through the pool; the other two answer
	// from the checkpoint.
	if got := done.Convergence.CheckpointHits; got != 2 {
		t.Errorf("checkpoint hits = %d, want 2", got)
	}
}

// TestCancelPropagatesToPool: canceling a campaign cancels its in-flight
// pool jobs. Workers here sleep 10s per run under an injected latency
// fault; the whole cancellation must settle in a small fraction of that,
// which only happens if the workers observe context cancellation.
func TestCancelPropagatesToPool(t *testing.T) {
	pool := faultyPool(2, nil,
		fault.Rule{Site: fault.SiteWorkerLatency, Kind: fault.KindLatency, Every: 1, Latency: 10 * time.Second})
	defer pool.Close()
	eng := NewEngine(pool, nil, nil)

	st, err := eng.Start(&Spec{
		Name:      "cancel-propagation",
		Strategy:  StrategyGrid,
		Base:      bdSystem(),
		Axes:      []Axis{{Param: ParamWCETPct, Min: 100, Max: 500, Step: 1}},
		Parallel:  2,
		MaxPoints: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "a pool job running", func() bool { return pool.Metrics().Running > 0 })

	start := time.Now()
	if !eng.Cancel(st.ID) {
		t.Fatal("cancel failed")
	}
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	final, err := eng.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCanceled {
		t.Fatalf("status = %s (%s)", final.Status, final.Error)
	}
	// The in-flight jobs must drain as canceled, promptly — well before
	// their injected 10s latency would have elapsed on its own.
	waitCond(t, "pool drained", func() bool {
		m := pool.Metrics()
		return m.Running == 0 && m.Queued == 0
	})
	if m := pool.Metrics(); m.Canceled == 0 {
		t.Errorf("pool canceled = %d, want > 0", m.Canceled)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %s; workers did not observe cancel", elapsed)
	}
}

// waitCond polls cond for up to 5s.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAliasEvaluatesAfterFailedLeader: two grid points that materialize
// to one configuration are in flight together; the evaluation the second
// waits on fails (an injected fault, no retries) and is quarantined, so
// the waiter evaluates on its own instead of inheriting the failure.
func TestAliasEvaluatesAfterFailedLeader(t *testing.T) {
	pool := faultyPool(2, nil,
		fault.Rule{Site: fault.SiteCampaignPoint, Kind: fault.KindError, Every: 1, Limit: 1})
	defer pool.Close()
	eng := NewEngine(pool, nil, nil)

	final := runCampaign(t, eng, &Spec{
		Name:     "alias-after-failure",
		Strategy: StrategyGrid,
		Base:     bdSystem(),
		Axes:     []Axis{{Param: ParamWCETPct, Min: 100, Max: 101, Step: 1}}, // both truncate to C=10
		Parallel: 2,
		Retries:  -1,
	})
	if final.Status != StatusDone {
		t.Fatalf("status = %s (%s)", final.Status, final.Error)
	}
	sum := final.Summarize()
	if sum.Points.Total != 2 || sum.Points.Failed != 1 || sum.Points.Computed != 1 {
		t.Fatalf("points %+v, want one quarantined and one computed", sum.Points)
	}
}
