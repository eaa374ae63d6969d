package compose_test

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stopwatchsim/internal/compose"
	"stopwatchsim/internal/config"
	"stopwatchsim/internal/gen"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/store"
)

func newPool(t *testing.T, st *store.Store) *jobs.Pool {
	t.Helper()
	p := jobs.New(jobs.Options{Workers: 2, Store: st})
	t.Cleanup(p.Close)
	return p
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "store"), store.Options{
		PinnedKinds: []string{compose.StoreKind()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// globalSteps runs the global product on its own pool and returns the
// verdict and engine step count.
func globalSteps(t *testing.T, sys *config.System) (jobs.Verdict, int64) {
	t.Helper()
	pool := newPool(t, nil)
	jb, err := pool.Submit(jobs.ConfigRun{Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	jb, err = pool.Wait(context.Background(), jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jb.Status != jobs.StatusDone {
		t.Fatalf("global run %s: %v", jb.Status, jb.Err)
	}
	return jb.Outcome.Verdict, jb.Outcome.Telemetry.Counters.Steps
}

func TestPlanMultiModule(t *testing.T) {
	sys := gen.MultiModule(4, 1)
	p, err := compose.NewPlan(sys)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fallback != "" {
		t.Fatalf("unexpected fallback: %s", p.Fallback)
	}
	if len(p.Modules) != 4 {
		t.Fatalf("modules = %d, want 4", len(p.Modules))
	}
	if len(p.Contracts) != 3 {
		t.Fatalf("contracts = %d, want 3", len(p.Contracts))
	}
	lglob := sys.Hyperperiod()
	for _, mod := range p.Modules {
		if mod.Sub == nil {
			t.Fatalf("module %d: no sub-system", mod.ID)
		}
		if mod.Pacer {
			t.Errorf("module %d: pacer mode, want truncation (full-span windows)", mod.ID)
		}
		if l := mod.Sub.Hyperperiod(); l >= lglob {
			t.Errorf("module %d: local hyperperiod %d not below global %d", mod.ID, l, lglob)
		}
		if mod.Fingerprint == "" {
			t.Errorf("module %d: empty fingerprint", mod.ID)
		}
	}
	// Interior modules see one inbound edge, hence one stub.
	if p.Modules[1].Stubs != 1 {
		t.Errorf("module %d stubs = %d, want 1", p.Modules[1].ID, p.Modules[1].Stubs)
	}
	// Contract parameters come from the sender's task parameters, never
	// its WCET: TX has period 12, deadline 3, and the chain edges carry
	// NetDelay 1.
	for _, c := range p.Contracts {
		if c.Period != 12 || c.LatestOffset != 3 || c.Delay != 1 {
			t.Errorf("contract %s = (P=%d, O=%d, D=%d), want (12, 3, 1)", c.Name, c.Period, c.LatestOffset, c.Delay)
		}
	}
}

// TestPlanIndustrial exercises the safe-receiver gate: the industrial
// configuration's message receivers are the highest-priority tasks of
// their partitions, so the latest-arrival abstraction is unsound for it
// and the plan must fall back.
func TestPlanIndustrial(t *testing.T) {
	p, err := compose.NewPlan(gen.IndustrialConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Fallback == "" {
		t.Fatal("industrial config passed the safe-receiver gate; its receivers are high-priority")
	}
	if want := "arrival-sensitive receiver"; !strings.Contains(p.Fallback, want) {
		t.Errorf("fallback %q does not mention %q", p.Fallback, want)
	}
}

func TestPlanSingleModule(t *testing.T) {
	p, err := compose.NewPlan(gen.Table1Config(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Fallback == "" {
		t.Fatal("single-module system should fall back")
	}
}

func TestPlanSwitchedNetworkFallsBack(t *testing.T) {
	var sys *config.System
	for seed := int64(1); seed < 50; seed++ {
		s := gen.RandomSwitched(seed, gen.DefaultRandomParams())
		if s.Net != nil {
			sys = s
			break
		}
	}
	if sys == nil {
		t.Skip("no switched config generated")
	}
	p, err := compose.NewPlan(sys)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fallback == "" {
		t.Fatal("switched-network system should fall back")
	}
}

// TestCompositionalCheaperThanGlobal is the acceptance bar: on a
// 16-module system the per-module analyses must cost fewer total engine
// steps than one global-product interpretation.
func TestCompositionalCheaperThanGlobal(t *testing.T) {
	sys := gen.MultiModule(16, 7)
	a := compose.New(newPool(t, nil), nil, nil)
	res, err := a.Run(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compositional {
		t.Fatalf("fallback (%s), want compositional", res.Fallback)
	}
	if res.Verdict != jobs.VerdictSchedulable {
		t.Fatalf("verdict %s, want schedulable", res.Verdict)
	}
	gv, gs := globalSteps(t, sys)
	if gv != jobs.VerdictSchedulable {
		t.Fatalf("global verdict %s, want schedulable", gv)
	}
	if res.TotalSteps <= 0 || gs <= 0 {
		t.Fatalf("missing step counters: compositional %d, global %d", res.TotalSteps, gs)
	}
	if res.TotalSteps >= gs {
		t.Fatalf("compositional steps %d not below global %d", res.TotalSteps, gs)
	}
	t.Logf("16 modules: compositional %d steps vs global %d steps", res.TotalSteps, gs)
}

// TestIncrementalReanalysis is the other acceptance bar: perturbing one
// module's WCET must re-analyze exactly that module, with every other
// module served from its content-addressed store document.
func TestIncrementalReanalysis(t *testing.T) {
	st := openStore(t)
	sys := gen.MultiModule(8, 3)

	a1 := compose.New(newPool(t, nil), st, nil)
	res1, err := a1.Run(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Compositional || res1.ModulesAnalyzed != 8 || res1.ModulesCached != 0 {
		t.Fatalf("first run: compositional=%v analyzed=%d cached=%d, want true/8/0",
			res1.Compositional, res1.ModulesAnalyzed, res1.ModulesCached)
	}

	// Perturb one module's local content: the background load of module 4
	// (partition 3) gets one more WCET tick. Contracts are parameter-
	// derived, so every other module's fingerprint must be unchanged.
	mod := gen.MultiModule(8, 3)
	mod.Partitions[3].Tasks[1].WCET[0]++

	a2 := compose.New(newPool(t, nil), st, nil)
	res2, err := a2.Run(context.Background(), mod)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Compositional {
		t.Fatalf("second run fell back: %s", res2.Fallback)
	}
	if res2.ModulesAnalyzed != 1 || res2.ModulesCached != 7 {
		t.Fatalf("second run: analyzed=%d cached=%d, want 1/7", res2.ModulesAnalyzed, res2.ModulesCached)
	}
	if res2.ModulesAnalyzed >= len(res2.Modules) {
		t.Fatalf("re-analysis not strictly smaller than module count %d", len(res2.Modules))
	}

	// And a verbatim re-run touches no module at all.
	res3, err := compose.New(newPool(t, nil), st, nil).Run(context.Background(), gen.MultiModule(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res3.ModulesAnalyzed != 0 || res3.ModulesCached != 8 {
		t.Fatalf("verbatim re-run: analyzed=%d cached=%d, want 0/8", res3.ModulesAnalyzed, res3.ModulesCached)
	}
}

// TestDifferentialSoundness checks the analyzer against the global
// product over a corpus of random distributed systems: a compositional
// "schedulable" must imply the global product agrees, and every
// non-compositional result must be flagged with a fallback reason (its
// verdict then is the global verdict by construction).
func TestDifferentialSoundness(t *testing.T) {
	const seeds = 45
	pool := newPool(t, nil)
	a := compose.New(pool, nil, nil)
	ctx := context.Background()
	var compositional, fallbacks int
	for seed := int64(1); seed <= seeds; seed++ {
		// Two deterministic families: free-form random systems (mostly
		// fallbacks of every flavor) and structured chains (compositional
		// by construction), so both paths are exercised at fixed seeds.
		var sys *config.System
		if seed%3 == 0 {
			sys = gen.MultiModule(2+int(seed%5), seed)
		} else {
			sys = gen.RandomDistributed(seed, gen.DefaultRandomParams())
		}
		res, err := a.Run(ctx, sys)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Compositional == (res.Fallback != "") {
			t.Fatalf("seed %d: compositional=%v but fallback=%q", seed, res.Compositional, res.Fallback)
		}
		gv, _ := globalSteps(t, sys)
		if res.Compositional {
			compositional++
			if res.Verdict != jobs.VerdictSchedulable {
				t.Fatalf("seed %d: compositional result with verdict %s", seed, res.Verdict)
			}
			if gv != jobs.VerdictSchedulable {
				t.Fatalf("seed %d: UNSOUND: compositional schedulable, global %s", seed, gv)
			}
		} else {
			fallbacks++
			if res.Verdict != gv {
				t.Fatalf("seed %d: fallback verdict %s disagrees with global %s", seed, res.Verdict, gv)
			}
		}
	}
	t.Logf("%d seeds: %d compositional, %d fallbacks", seeds, compositional, fallbacks)
	if compositional == 0 {
		t.Error("corpus exercised no compositional run")
	}
	if fallbacks == 0 {
		t.Error("corpus exercised no fallback")
	}
}

// TestStatusRoundTrip checks persisted results answer Status lookups.
func TestStatusRoundTrip(t *testing.T) {
	st := openStore(t)
	a := compose.New(newPool(t, nil), st, nil)
	sys := gen.MultiModule(3, 5)
	if _, ok, err := a.Status(sys); err != nil || ok {
		t.Fatalf("Status before Run = (%v, %v), want miss", ok, err)
	}
	res, err := a.Run(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := a.Status(gen.MultiModule(3, 5))
	if err != nil || !ok {
		t.Fatalf("Status after Run = (%v, %v), want hit", ok, err)
	}
	if got.Fingerprint != res.Fingerprint || got.Verdict != res.Verdict {
		t.Fatalf("persisted result (%s, %s) != returned (%s, %s)",
			got.Fingerprint, got.Verdict, res.Fingerprint, res.Verdict)
	}
}

// blockRunner occupies a pool slot until release is closed.
type blockRunner struct {
	key     string
	release <-chan struct{}
}

func (r blockRunner) Key() string { return r.key }

func (r blockRunner) Run(ctx context.Context, _ nsa.Budget) (*jobs.Outcome, error) {
	select {
	case <-r.release:
		return &jobs.Outcome{Verdict: jobs.VerdictCompleted}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestRunWaitsOutBackpressure: with the pool's only worker busy and its
// one queue slot taken, a compositional run waits for room instead of
// failing with jobs.ErrQueueFull, and completes once the pool drains.
func TestRunWaitsOutBackpressure(t *testing.T) {
	pool := jobs.New(jobs.Options{Workers: 1, QueueDepth: 1})
	t.Cleanup(pool.Close)
	release := make(chan struct{})
	for _, key := range []string{"busy", "queued"} {
		if _, err := pool.Submit(blockRunner{key: key, release: release}); err != nil {
			t.Fatal(err)
		}
		for pool.Metrics().Running == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := pool.Submit(blockRunner{key: "overflow", release: release}); err != jobs.ErrQueueFull {
		t.Fatalf("third submission: err = %v, want the queue full", err)
	}

	sys := gen.MultiModule(4, 1)
	type outcome struct {
		res *compose.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := compose.New(pool, nil, nil).Run(context.Background(), sys)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		t.Fatalf("run ended while the queue was full: %v", o.err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	o := <-done
	if o.err != nil {
		t.Fatalf("run failed under backpressure: %v", o.err)
	}
	want, _ := globalSteps(t, sys)
	if o.res.Verdict != want {
		t.Fatalf("verdict %s, global product says %s", o.res.Verdict, want)
	}
}
