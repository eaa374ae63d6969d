package analysis_test

import (
	"context"
	"testing"
	"time"

	"stopwatchsim/internal/analysis"
	"stopwatchsim/internal/campaign"
	"stopwatchsim/internal/config"
	"stopwatchsim/internal/jobs"
)

// sweepSystem is schedulable at 100% with headroom that runs out well
// before 400%: hi C=2/P=10 and lo C=9/P=20 on one core.
func sweepSystem() *config.System {
	return &config.System{
		Name:      "sweep",
		CoreTypes: []string{"cpu"},
		Cores:     []config.Core{{Name: "c1", Type: 0, Module: 1}},
		Partitions: []config.Partition{
			{
				Name: "P1", Core: 0, Policy: config.FPPS,
				Tasks: []config.Task{
					{Name: "hi", Priority: 2, WCET: []int64{2}, Period: 10, Deadline: 10},
					{Name: "lo", Priority: 1, WCET: []int64{9}, Period: 20, Deadline: 20},
				},
				Windows: []config.Window{{Start: 0, End: 20}},
			},
		},
	}
}

// TestSweepMatchesSerialOracle checks every point of a WCET-scaling sweep
// (a campaign grid on wcet_pct fanned across a job pool) against the
// serial Schedulable oracle, across parallelism degrees.
func TestSweepMatchesSerialOracle(t *testing.T) {
	sys := sweepSystem()
	want := make(map[int64]bool)
	for pct := int64(40); pct <= 180; pct += 20 {
		ok, err := analysis.Schedulable(analysis.ScaleWCET(sys, pct))
		if err != nil {
			t.Fatal(err)
		}
		want[pct] = ok
	}
	for _, parallel := range []int{1, 4} {
		pool := jobs.New(jobs.Options{Workers: parallel})
		eng := campaign.NewEngine(pool, nil, nil)
		st, err := eng.Start(&campaign.Spec{
			Name:     "sweep",
			Strategy: campaign.StrategyGrid,
			Base:     sys,
			Axes:     []campaign.Axis{{Param: campaign.ParamWCETPct, Min: 40, Max: 180, Step: 20}},
			Parallel: parallel,
		})
		if err != nil {
			pool.Close()
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		ctx, cancel := context.WithTimeout(t.Context(), 2*time.Minute)
		final, err := eng.Wait(ctx, st.ID)
		cancel()
		pool.Close()
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if final.Status != campaign.StatusDone || len(final.Points) != len(want) {
			t.Fatalf("parallel=%d: status = %s (%s), %d points, want %d",
				parallel, final.Status, final.Error, len(final.Points), len(want))
		}
		seen := make(map[int64]bool)
		for _, p := range final.Points {
			pct := int64(p.Point[campaign.ParamWCETPct])
			w, ok := want[pct]
			if !ok || seen[pct] {
				t.Errorf("parallel=%d: unexpected point %d%%", parallel, pct)
				continue
			}
			seen[pct] = true
			if p.Schedulable != w {
				t.Errorf("parallel=%d point %d%%: got schedulable=%t, want %t",
					parallel, pct, p.Schedulable, w)
			}
		}
	}
}

// TestSweepAgreesWithCriticalScaling: the largest schedulable point of an
// exhaustive 1..400% sweep is the percentage CriticalScaling's binary
// search reports.
func TestSweepAgreesWithCriticalScaling(t *testing.T) {
	sys := sweepSystem()
	exact, err := analysis.CriticalScaling(sys, 400)
	if err != nil {
		t.Fatal(err)
	}
	var best int64
	for pct := int64(1); pct <= 400; pct++ {
		ok, err := analysis.Schedulable(analysis.ScaleWCET(sys, pct))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			best = pct
		}
	}
	if best != exact {
		t.Fatalf("exhaustive sweep critical point %d%% != binary search %d%%", best, exact)
	}
}
