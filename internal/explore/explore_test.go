package explore

import (
	"context"
	"errors"
	"testing"
	"time"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/fault"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/obs"
)

func smallSystem() *config.System {
	return &config.System{
		Name:      "small",
		CoreTypes: []string{"cpu"},
		Cores:     []config.Core{{Name: "c1", Type: 0, Module: 1}},
		Partitions: []config.Partition{{
			Name: "P1", Core: 0, Policy: config.FPPS,
			Tasks:   []config.Task{{Name: "T", Priority: 1, WCET: []int64{10}, Period: 40, Deadline: 40}},
			Windows: []config.Window{{Start: 0, End: 40}},
		}},
	}
}

// TestSubmitWaitCancelsAbandonedJob: when ctx ends while the job runs,
// SubmitWait returns the context error and cancels the job in the pool,
// so the worker stops instead of running for nobody.
func TestSubmitWaitCancelsAbandonedJob(t *testing.T) {
	pool := jobs.New(jobs.Options{
		Workers: 1,
		Faults: fault.New(fault.Plan{Seed: 1, Rules: []fault.Rule{
			{Site: fault.SiteWorkerLatency, Kind: fault.KindLatency, Every: 1, Latency: 10 * time.Second},
		}}),
	})
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := SubmitWait(ctx, pool, smallSystem(), obs.TraceContext{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context deadline", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pool.Metrics().Canceled != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned job not canceled: %+v", pool.Metrics())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
