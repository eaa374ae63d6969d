package jobs

import (
	"context"
	"fmt"
	"testing"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/store"
)

// persistSystem is a small schedulable single-core configuration.
func persistSystem() *config.System {
	return &config.System{
		Name:      "persist",
		CoreTypes: []string{"cpu"},
		Cores:     []config.Core{{Name: "c1", Type: 0, Module: 1}},
		Partitions: []config.Partition{{
			Name: "P1", Core: 0, Policy: config.FPPS,
			Tasks: []config.Task{
				{Name: "a", Priority: 2, WCET: []int64{2}, Period: 10, Deadline: 10},
				{Name: "b", Priority: 1, WCET: []int64{3}, Period: 20, Deadline: 20},
			},
			Windows: []config.Window{{Start: 0, End: 20}},
		}},
	}
}

// TestPersistentTierAcrossPools is the two-tier contract: a pool computes
// an outcome and persists it; a second pool sharing only the store (fresh,
// empty memory cache — a process restart) serves the same configuration
// from disk without running the engine.
func TestPersistentTierAcrossPools(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sys := persistSystem()
	p1 := New(Options{Workers: 1, Store: st})
	jb, err := p1.Submit(ConfigRun{Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	done, err := p1.Wait(t.Context(), jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone || done.CacheHit {
		t.Fatalf("first run: status=%s cacheHit=%v", done.Status, done.CacheHit)
	}
	wantVerdict := done.Outcome.Verdict
	p1.Close()

	if !st.Has("outcome", sys.Fingerprint()) {
		t.Fatal("outcome not persisted under the configuration fingerprint")
	}

	// "Restart": new pool, same store, empty memory cache.
	p2 := New(Options{Workers: 1, Store: st})
	defer p2.Close()
	jb2, err := p2.Submit(ConfigRun{Sys: persistSystem()})
	if err != nil {
		t.Fatal(err)
	}
	if jb2.Status != StatusDone {
		t.Fatalf("disk-tier submission not born done: %s", jb2.Status)
	}
	if !jb2.CacheHit || !jb2.DiskHit {
		t.Fatalf("expected disk hit, got cacheHit=%v diskHit=%v", jb2.CacheHit, jb2.DiskHit)
	}
	out := jb2.Outcome
	if out.Verdict != wantVerdict {
		t.Fatalf("disk-served verdict %s, want %s", out.Verdict, wantVerdict)
	}
	if out.Persisted == nil {
		t.Fatal("disk-served outcome not marked Persisted")
	}
	if out.Persisted.System != "persist" || out.Persisted.JobsTotal == 0 {
		t.Fatalf("persisted summary %+v", out.Persisted)
	}
	if out.Trace != nil || out.Sys != nil {
		t.Fatal("disk-served outcome claims a trace it cannot have")
	}
	if out.Telemetry == nil || out.Telemetry.Counters.Steps == 0 {
		t.Fatal("telemetry lost in persistence round trip")
	}
	m := p2.Metrics()
	if m.StoreHits != 1 || m.CacheHits != 1 {
		t.Fatalf("metrics after disk hit: storeHits=%d cacheHits=%d", m.StoreHits, m.CacheHits)
	}

	// Second submission on the same pool now hits the promoted memory
	// entry, not the disk.
	jb3, err := p2.Submit(ConfigRun{Sys: persistSystem()})
	if err != nil {
		t.Fatal(err)
	}
	if !jb3.CacheHit || jb3.DiskHit {
		t.Fatalf("expected memory hit after promotion, got cacheHit=%v diskHit=%v", jb3.CacheHit, jb3.DiskHit)
	}
}

// TestVersionMismatchReadsAsMiss plants a document with a foreign schema
// version and checks the pool recomputes instead of serving it.
func TestVersionMismatchReadsAsMiss(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sys := persistSystem()
	if err := st.Put(outcomeKind, sys.Fingerprint(), map[string]any{
		"version": "jobs/outcome/v999",
		"verdict": "unschedulable",
	}); err != nil {
		t.Fatal(err)
	}

	p := New(Options{Workers: 1, Store: st})
	defer p.Close()
	jb, err := p.Submit(ConfigRun{Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	done, err := p.Wait(t.Context(), jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.CacheHit || done.DiskHit {
		t.Fatalf("foreign-version document served as a hit: %+v", done)
	}
	if done.Outcome.Verdict != VerdictSchedulable {
		t.Fatalf("recomputed verdict %s", done.Outcome.Verdict)
	}
}

func TestOutcomeDocRoundTrip(t *testing.T) {
	p := New(Options{Workers: 1})
	defer p.Close()
	jb, err := p.Submit(ConfigRun{Sys: persistSystem()})
	if err != nil {
		t.Fatal(err)
	}
	done, err := p.Wait(t.Context(), jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	out := done.Outcome
	round := outcomeFromDoc(docFromOutcome(out))
	if round.Verdict != out.Verdict {
		t.Fatalf("verdict %s -> %s", out.Verdict, round.Verdict)
	}
	if round.Engine != out.Engine {
		t.Fatalf("engine result %+v -> %+v", out.Engine, round.Engine)
	}
	if round.Elapsed != out.Elapsed {
		t.Fatalf("elapsed %v -> %v", out.Elapsed, round.Elapsed)
	}
	if round.Persisted.JobsTotal != len(out.Analysis.Jobs) ||
		round.Persisted.JobsLate != len(out.Analysis.Unschedulable) {
		t.Fatalf("summary %+v vs analysis %d/%d", round.Persisted,
			len(out.Analysis.Jobs), len(out.Analysis.Unschedulable))
	}
	// Re-compacting a disk-restored outcome must be lossless.
	again := outcomeFromDoc(docFromOutcome(round))
	if *again.Persisted != *round.Persisted || again.Verdict != round.Verdict {
		t.Fatal("re-persisting a restored outcome lost data")
	}
}

// TestWaitSeesJobCounted: a job is counted in Metrics before Wait
// returns, so a caller reading the counters right after a wait (the
// service's ?wait=true followed by /metrics) never misses its own job —
// even though a computed outcome is fsynced to the store after the
// waiters wake.
func TestWaitSeesJobCounted(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := New(Options{Workers: 1, Store: st})
	defer p.Close()
	for i := 0; i < 2000; i++ {
		sys := testSystem(5)
		sys.Name = fmt.Sprintf("counted-%d", i) // a distinct key: every job computes
		jb, err := p.Submit(ConfigRun{Sys: sys})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Wait(context.Background(), jb.ID); err != nil {
			t.Fatal(err)
		}
		if m := p.Metrics(); m.Done != int64(i+1) || m.Running != 0 {
			t.Fatalf("after wait %d: done=%d running=%d, want %d/0", i, m.Done, m.Running, i+1)
		}
	}
}
