package model

import (
	"context"
	"reflect"
	"testing"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/trace"
)

// preparedSystems returns two structurally different configurations so
// interleaving runs can expose cross-run or cross-config state leakage.
func preparedSystems() (*config.System, *config.System) {
	a := sys1(config.FPPS, []config.Task{
		{Name: "hi", Priority: 2, WCET: []int64{2}, Period: 10, Deadline: 10},
		{Name: "lo", Priority: 1, WCET: []int64{9}, Period: 20, Deadline: 20},
	}, []config.Window{{Start: 0, End: 20}})
	b := sys1(config.EDF, []config.Task{
		{Name: "t1", Priority: 1, WCET: []int64{3}, Period: 8, Deadline: 8},
		{Name: "t2", Priority: 1, WCET: []int64{5}, Period: 16, Deadline: 12},
	}, nil)
	return a, b
}

// freshRun is the reference: a one-shot Build + SimulateEngine.
func freshRun(t *testing.T, sys *config.System, backend nsa.Backend) (*trace.Trace, nsa.Result, *trace.Analysis) {
	t.Helper()
	m, err := Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	tr, res, err := m.SimulateEngine(context.Background(), nsa.Options{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	a, err := trace.Analyze(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	return tr, res, a
}

// TestPreparedNoStateLeakage is the satellite differential test for
// persistent engine reuse: repeated Reset+Run cycles on a Prepared —
// interleaved with runs of a different configuration on another Prepared
// — must reproduce the one-shot pipeline exactly, trace for trace, on
// every backend. Any state surviving Reset (a stale clock, a half list
// not rewound, a leftover deadline heap entry) diverges here.
func TestPreparedNoStateLeakage(t *testing.T) {
	sysA, sysB := preparedSystems()
	for _, backend := range []nsa.Backend{nsa.BackendCompiled, nsa.BackendNaive} {
		t.Run(backend.String(), func(t *testing.T) {
			trA, resA, anA := freshRun(t, sysA, backend)
			trB, resB, anB := freshRun(t, sysB, backend)

			prepA, err := Prepare(sysA, backend)
			if err != nil {
				t.Fatal(err)
			}
			prepB, err := Prepare(sysB, backend)
			if err != nil {
				t.Fatal(err)
			}
			check := func(round int, p *Prepared, sys *config.System, wantTr *trace.Trace, wantRes nsa.Result, wantAn *trace.Analysis) {
				t.Helper()
				tr, res, probe, err := p.Simulate(context.Background(), nsa.Budget{})
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if !reflect.DeepEqual(tr.Events, wantTr.Events) {
					t.Fatalf("round %d: trace diverged from fresh run\nreused:\n%s\nfresh:\n%s",
						round, tr.Format(sys), wantTr.Format(sys))
				}
				if res != wantRes {
					t.Fatalf("round %d: result %+v, want %+v", round, res, wantRes)
				}
				an, err := trace.Analyze(sys, tr)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if an.Schedulable != wantAn.Schedulable || an.TotalPreemptions != wantAn.TotalPreemptions {
					t.Fatalf("round %d: analysis diverged: %+v vs %+v", round, an, wantAn)
				}
				// The probe must reflect this run alone, not accumulate
				// across Reset+Run cycles.
				if got := probe.Snapshot(); got.Actions != int64(res.Actions) || got.Delays != int64(res.Delays) {
					t.Fatalf("round %d: probe %+v does not match result %+v (stale counters?)", round, got, res)
				}
			}
			// Interleave: A, B, A, B, A — every later A/B run rides a Reset.
			for round := 0; round < 3; round++ {
				check(round, prepA, sysA, trA, resA, anA)
				if round < 2 {
					check(round, prepB, sysB, trB, resB, anB)
				}
			}
		})
	}
}
