package stopwatchsim

import (
	"testing"

	"stopwatchsim/internal/gen"
	"stopwatchsim/internal/model"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/obs"
)

// TestEngineSteadyStateZeroAlloc pins the compiled backend's headline
// property: after the first run has sized every arena, heap and cache, a
// Reset+Run cycle over the EngineThroughput configuration allocates nothing.
// Any regression here shows up as a fractional allocs-per-run and fails
// loudly with the count.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	sys := gen.Random(21, gen.RandomParams{
		MaxCores: 2, MaxPartitions: 3, MaxTasks: 3,
		Periods: []int64{20, 40, 80}, MaxUtil: 0.9, Messages: 2,
	})
	m, err := model.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	eng := nsa.NewEngine(m.Net, nsa.Options{Horizon: m.Horizon})
	want, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want.Actions == 0 {
		t.Fatal("benchmark configuration fired no actions")
	}
	// A second warm-up run lets lazily grown scratch (heap spill, arena
	// growth on a path the first run missed) reach its fixed point.
	eng.Reset()
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	avg := testing.AllocsPerRun(20, func() {
		eng.Reset()
		got, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("steady-state run diverged: %+v, first run %+v", got, want)
		}
	})
	if avg != 0 {
		t.Fatalf("compiled engine steady state allocates %.2f objects per run, want 0", avg)
	}
}

// TestEngineSteadyStateZeroAllocWithFlight pins the flight recorder's
// contract on the same configuration: an armed recorder (its ring is
// preallocated and labels on the engine hot path are constants) adds
// zero allocations to the steady-state Reset+Run cycle.
func TestEngineSteadyStateZeroAllocWithFlight(t *testing.T) {
	sys := gen.Random(21, gen.RandomParams{
		MaxCores: 2, MaxPartitions: 3, MaxTasks: 3,
		Periods: []int64{20, 40, 80}, MaxUtil: 0.9, Messages: 2,
	})
	m, err := model.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	eng := nsa.NewEngine(m.Net, nsa.Options{Horizon: m.Horizon})
	fl := obs.NewFlightRecorder(obs.DefaultFlightDepth)
	eng.SetFlight(fl)
	want, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want.Actions == 0 {
		t.Fatal("benchmark configuration fired no actions")
	}
	eng.Reset()
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	avg := testing.AllocsPerRun(20, func() {
		eng.Reset()
		got, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("steady-state run diverged: %+v, first run %+v", got, want)
		}
	})
	if avg != 0 {
		t.Fatalf("flight-armed engine steady state allocates %.2f objects per run, want 0", avg)
	}
	if evs := fl.Snapshot(); len(evs) == 0 {
		t.Fatal("flight recorder captured no events across the runs")
	}
}
