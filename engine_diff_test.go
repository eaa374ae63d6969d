package stopwatchsim

import (
	"fmt"
	"os"
	"testing"

	"stopwatchsim/internal/campaign"
	"stopwatchsim/internal/config"
	"stopwatchsim/internal/gen"
	"stopwatchsim/internal/model"
	"stopwatchsim/internal/nsa"
)

// runBackend interprets a built model on one engine backend and returns
// everything the differential compares: the synchronization trace, the final
// state, the run result and the error.
func runBackend(m *model.Model, b nsa.Backend, check bool) (*nsa.SyncTrace, *nsa.State, nsa.Result, error) {
	tr := &nsa.SyncTrace{}
	eng := nsa.NewEngine(m.Net, nsa.Options{
		Horizon:     m.Horizon,
		Listeners:   []nsa.Listener{tr},
		Backend:     b,
		CheckEngine: check,
	})
	res, err := eng.Run()
	return tr, eng.State(), res, err
}

// diffBackends runs one configuration on the compiled backend and on naive
// re-enumeration, the oracle, and requires byte-identical traces, final
// states and results. When check is true the compiled run additionally
// enables CheckEngine, which compares its candidate list and delay bound
// against a naive enumeration of the same state at every step.
func diffBackends(t *testing.T, name string, m *model.Model, check bool) {
	t.Helper()
	wantTr, wantS, wantRes, wantErr := runBackend(m, nsa.BackendNaive, false)
	gotTr, gotS, gotRes, gotErr := runBackend(m, nsa.BackendCompiled, check)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: naive err %v, compiled err %v", name, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: err mismatch:\n naive: %v\n compiled: %v", name, wantErr, gotErr)
		}
		return
	}
	if gotRes != wantRes {
		t.Errorf("%s: result %+v, naive %+v", name, gotRes, wantRes)
	}
	diffTraces(t, name, wantTr, gotTr)
	diffStates(t, name, wantS, gotS)
}

// TestEngineDifferential is the property test backing the compiled
// runtime: across a spread of random configurations — fixed-priority and
// round-robin schedulers, data-flow messages (broadcast send/receive
// channels), switched networks with port FIFOs, and stopwatch execution
// clocks throughout — the compiled engine must produce a SyncTrace
// byte-identical to the naive full-re-enumeration engine, end in the same
// state, and report the same result. Every third seed additionally runs
// the compiled backend under CheckEngine, which compares it with a naive
// enumeration at every step inside one run.
func TestEngineDifferential(t *testing.T) {
	paramSets := []gen.RandomParams{
		gen.DefaultRandomParams(),
		{MaxCores: 2, MaxPartitions: 3, MaxTasks: 3,
			Periods: []int64{20, 40, 80}, MaxUtil: 0.9, Messages: 3},
		{MaxCores: 1, MaxPartitions: 2, MaxTasks: 4,
			Periods: []int64{10, 20}, MaxUtil: 0.95, Messages: 2},
	}
	const seeds = 20 // 20 seeds × 3 param sets = 60 configurations
	for si, params := range paramSets {
		for seed := int64(0); seed < seeds; seed++ {
			name := fmt.Sprintf("params=%d/seed=%d", si, seed)
			sys := gen.Random(seed, params)
			if seed%2 == 1 {
				// Odd seeds route messages through switch ports,
				// covering the port automata's guard functions and
				// wake hints.
				sys = gen.RandomSwitched(seed, params)
			}
			m, err := model.Build(sys)
			if err != nil {
				t.Fatalf("%s: build: %v", name, err)
			}
			diffBackends(t, name, m, seed%3 == 0)
		}
	}
}

// TestEngineDifferentialQuickstart runs the differential (with CheckEngine)
// over the shipped quickstart example and the campaign points its grid spec would
// materialize from it, so the checked corpus includes hand-written
// configurations alongside the random ones.
func TestEngineDifferentialQuickstart(t *testing.T) {
	f, err := os.Open("examples/quickstart/quickstart.xml")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sys, err := config.ReadXML(f)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	diffBackends(t, "quickstart", m, true)

	sf, err := os.Open("examples/quickstart/campaign-grid.json")
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	spec, err := campaign.ParseSpecBase(sf, func() (*config.System, error) { return sys, nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, pct := range []float64{100, 200, 300} {
		pt := campaign.Point{campaign.ParamWCETPct: pct}
		psys, err := campaign.Materialize(spec, pt)
		if err != nil {
			t.Fatalf("%s: %v", pt.Key(), err)
		}
		pm, err := model.Build(psys)
		if err != nil {
			t.Fatalf("%s: build: %v", pt.Key(), err)
		}
		diffBackends(t, "quickstart/"+pt.Key(), pm, true)
	}
}

func diffTraces(t *testing.T, name string, want, got *nsa.SyncTrace) {
	t.Helper()
	if len(got.Events) != len(want.Events) {
		t.Errorf("%s: %d events, naive %d", name, len(got.Events), len(want.Events))
		return
	}
	for i := range want.Events {
		w, g := &want.Events[i], &got.Events[i]
		if w.Time != g.Time || w.Kind != g.Kind || w.Chan != g.Chan || len(w.Parts) != len(g.Parts) {
			t.Errorf("%s: event %d: got %+v, naive %+v", name, i, *g, *w)
			return
		}
		for j := range w.Parts {
			if w.Parts[j] != g.Parts[j] {
				t.Errorf("%s: event %d part %d: got %+v, naive %+v",
					name, i, j, g.Parts[j], w.Parts[j])
				return
			}
		}
	}
}

func diffStates(t *testing.T, name string, want, got *nsa.State) {
	t.Helper()
	if got.Time != want.Time {
		t.Errorf("%s: final time %d, naive %d", name, got.Time, want.Time)
	}
	for i := range want.Locs {
		if got.Locs[i] != want.Locs[i] {
			t.Errorf("%s: aut %d final loc %d, naive %d", name, i, got.Locs[i], want.Locs[i])
		}
	}
	for i := range want.Clocks {
		if got.Clocks[i] != want.Clocks[i] {
			t.Errorf("%s: clock %d = %d, naive %d", name, i, got.Clocks[i], want.Clocks[i])
		}
	}
	for i := range want.Vars {
		if got.Vars[i] != want.Vars[i] {
			t.Errorf("%s: var %d = %d, naive %d", name, i, got.Vars[i], want.Vars[i])
		}
	}
}
