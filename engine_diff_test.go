package stopwatchsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
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

var updateDigests = flag.Bool("update", false, "rewrite "+digestsFile)

// digestsFile pins what the naive oracle does on every configuration the
// differentials run. Comparing compiled with naive cannot see a change to
// the model library, since it moves both sides; the pins can.
const digestsFile = "testdata/engine-digests.json"

// runPin is one configuration's pinned naive run: a SHA-256 over its
// SyncTrace and final State (see runDigest), its Result and its error.
type runPin struct {
	SHA256 string     `json:"sha256"`
	Result nsa.Result `json:"result"`
	Err    string     `json:"err,omitempty"`
}

// runDigest hashes a trace and a final state in a fixed text form: one
// line per event (time, kind, channel, then aut:edge per participant),
// then the state's time, locations, clocks and variables.
func runDigest(tr *nsa.SyncTrace, s *nsa.State) string {
	h := sha256.New()
	for _, e := range tr.Events {
		fmt.Fprintf(h, "%d %d %d", e.Time, e.Kind, e.Chan)
		for _, p := range e.Parts {
			fmt.Fprintf(h, " %d:%d", p.Aut, p.Edge)
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "time %d\nlocs %v\nclocks %v\nvars %v\n", s.Time, s.Locs, s.Clocks, s.Vars)
	return hex.EncodeToString(h.Sum(nil))
}

// pins checks runs against digestsFile, or with -update collects them and
// merges them into the file when the test ends.
type pins struct {
	t    *testing.T
	want map[string]runPin
	got  map[string]runPin
}

func loadPins(t *testing.T) *pins {
	t.Helper()
	p := &pins{t: t, want: map[string]runPin{}, got: map[string]runPin{}}
	b, err := os.ReadFile(digestsFile)
	if err != nil && !(*updateDigests && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	if err == nil {
		if err := json.Unmarshal(b, &p.want); err != nil {
			t.Fatalf("%s: %v", digestsFile, err)
		}
	}
	if *updateDigests {
		t.Cleanup(p.write)
	}
	return p
}

func (p *pins) check(name string, tr *nsa.SyncTrace, s *nsa.State, res nsa.Result, err error) {
	p.t.Helper()
	got := runPin{SHA256: runDigest(tr, s), Result: res}
	if err != nil {
		got.Err = err.Error()
	}
	if *updateDigests {
		p.got[name] = got
		return
	}
	want, ok := p.want[name]
	if !ok {
		p.t.Errorf("%s: no pinned run in %s (go test -run %s -update)", name, digestsFile, p.t.Name())
	} else if got != want {
		p.t.Errorf("%s: naive run %+v, pinned %+v", name, got, want)
	}
}

func (p *pins) write() {
	for name, pin := range p.got {
		p.want[name] = pin
	}
	b, err := json.MarshalIndent(p.want, "", "  ")
	if err != nil {
		p.t.Fatal(err)
	}
	if err := os.WriteFile(digestsFile, append(b, '\n'), 0o644); err != nil {
		p.t.Fatal(err)
	}
}

// diffBackends runs one configuration on the compiled backend and on naive
// re-enumeration, the oracle, and requires byte-identical traces, final
// states and results; the naive run must also match its pin. When check is
// true the compiled run additionally enables CheckEngine, which compares
// its candidate list and delay bound against a naive enumeration of the
// same state at every step.
func diffBackends(t *testing.T, p *pins, name string, m *model.Model, check bool) {
	t.Helper()
	wantTr, wantS, wantRes, wantErr := runBackend(m, nsa.BackendNaive, false)
	p.check(name, wantTr, wantS, wantRes, wantErr)
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
	p := loadPins(t)
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
			diffBackends(t, p, name, m, seed%3 == 0)
		}
	}
}

// TestEngineDifferentialQuickstart runs the differential (with CheckEngine)
// over the shipped quickstart example, the campaign points its grid spec
// would materialize from it, and the avionics and IMITATOR examples, so the
// checked corpus includes hand-written configurations alongside the random
// ones.
func TestEngineDifferentialQuickstart(t *testing.T) {
	p := loadPins(t)
	readSys := func(path string) *config.System {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sys, err := config.ReadXML(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return sys
	}
	for _, path := range []string{
		"examples/avionics/avionics.xml",
		"examples/imi/astrium-fp.xml",
		"examples/imi/generic-edf.xml",
	} {
		m, err := model.Build(readSys(path))
		if err != nil {
			t.Fatalf("%s: build: %v", path, err)
		}
		diffBackends(t, p, path, m, true)
	}

	sys := readSys("examples/quickstart/quickstart.xml")
	m, err := model.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	diffBackends(t, p, "quickstart", m, true)

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
		diffBackends(t, p, "quickstart/"+pt.Key(), pm, true)
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
