// Command benchtable regenerates the paper's experimental results:
//
//   - -table1 prints Table 1 (execution time of Model Checking vs the
//     proposed single-run interpretation, for 10–18 jobs);
//   - -scale runs the §4 industrial-scale experiment (~12 500 jobs) and
//     reports construction and interpretation time;
//   - -engine runs the engine micro-benchmarks: steady-state throughput
//     (one persistent engine, Reset+Run per op — the compiled backend's
//     zero-allocation regime) and the expression-evaluation kernel;
//   - -compose measures compositional vs global analysis on a 16-module
//     distributed system: the summed per-module interpretations against
//     one global-product interpretation (the ComposeVsGlobal rows, the
//     compositional one guarded by the CI bench gate).
//
// -backend selects the engine backend for every measured interpretation:
// "compiled" (the default, the library's zero value) or "naive".
//
// Absolute times depend on the host; the reproduced result is the shape:
// Model Checking roughly doubles per added job while the proposed approach
// stays flat, and an industrial-scale configuration simulates in seconds.
//
// The shared resource-limit flags bound the Model Checking runs (they grow
// exponentially with the job count); a column whose exploration exceeds the
// budget is reported as "n/a" instead of hanging the table.
//
// -json <path> additionally writes the measurements as a machine-readable
// report (name, ns/op, allocs/op, events/sec); "-json auto" names the file
// BENCH_<date>.json, the convention the CI bench job archives and that
// BENCH_baseline.json (the committed pre-optimization snapshot) follows.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"stopwatchsim/internal/compose"
	"stopwatchsim/internal/diag"
	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/gen"
	"stopwatchsim/internal/mc"
	"stopwatchsim/internal/model"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/trace"
)

// probe collects the engine hot-path counters across every measured
// interpretation; the aggregate lands in the -json report so CI can assert
// the instrumented engine actually counted (nonzero steps, consistent
// action/delay split).
var probe = &obs.Probe{}

// benchRow is one machine-readable measurement in the -json report,
// mirroring the columns of `go test -bench` plus the engine's own
// throughput metric.
type benchRow struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsOp is always emitted (no omitempty): an explicit 0 is the
	// compiled backend's headline number, and the CI bench-regression job
	// fails on any allocs increase, so the column must be present to diff.
	AllocsOp  uint64  `json:"allocs_per_op"`
	EventsSec float64 `json:"events_per_sec,omitempty"`
}

// benchReport is the top-level -json document; the file name defaults to
// BENCH_<date>.json so CI can archive one artifact per run.
type benchReport struct {
	Date   string     `json:"date"`
	GoOS   string     `json:"goos"`
	GoArch string     `json:"goarch"`
	Rows   []benchRow `json:"rows"`

	// EngineCounters aggregates the probe over every measured
	// interpretation run.
	EngineCounters obs.Counters `json:"engine_counters"`
}

var report *benchReport

// mallocs samples the process-wide cumulative allocation counter; pairs of
// samples around a run yield its allocs/op.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// addRow records one measurement when -json reporting is active. events is
// the number of engine actions fired during the run (0 omits the
// throughput column).
func addRow(name string, elapsed time.Duration, allocs uint64, events int) {
	if report == nil {
		return
	}
	row := benchRow{
		Name:     name,
		NsPerOp:  float64(elapsed.Nanoseconds()),
		AllocsOp: allocs,
	}
	if events > 0 && elapsed > 0 {
		row.EventsSec = float64(events) / elapsed.Seconds()
	}
	report.Rows = append(report.Rows, row)
}

func main() {
	var (
		table1     = flag.Bool("table1", false, "regenerate Table 1")
		scale      = flag.Bool("scale", false, "run the industrial-scale experiment")
		engineMB   = flag.Bool("engine", false, "run the engine micro-benchmarks (steady-state throughput, expression eval)")
		composeMB  = flag.Bool("compose", false, "run the compositional-vs-global experiment (16-module system)")
		backendStr = flag.String("backend", "compiled", "engine backend for measured interpretations: compiled or naive")
		minJ       = flag.Int("min", 10, "Table 1 minimum job count")
		maxJ       = flag.Int("max", 18, "Table 1 maximum job count")
		maxStates  = flag.Int("max-states", 0, "state bound per Model Checking run (0 = default bound)")
		jsonOut    = flag.String("json", "", `write measurements as JSON ("auto" = BENCH_<date>.json)`)
	)
	budget := diag.BudgetFlags()
	profile := obs.ProfileFlags()
	flag.Parse()
	if !*table1 && !*scale && !*engineMB && !*composeMB {
		*table1, *scale, *engineMB, *composeMB = true, true, true, true
	}
	backend, err := nsa.ParseBackend(*backendStr)
	if err != nil {
		diag.Exit("benchtable", err, nil, "")
	}
	ctx, stop := diag.SignalContext()
	defer stop()
	stopProf, err := profile()
	if err != nil {
		diag.Exit("benchtable", err, nil, "")
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "benchtable:", err)
		}
	}()
	b := budget()
	b.MaxStates = *maxStates
	if *jsonOut != "" {
		report = &benchReport{
			Date:   time.Now().UTC().Format("2006-01-02"),
			GoOS:   runtime.GOOS,
			GoArch: runtime.GOARCH,
		}
	}
	if *table1 {
		if err := runTable1(ctx, *minJ, *maxJ, b, backend); err != nil {
			diag.Exit("benchtable", err, nil, "")
		}
	}
	if *scale {
		if err := runScale(ctx, b, backend); err != nil {
			diag.Exit("benchtable", err, nil, "")
		}
	}
	if *engineMB {
		if err := runEngine(ctx, b, backend); err != nil {
			diag.Exit("benchtable", err, nil, "")
		}
	}
	if *composeMB {
		if err := runCompose(ctx, b, backend); err != nil {
			diag.Exit("benchtable", err, nil, "")
		}
	}
	if report != nil {
		report.EngineCounters = probe.Snapshot()
		path := *jsonOut
		if path == "auto" {
			path = fmt.Sprintf("BENCH_%s.json", report.Date)
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			diag.Exit("benchtable", err, nil, "")
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			diag.Exit("benchtable", err, nil, "")
		}
		fmt.Printf("wrote %s (%d measurements)\n", path, len(report.Rows))
	}
}

func runTable1(ctx context.Context, minJ, maxJ int, b nsa.Budget, backend nsa.Backend) error {
	fmt.Println("Table 1. Execution times for various number of jobs")
	fmt.Printf("%-28s", "Number of jobs")
	for j := minJ; j <= maxJ; j++ {
		fmt.Printf(" %9d", j)
	}
	fmt.Println()

	mcTimes := make([]time.Duration, 0, maxJ-minJ+1) // -1 marks a budget abort
	simTimes := make([]time.Duration, 0, maxJ-minJ+1)
	for j := minJ; j <= maxJ; j++ {
		sys := gen.Table1Config(j)

		m, err := model.Build(sys)
		if err != nil {
			return err
		}
		a0 := mallocs()
		start := time.Now()
		okMC, _, err := mc.CheckSchedulabilityContext(ctx, m, b)
		var rerr *nsa.RunError
		aborted := errors.As(err, &rerr)
		if aborted {
			if rerr.Reason == nsa.StopCanceled {
				return err
			}
			mcTimes = append(mcTimes, -1)
		} else if err != nil {
			return err
		} else {
			d := time.Since(start)
			mcTimes = append(mcTimes, d)
			addRow(fmt.Sprintf("Table1/ModelChecking/jobs=%d", j), d, mallocs()-a0, 0)
		}

		a0 = mallocs()
		start = time.Now()
		m2, err := model.Build(sys)
		if err != nil {
			return err
		}
		tr, res, err := m2.SimulateEngine(ctx, nsa.Options{Budget: b, Probe: probe, Backend: backend})
		if err != nil {
			return err
		}
		a, err := trace.Analyze(sys, tr)
		if err != nil {
			return err
		}
		d := time.Since(start)
		simTimes = append(simTimes, d)
		addRow(fmt.Sprintf("Table1/Proposed/jobs=%d", j), d, mallocs()-a0, res.Actions)
		if !aborted && okMC != a.Schedulable {
			return fmt.Errorf("jobs=%d: MC verdict %t != simulation verdict %t", j, okMC, a.Schedulable)
		}
	}
	fmt.Printf("%-28s", "Model Checking (seconds)")
	for _, d := range mcTimes {
		if d < 0 {
			fmt.Printf(" %9s", "n/a")
		} else {
			fmt.Printf(" %9.3f", d.Seconds())
		}
	}
	fmt.Println()
	fmt.Printf("%-28s", "Proposed Approach (seconds)")
	for _, d := range simTimes {
		fmt.Printf(" %9.3f", d.Seconds())
	}
	fmt.Println()
	return nil
}

func runScale(ctx context.Context, b nsa.Budget, backend nsa.Backend) error {
	sys := gen.IndustrialConfig()
	fmt.Printf("\nIndustrial-scale experiment (§4): %d jobs, %d tasks, %d partitions, %d cores, L=%d\n",
		sys.JobCount(), sys.TaskCount(), len(sys.Partitions), len(sys.Cores), sys.Hyperperiod())

	a0 := mallocs()
	start := time.Now()
	m, err := model.Build(sys)
	if err != nil {
		return err
	}
	build := time.Since(start)
	addRow("IndustrialScale/construction", build, mallocs()-a0, 0)

	a0 = mallocs()
	start = time.Now()
	tr, res, err := m.SimulateEngine(ctx, nsa.Options{Budget: b, Probe: probe, Backend: backend})
	if err != nil {
		return err
	}
	interp := time.Since(start)
	addRow("IndustrialScale/interpretation", interp, mallocs()-a0, res.Actions)

	a, err := trace.Analyze(sys, tr)
	if err != nil {
		return err
	}
	fmt.Printf("model instance construction: %v\n", build)
	fmt.Printf("model interpretation (%s): %v (%d actions, %d delays)\n", backend, interp, res.Actions, res.Delays)
	fmt.Printf("schedulability analysis:     %d jobs, schedulable=%t\n", len(a.Jobs), a.Schedulable)
	fmt.Printf("total:                       %v (paper: \"about 11 seconds for a configuration with 12500 jobs\")\n",
		build+interp)
	return nil
}

// runEngine measures the engine micro-benchmarks. EngineThroughput is the
// steady-state regime: one persistent engine over the mid-size benchmark
// configuration, Reset+Run per op after two warm-up runs, so the compiled
// backend's zero-allocation property is directly visible in the allocs/op
// column. ExprEval times the tree-walking expression evaluator on the
// reference guard.
func runEngine(ctx context.Context, b nsa.Budget, backend nsa.Backend) error {
	sys := gen.Random(21, gen.RandomParams{
		MaxCores: 2, MaxPartitions: 3, MaxTasks: 3,
		Periods: []int64{20, 40, 80}, MaxUtil: 0.9, Messages: 2,
	})
	m, err := model.Build(sys)
	if err != nil {
		return err
	}
	eng := nsa.NewEngine(m.Net, nsa.Options{Horizon: m.Horizon, Budget: b, Backend: backend, Probe: probe})
	res, err := eng.RunContext(ctx)
	if err != nil {
		return err
	}
	// Second warm-up: lazily grown scratch reaches its fixed point.
	eng.Reset()
	if _, err := eng.RunContext(ctx); err != nil {
		return err
	}

	const minWall = 200 * time.Millisecond
	iters := 0
	a0 := mallocs()
	start := time.Now()
	for time.Since(start) < minWall {
		eng.Reset()
		if _, err := eng.RunContext(ctx); err != nil {
			return err
		}
		iters++
	}
	perOp := time.Since(start) / time.Duration(iters)
	allocs := (mallocs() - a0) / uint64(iters)
	addRow("EngineThroughput", perOp, allocs, res.Actions)
	fmt.Printf("\nEngine steady state (%s backend): %v/run, %d allocs/run, %d actions/run over %d runs\n",
		backend, perOp, allocs, res.Actions, iters)

	// The same regime with the flight recorder armed: the observability
	// hot path's cost, pinned as its own row so the CI bench gate catches
	// a tracing-path regression (>15% ns/op over this row) separately
	// from the untraced baseline above.
	eng.SetFlight(obs.NewFlightRecorder(obs.DefaultFlightDepth))
	eng.Reset()
	if _, err := eng.RunContext(ctx); err != nil {
		return err
	}
	fiters := 0
	fa0 := mallocs()
	fstart := time.Now()
	for time.Since(fstart) < minWall {
		eng.Reset()
		if _, err := eng.RunContext(ctx); err != nil {
			return err
		}
		fiters++
	}
	fPerOp := time.Since(fstart) / time.Duration(fiters)
	fAllocs := (mallocs() - fa0) / uint64(fiters)
	eng.SetFlight(nil)
	addRow("EngineThroughput/flight", fPerOp, fAllocs, res.Actions)
	fmt.Printf("Engine steady state, flight recorder armed: %v/run, %d allocs/run over %d runs\n",
		fPerOp, fAllocs, fiters)

	sc := expr.MapScope{
		"x": {Kind: expr.SymVar, Index: 0},
		"t": {Kind: expr.SymClock, Index: 0},
	}
	n := expr.MustParseResolve("t <= 10 && x * 3 + 1 > 2", sc, expr.TypeBool)
	// Pre-box the interface: converting the env struct per call would
	// charge the evaluator one spurious alloc/op.
	var env expr.Env = evalEnv{vars: []int64{4}, clocks: []int64{5}}
	const evalIters = 1_000_000
	ea0 := mallocs()
	estart := time.Now()
	for i := 0; i < evalIters; i++ {
		if !n.EvalBool(env) {
			return fmt.Errorf("ExprEval: reference guard evaluated to false")
		}
	}
	evalOp := time.Since(estart) / evalIters
	addRow("ExprEval", evalOp, (mallocs()-ea0)/evalIters, 0)
	fmt.Printf("Expression eval: %v/op\n", evalOp)
	return nil
}

// runCompose measures the compositional decomposition against the global
// product on a deterministic 16-module distributed system: every module's
// sub-System (local tasks + environment stubs) is built and interpreted
// inline — single-threaded, so the allocs/op column is deterministic and
// the CI bench gate can guard it — and the summed cost is compared to one
// interpretation of the whole product. The gap is the point: local
// hyperperiods divide the global one, so the per-module runs fire far
// fewer transitions in total.
func runCompose(ctx context.Context, b nsa.Budget, backend nsa.Backend) error {
	sys := gen.MultiModule(16, 7)
	plan, err := compose.NewPlan(sys)
	if err != nil {
		return err
	}
	if plan.Fallback != "" {
		return fmt.Errorf("ComposeVsGlobal: benchmark system fell back: %s", plan.Fallback)
	}

	a0 := mallocs()
	start := time.Now()
	var actions int
	for _, mod := range plan.Modules {
		m, err := model.Build(mod.Sub)
		if err != nil {
			return err
		}
		tr, res, err := m.SimulateEngine(ctx, nsa.Options{Budget: b, Probe: probe, Backend: backend})
		if err != nil {
			return err
		}
		a, err := trace.Analyze(mod.Sub, tr)
		if err != nil {
			return err
		}
		if !a.Schedulable {
			return fmt.Errorf("ComposeVsGlobal: module %d unschedulable", mod.ID)
		}
		actions += res.Actions
	}
	compTime := time.Since(start)
	addRow("ComposeVsGlobal/compositional", compTime, mallocs()-a0, actions)

	a0 = mallocs()
	start = time.Now()
	m, err := model.Build(sys)
	if err != nil {
		return err
	}
	tr, res, err := m.SimulateEngine(ctx, nsa.Options{Budget: b, Probe: probe, Backend: backend})
	if err != nil {
		return err
	}
	a, err := trace.Analyze(sys, tr)
	if err != nil {
		return err
	}
	if !a.Schedulable {
		return fmt.Errorf("ComposeVsGlobal: global product unschedulable")
	}
	globTime := time.Since(start)
	addRow("ComposeVsGlobal/global", globTime, mallocs()-a0, res.Actions)

	fmt.Printf("\nCompositional vs global (16 modules, %d contracts): %v compositional, %v global (%.2fx)\n",
		len(plan.Contracts), compTime, globTime, float64(globTime)/float64(compTime))
	fmt.Printf("actions fired: %d compositional vs %d global\n", actions, res.Actions)
	return nil
}

type evalEnv struct {
	vars   []int64
	clocks []int64
}

func (e evalEnv) Var(i int) int64   { return e.vars[i] }
func (e evalEnv) Clock(i int) int64 { return e.clocks[i] }
