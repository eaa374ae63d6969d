// Command simulate reads a system configuration from XML, constructs the
// NSA instance (Algorithm 1), interprets it over one hyperperiod and
// reports the schedulability verdict, per-task response-time statistics
// and, optionally, the full trace and an ASCII Gantt chart.
//
// The run honours the shared resource-limit flags and maps failures onto
// the exit-code scheme documented in internal/diag: 0 schedulable,
// 1 operational error, 2 usage, 3 not schedulable, 4 budget exhausted or
// interrupted, 5 model diagnostic (timelock/livelock/semantics), 6 invalid
// configuration.
//
// Every run is probed and phase-timed: -report writes a JSON document with
// the structured diagnostics (on failure) or a success record, either way
// embedding the telemetry RunReport (phase durations, engine hot-path
// counters). -profile cpu|mem|trace writes a standard pprof/trace file
// over the run. -log-level debug logs every fired transition with the
// chooser seed and chosen candidate index, so a -check-engine divergence
// is reproducible from the log alone.
//
// -backend picks the interpreter: compiled (the default, the library's zero
// value) or naive (full re-enumeration every step, the oracle).
// -check-engine verifies the compiled runtime against a naive enumeration
// of the same state at every step.
//
// Usage:
//
//	simulate -config system.xml [-trace] [-gantt] [-scale N] [-observers]
//	         [-backend compiled|naive]
//	         [-check-engine] [-seed N] [-max-steps N] [-timeout D]
//	         [-max-mem-mb N] [-report out.json] [-profile cpu|mem|trace]
//	         [-log-level info] [-log-format text]
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/diag"
	"stopwatchsim/internal/model"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/observer"
	"stopwatchsim/internal/trace"
)

func main() {
	var (
		configPath = flag.String("config", "", "system configuration XML (required)")
		showTrace  = flag.Bool("trace", false, "print the full system operation trace")
		showGantt  = flag.Bool("gantt", false, "print an ASCII Gantt chart")
		scale      = flag.Int64("scale", 1, "Gantt ticks per column")
		observers  = flag.Bool("observers", false, "check the §3 correctness requirements during the run")
		jsonOut    = flag.String("json", "", "write the trace and analysis as JSON to this file")
		csvOut     = flag.String("csv", "", "write the trace as CSV to this file")
		report     = flag.String("report", "", "write a JSON report (diagnostics + telemetry) to this file")
		backendStr = flag.String("backend", "compiled", "engine backend: compiled or naive")
		checkEng   = flag.Bool("check-engine", false, "verify the compiled runtime against a naive enumeration at every step (slow)")
		seed       = flag.Int64("seed", -1, "resolve nondeterminism with a seeded random chooser (default: first in canonical order)")
	)
	budget := diag.BudgetFlags()
	logger := obs.LogFlags()
	profile := obs.ProfileFlags()
	flag.Parse()
	if *configPath == "" {
		flag.Usage()
		os.Exit(diag.ExitUsage)
	}
	backend, err := nsa.ParseBackend(*backendStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(diag.ExitUsage)
	}
	ctx, stop := diag.SignalContext()
	defer stop()
	r := runner{
		lg:         logger(),
		tl:         obs.NewTimeline(),
		probe:      &obs.Probe{},
		reportPath: *report,
	}
	stopProf, err := profile()
	if err != nil {
		r.fail(err, nil)
	}
	r.run(ctx, *configPath, *showTrace, *showGantt, *scale, *observers, *jsonOut, *csvOut, budget(), backend, *checkEng, *seed)
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
	}
}

// runner carries the run's telemetry so failures at any pipeline stage can
// attach the phases and counters collected so far.
type runner struct {
	lg         *slog.Logger
	tl         *obs.Timeline
	probe      *obs.Probe
	reportPath string
}

// fail routes any error through the diag classifier (printing, JSON report
// with telemetry, exit code) and is a no-op on nil.
func (r *runner) fail(err error, net *nsa.Network) {
	if err == nil {
		return
	}
	diag.ExitWith("simulate", err, net, r.reportPath, r.tl.Report("simulate", r.probe))
}

func (r *runner) run(ctx context.Context, path string, showTrace, showGantt bool, scale int64, withObservers bool, jsonOut, csvOut string, b nsa.Budget, backend nsa.Backend, checkEngine bool, seed int64) {
	sp := r.tl.Start(obs.PhaseParse)
	f, err := os.Open(path)
	if err != nil {
		r.fail(err, nil)
	}
	defer f.Close()
	sys, err := config.ReadXML(f)
	sp.End()
	if err != nil {
		r.fail(err, nil)
	}
	sp = r.tl.Start(obs.PhaseBuild)
	m, err := model.Build(sys)
	sp.End()
	if err != nil {
		r.fail(err, nil)
	}
	fmt.Printf("system %q: %d cores, %d partitions, %d tasks, %d messages, L=%d, %d jobs\n",
		sys.Name, len(sys.Cores), len(sys.Partitions), sys.TaskCount(), len(sys.Messages),
		sys.Hyperperiod(), sys.JobCount())

	if withObservers {
		violations, err := observer.VerifyRunContext(ctx, m, b)
		if err != nil {
			r.fail(err, m.Net)
		}
		if len(violations) == 0 {
			fmt.Println("observers: all §3 requirements satisfied on this run")
		} else {
			for _, v := range violations {
				fmt.Println("observer violation:", v)
			}
		}
		// Rebuild for a clean run below.
		m, err = model.Build(sys)
		if err != nil {
			r.fail(err, nil)
		}
	}

	opts := nsa.Options{Budget: b, Backend: backend, CheckEngine: checkEngine, Probe: r.probe, Logger: r.lg}
	if seed >= 0 {
		opts.Chooser = nsa.NewRandomChooser(seed)
	}
	sp = r.tl.Start(obs.PhaseInterpret)
	tr, res, err := m.SimulateEngine(ctx, opts)
	sp.End()
	if err != nil {
		r.fail(err, m.Net)
	}
	if checkEngine && backend == nsa.BackendCompiled {
		fmt.Println("check-engine: compiled and naive interpretations agreed at every step")
	}
	sp = r.tl.Start(obs.PhaseCheck)
	a, err := trace.Analyze(sys, tr)
	sp.End()
	if err != nil {
		r.fail(err, m.Net)
	}
	fmt.Printf("run: %d actions, %d delays, stopped at t=%d\n", res.Actions, res.Delays, res.Time)
	fmt.Print(a.Summary(sys))
	if showGantt {
		fmt.Print(trace.Gantt(sys, tr, scale))
	}
	if showTrace {
		fmt.Print(tr.Format(sys))
	}
	if jsonOut != "" || csvOut != "" {
		sp = r.tl.Start(obs.PhaseExport)
		if jsonOut != "" {
			w, err := os.Create(jsonOut)
			if err != nil {
				r.fail(err, m.Net)
			}
			if err := trace.WriteJSON(w, sys, tr, a); err != nil {
				w.Close()
				r.fail(err, m.Net)
			}
			if err := w.Close(); err != nil {
				r.fail(err, m.Net)
			}
		}
		if csvOut != "" {
			w, err := os.Create(csvOut)
			if err != nil {
				r.fail(err, m.Net)
			}
			if err := tr.WriteCSV(w, sys); err != nil {
				w.Close()
				r.fail(err, m.Net)
			}
			if err := w.Close(); err != nil {
				r.fail(err, m.Net)
			}
		}
		sp.End()
	}
	if err := diag.WriteSuccess("simulate", r.reportPath, r.tl.Report("simulate", r.probe)); err != nil {
		fmt.Fprintln(os.Stderr, "simulate: writing report:", err)
	}
	if !a.Schedulable {
		os.Exit(diag.ExitVerdict)
	}
}
