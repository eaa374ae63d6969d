// Command compose runs compositional assume-guarantee schedulability
// analysis: the system is decomposed by hardware module, every module is
// verified standalone against interface contracts derived from its
// senders' task parameters, and a refinement check composes the verdict.
// Systems the decomposition is unsound for (arrival-sensitive receivers,
// module dependency cycles, switched networks) fall back to one global-
// product run with the reason flagged.
//
// Per-module results are content-addressed in the artifact store, so
// re-running after a local change re-analyzes only the modules whose
// content (or assumed interfaces) actually changed.
//
// Subcommands:
//
//	compose run    -c system.xml [-store DIR] [-workers N] [-compare] [-report out.json]
//	compose status -c system.xml -store DIR
//	compose export -c system.xml -store DIR [-o out.json]
//
// run analyzes the configuration and prints the per-module breakdown;
// -compare additionally runs the global product and reports the step
// ratio; -report writes the result JSON (compose/result/v1). status and
// export answer from the store without computing anything.
//
// Exit codes follow internal/diag: 0 schedulable, 1 operational error,
// 2 usage, 3 unschedulable, 6 configuration rejected.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"stopwatchsim/internal/compose"
	"stopwatchsim/internal/config"
	"stopwatchsim/internal/diag"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(diag.ExitUsage)
	}
	var code int
	switch os.Args[1] {
	case "run":
		code = cmdRun(os.Args[2:])
	case "status":
		code = cmdStatus(os.Args[2:])
	case "export":
		code = cmdExport(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "compose: unknown subcommand %q\n", os.Args[1])
		usage()
		code = diag.ExitUsage
	}
	os.Exit(code)
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  compose run    -c system.xml [-store DIR] [-workers N] [-compare] [-report out.json]
  compose status -c system.xml -store DIR
  compose export -c system.xml -store DIR [-o out.json]
`)
}

func fail(err error) int {
	rep := diag.FromError("compose", err, nil)
	fmt.Fprintln(os.Stderr, "compose:", rep.Message)
	return rep.ExitCode
}

func loadSystem(path string) (*config.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return config.ReadXML(f)
}

// openStore opens the artifact store with the compose document kind
// pinned (exempt from GC).
func openStore(dir string) (*store.Store, error) {
	return store.Open(dir, store.Options{PinnedKinds: []string{compose.StoreKind()}})
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("compose run", flag.ExitOnError)
	confPath := fs.String("c", "", "system configuration XML (required)")
	storeDir := fs.String("store", "", "artifact store directory (enables incremental re-analysis)")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent module analyses")
	compare := fs.Bool("compare", false, "also run the global product and report the step ratio")
	report := fs.String("report", "", "write the result JSON (compose/result/v1) to this file")
	logger := obs.LogFlagsFor(fs)
	fs.Parse(args)
	lg := logger()
	if *confPath == "" {
		fs.Usage()
		return diag.ExitUsage
	}
	sys, err := loadSystem(*confPath)
	if err != nil {
		return fail(err)
	}

	var st *store.Store
	if *storeDir != "" {
		if st, err = openStore(*storeDir); err != nil {
			return fail(err)
		}
		defer st.Close()
	}
	pool := jobs.New(jobs.Options{Workers: *workers, Tool: "compose", Logger: lg, Store: st})
	defer pool.Close()
	a := compose.New(pool, st, lg)

	ctx, stop := diag.SignalContext()
	defer stop()
	res, err := a.Run(ctx, sys)
	if err != nil {
		return fail(err)
	}
	if *compare && res.Compositional {
		jb, err := pool.Submit(jobs.ConfigRun{Sys: sys})
		if err == nil {
			jb, err = pool.Wait(ctx, jb.ID)
		}
		if err != nil {
			return fail(err)
		}
		if jb.Status == jobs.StatusDone && jb.Outcome.Telemetry != nil {
			res.GlobalSteps = jb.Outcome.Telemetry.Counters.Steps
		}
	}
	printResult(res)
	if *report != "" {
		if err := writeResult(*report, res); err != nil {
			return fail(err)
		}
	}
	if res.Verdict != jobs.VerdictSchedulable {
		return diag.ExitVerdict
	}
	return diag.ExitOK
}

func printResult(res *compose.Result) {
	mode := "compositional"
	if !res.Compositional {
		mode = "global fallback"
	}
	fmt.Fprintf(os.Stderr, "compose %s: %s (%s) in %s\n",
		res.System, res.Verdict, mode, time.Duration(res.ElapsedNS))
	if res.Fallback != "" {
		fmt.Fprintf(os.Stderr, "  fallback: %s\n", res.Fallback)
	}
	for i := range res.Modules {
		m := &res.Modules[i]
		src := "engine"
		switch {
		case m.DocHit:
			src = "store"
		case m.DiskHit:
			src = "disk"
		case m.CacheHit:
			src = "cache"
		}
		fmt.Fprintf(os.Stderr, "  module %d: %s  %d tasks +%d stubs  %d steps  (%s)\n",
			m.Module, m.Verdict, m.Tasks, m.Stubs, m.Steps, src)
	}
	if len(res.Modules) > 0 {
		fmt.Fprintf(os.Stderr, "  modules: %d analyzed, %d cached; %d total steps\n",
			res.ModulesAnalyzed, res.ModulesCached, res.TotalSteps)
	}
	for i := range res.Contracts {
		c := &res.Contracts[i]
		ok := "refined"
		if !c.Refined {
			ok = "VIOLATED"
		}
		fmt.Fprintf(os.Stderr, "  contract %s: %s -> %s  guarantee %d <= assumed %d  %s\n",
			c.Name, c.SenderName, c.ReceiverName, c.Guarantee, c.LatestOffset, ok)
	}
	if res.GlobalSteps > 0 && res.TotalSteps > 0 {
		fmt.Fprintf(os.Stderr, "  global product: %d steps (compositional/global = %.3f)\n",
			res.GlobalSteps, float64(res.TotalSteps)/float64(res.GlobalSteps))
	}
	if res.Trace != "" {
		fmt.Fprintf(os.Stderr, "  trace %s\n", res.Trace)
	}
}

func writeResult(path string, res *compose.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// statusResult loads the persisted result for the configuration at
// confPath from storeDir.
func statusResult(confPath, storeDir string) (*compose.Result, int) {
	sys, err := loadSystem(confPath)
	if err != nil {
		return nil, fail(err)
	}
	st, err := openStore(storeDir)
	if err != nil {
		return nil, fail(err)
	}
	defer st.Close()
	pool := jobs.New(jobs.Options{Workers: 1, Tool: "compose"})
	defer pool.Close()
	res, ok, err := compose.New(pool, st, nil).Status(sys)
	if err != nil {
		return nil, fail(err)
	}
	if !ok {
		return nil, fail(fmt.Errorf("store holds no result for %s (fingerprint %s)", sys.Name, sys.Fingerprint()[:12]))
	}
	return res, diag.ExitOK
}

func cmdStatus(args []string) int {
	fs := flag.NewFlagSet("compose status", flag.ExitOnError)
	confPath := fs.String("c", "", "system configuration XML (required)")
	storeDir := fs.String("store", "", "artifact store directory (required)")
	fs.Parse(args)
	if *confPath == "" || *storeDir == "" {
		fs.Usage()
		return diag.ExitUsage
	}
	res, code := statusResult(*confPath, *storeDir)
	if res == nil {
		return code
	}
	printResult(res)
	return diag.ExitOK
}

func cmdExport(args []string) int {
	fs := flag.NewFlagSet("compose export", flag.ExitOnError)
	confPath := fs.String("c", "", "system configuration XML (required)")
	storeDir := fs.String("store", "", "artifact store directory (required)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if *confPath == "" || *storeDir == "" {
		fs.Usage()
		return diag.ExitUsage
	}
	res, code := statusResult(*confPath, *storeDir)
	if res == nil {
		return code
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return fail(err)
	}
	return diag.ExitOK
}
