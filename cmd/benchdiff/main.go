// Command benchdiff compares two benchtable -json reports and fails on
// performance regressions. It is the CI bench-regression gate: for every
// guarded row (-rows, default the engine steady-state throughput — bare
// and with the flight recorder armed — the §4 industrial-scale
// interpretation, the compositional half of the 16-module
// compositional-vs-global experiment, and exhaustive Model Checking of
// Table 1 at 13 jobs) the current report must stay within -max-regress of
// the baseline's ns/op (default 0.15 = +15%) and must not increase
// allocs/op: exactly for rows whose baseline is zero — the compiled
// runtime's zero-allocation property is a hard invariant, not a soft
// target — and beyond 1% for the rest, absorbing the ±1 process-wide
// malloc-counter jitter single-shot measurements carry.
//
// Non-guarded rows present in both reports are printed for context but
// never fail the run: the other Table 1 Model Checking columns are
// exponential and noisy (13 jobs stands for them), and construction cost
// is tracked by its own benchmark.
//
// Exit codes: 0 no regression, 1 regression or guarded row missing,
// 2 usage.
//
// Usage:
//
//	benchdiff -baseline BENCH_old.json -current BENCH_new.json
//	          [-max-regress 0.15]
//	          [-rows EngineThroughput,EngineThroughput/flight,IndustrialScale/interpretation,ComposeVsGlobal/compositional,Table1/ModelChecking/jobs=13]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

type benchRow struct {
	Name      string  `json:"name"`
	NsPerOp   float64 `json:"ns_per_op"`
	AllocsOp  uint64  `json:"allocs_per_op"`
	EventsSec float64 `json:"events_per_sec"`
}

type benchReport struct {
	Date string     `json:"date"`
	Rows []benchRow `json:"rows"`
}

func load(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func index(r *benchReport) map[string]benchRow {
	m := make(map[string]benchRow, len(r.Rows))
	for _, row := range r.Rows {
		m[row.Name] = row
	}
	return m
}

func main() {
	var (
		basePath   = flag.String("baseline", "", "baseline benchtable -json report (required)")
		curPath    = flag.String("current", "", "current benchtable -json report (required)")
		maxRegress = flag.Float64("max-regress", 0.15, "allowed ns/op growth on guarded rows (0.15 = +15%)")
		rowsFlag   = flag.String("rows", "EngineThroughput,EngineThroughput/flight,IndustrialScale/interpretation,ComposeVsGlobal/compositional,Table1/ModelChecking/jobs=13",
			"comma-separated guarded row names")
	)
	flag.Parse()
	if *basePath == "" || *curPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := load(*curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	bi, ci := index(base), index(cur)

	guarded := make(map[string]bool)
	for _, name := range strings.Split(*rowsFlag, ",") {
		if name = strings.TrimSpace(name); name != "" {
			guarded[name] = true
		}
	}

	fmt.Printf("baseline %s (%s)  vs  current %s (%s)\n",
		*basePath, base.Date, *curPath, cur.Date)
	fmt.Printf("%-42s %14s %14s %8s %12s %12s\n",
		"row", "base ns/op", "cur ns/op", "Δ%", "base allocs", "cur allocs")

	failed := false
	fail := func(format string, args ...any) {
		failed = true
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL: "+format+"\n", args...)
	}

	// Guarded rows must exist in both reports: a renamed or dropped
	// benchmark silently disarming the gate is itself a regression.
	for name := range guarded {
		if _, ok := bi[name]; !ok {
			fail("guarded row %q missing from baseline %s", name, *basePath)
		}
		if _, ok := ci[name]; !ok {
			fail("guarded row %q missing from current %s", name, *curPath)
		}
	}

	for _, row := range cur.Rows {
		b, ok := bi[row.Name]
		if !ok {
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (row.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		}
		mark := ""
		if guarded[row.Name] {
			mark = " *"
			if b.NsPerOp > 0 && row.NsPerOp > b.NsPerOp*(1+*maxRegress) {
				fail("%s: ns/op %.0f exceeds baseline %.0f by more than %.0f%%",
					row.Name, row.NsPerOp, b.NsPerOp, *maxRegress*100)
			}
			// Zero-baseline rows are exact (the zero-allocation invariant);
			// nonzero ones get 1% slack for malloc-counter sampling jitter.
			if allowed := b.AllocsOp + b.AllocsOp/100; row.AllocsOp > allowed {
				fail("%s: allocs/op grew %d -> %d (allowed at most %d)",
					row.Name, b.AllocsOp, row.AllocsOp, allowed)
			}
		}
		fmt.Printf("%-42s %14.0f %14.0f %+7.1f%% %12d %12d%s\n",
			row.Name, b.NsPerOp, row.NsPerOp, delta, b.AllocsOp, row.AllocsOp, mark)
	}

	if failed {
		os.Exit(1)
	}
	fmt.Println("benchdiff: no regression on guarded rows")
}
