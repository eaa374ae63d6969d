// Command perfbench is the repository benchmark. It drives the analysis
// pipeline, the exhaustive model checker, the explorers and the saserve
// service through their public entry points, checks every op's output
// against a reference, and prints its metrics: the end-to-end metrics of
// BENCHMARK.json with -trace 0, the per-layer metrics with -trace 1. The
// last line of standard output is one JSON object; the lines before it
// are for people (tail percentiles with their sample counts, the layer
// breakdown, input digests).
//
// Run it from the repository root through run.sh, which builds this
// package and cmd/saserve first:
//
//	bash perfbench/run.sh --workload industrial --seed 1 --seconds 20 --trace 0
//
// README.md describes the workloads, the metrics and the layer model.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// opTimeout bounds one op. A failed or timed-out op is recorded with an
// infinite latency; a reported statistic that lands on one prints this
// bound instead, the least the op's latency exceeded.
const opTimeout = 120 * time.Second

// setupReps is how many times each run sets up; setup_s is the median.
const setupReps = 3

// env is one benchmark invocation.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	root     string // repository root: examples/ and perfbench/ live here
	work     string // scratch directory for stores, removed at exit
	saserve  string // saserve binary for the service workload
	t1Jobs   int    // Table 1 size of the table1 workload
	out      io.Writer
}

// notef prints a human-readable line before the JSON result.
func (e *env) notef(format string, args ...any) {
	fmt.Fprintf(e.out, "perfbench: "+format+"\n", args...)
}

// report is what one workload run measured.
type report struct {
	attempted, failed int
	mismatches        []string

	setupS    []float64 // one per set-up
	verdictMS []float64 // one per verdict, +Inf for a failed op
	opS       []float64 // one per op, +Inf for a failed op
	verdicts  int       // verdicts completed inside the window
	wallS     float64   // window start to last completion
	rssMB     float64

	layers *layerStats // traced runs only
}

func (r *report) mismatch(format string, args ...any) {
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(ctx context.Context, e *env) (*report, error)

var workloads = map[string]workloadFunc{
	"industrial": runIndustrial,
	"table1":     runTable1,
	"service":    runService,
	"explore":    runExplore,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "industrial, table1, service or explore")
	seed := fs.Int64("seed", defaultSeed, "workload seed (the fixed paper instances ignore it)")
	seconds := fs.Float64("seconds", 10, "measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	root := fs.String("root", ".", "repository root")
	saserve := fs.String("saserve", "", "saserve binary (service workload)")
	t1Jobs := fs.Int("table1-jobs", table1Jobs, "job count of the table1 workload")
	digests := fs.String("digests", "", "print the input digests of seeds FROM-TO instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *digests != "" {
		if err := printDigests(stdout, *root, *digests); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wf, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (industrial, table1, service, explore), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	if _, err := os.Stat(filepath.Join(*root, "go.mod")); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s is not the repository root: %v\n", *root, err)
		return 1
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traceFlag == 1,
		root:     *root,
		saserve:  *saserve,
		t1Jobs:   *t1Jobs,
		out:      stdout,
	}
	// Stores live in a fresh directory inside the checkout.
	parent := filepath.Join(*root, ".bench_build", "work")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(parent, e.workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e.work = dir
	// The run's stores go at exit, and the deletions are flushed before
	// it: left to the filesystem, they would slow the next run's fsyncs.
	defer func() {
		os.RemoveAll(dir)
		syscall.Sync()
	}()

	rep, err := wf(context.Background(), e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	res := e.result(rep)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result turns a report into the printed result, writing the
// human-readable context lines first.
func (e *env) result(r *report) result {
	for _, m := range r.mismatches {
		e.notef("MISMATCH %s", m)
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	e.notef("workload=%s seed=%d trace=%t attempted=%d failed=%d failed_frac=%s",
		e.workload, e.seed, e.traced, r.attempted, r.failed, fmtFloat(failedFrac))
	vals := map[string]float64{}
	if e.traced {
		vals = r.layers.metrics()
		vals["failed_frac"] = failedFrac
		untraced := "none (every op traced)"
		if len(r.layers.plainMS) > 0 {
			untraced = fmt.Sprintf("p50 %s over %d ops", fmtFloat(median(r.layers.plainMS)), len(r.layers.plainMS))
		}
		e.notef("traced op ms: p50 %s over %d ops; untraced op ms: %s",
			fmtFloat(median(r.layers.tracedMS)), len(r.layers.tracedMS), untraced)
		e.notef("layers (mean ms per traced op): %s unattributed_ms=%s",
			strings.Join(r.layers.breakdown(), " "), fmtFloat(vals["unattributed_ms"]))
	} else {
		vt, ot := tail(r.verdictMS), tail(r.opS)
		vals["setup_s"] = median(r.setupS)
		vals["verdict_ms_p50"] = median(r.verdictMS)
		vals["verdict_ms_tail"] = vt.Value
		vals["verdicts_per_s"] = float64(r.verdicts) / r.wallS
		vals["explore_s_p50"] = median(r.opS)
		vals["explore_s_tail"] = ot.Value
		vals["peak_rss_mb"] = r.rssMB
		e.notef("setup_s over %d set-ups: %s", len(r.setupS), fmtList(r.setupS))
		e.notef("verdict_ms_tail is %s", describeTail(vt))
		e.notef("explore_s_tail is %s", describeTail(ot))
	}
	res := result{Correct: len(r.mismatches) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsInf(v, 1) {
			e.notef("%s lands on a failed op; printing the op timeout", d.Name)
			v = opTimeout.Seconds()
			if d.Unit == "ms" {
				v *= 1000
			}
		}
		if math.IsNaN(v) {
			e.notef("%s has no samples; printing 0", d.Name)
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res
}

// describeTail spells out which percentile a tail metric is and how many
// samples back it.
func describeTail(t tailStat) string {
	s := fmt.Sprintf("p%d = %s with n=%d (%d beyond)", t.Percentile, fmtFloat(t.Value), t.N, t.Beyond)
	if t.Short {
		s += fmt.Sprintf("; fewer than %d samples lie beyond any percentile above the median, so p%d is reported",
			minBeyond, shortPercentile)
	}
	return s
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmtFloat(x)
	}
	return strings.Join(parts, " ")
}

// closedLoop runs op from callers goroutines until window has elapsed or
// op reports there is no more work: each caller issues its next op only
// after the previous one returned, so a slower system receives less load.
// An op started inside the window runs to completion. It returns the time
// from the start to the last completion.
func closedLoop(callers int, window time.Duration, op func(caller, i int) bool) time.Duration {
	start := time.Now()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		last time.Duration
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < window; i++ {
				if !op(c, i) {
					return
				}
				d := time.Since(start)
				mu.Lock()
				if d > last {
					last = d
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return last
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB; pid 0 is
// this process.
func peakRSSMB(pid int) (float64, error) {
	p := "/proc/self/status"
	if pid != 0 {
		p = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fs := strings.Fields(rest)
			if len(fs) == 2 && fs[1] == "kB" {
				kb, err := strconv.ParseFloat(fs[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("no VmHWM line in " + p)
}

// resetPeakRSS resets this process's VmHWM to its current resident set
// (proc(5), clear_refs), after returning the free heap to the OS, so that
// the next reading covers only what runs after the call.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// timeSetups runs f setupReps times and returns the seconds each took.
func timeSetups(f func(rep int) error) ([]float64, error) {
	var out []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := f(i); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// printDigests prints the digest lines of inputs.sha256 for a seed range.
func printDigests(w io.Writer, root, spec string) error {
	lo, hi, ok := strings.Cut(spec, "-")
	if !ok {
		hi = lo
	}
	from, err1 := strconv.ParseInt(lo, 10, 64)
	to, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || from > to {
		return fmt.Errorf("bad seed range %q", spec)
	}
	ind, err := industrialDigest()
	if err != nil {
		return err
	}
	t1, err := table1Digest(table1Jobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "industrial %s %s\ntable1 %s %s\n", anySeedToken, ind, anySeedToken, t1)
	for s := from; s <= to; s++ {
		sd, err := serviceDigest(s)
		if err != nil {
			return err
		}
		xd, err := exploreDigest(root, s)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "service %d %s\nexplore %d %s\n", s, sd, s, xd)
	}
	return nil
}

// nproc is the caller count of the service workload.
func nproc() int { return runtime.NumCPU() }
