// Command saserve runs the schedulability analysis service: an HTTP API
// over a bounded worker pool with a content-addressed result cache. The
// paper's central property — one deterministic NSA interpretation decides
// a configuration — makes the service shape natural: runs are pure
// functions of the submitted configuration, so they batch, parallelize
// and cache like any content-addressed computation.
//
//	POST   /v1/jobs          submit XML/JSON configuration or XTA model
//	GET    /v1/jobs          list jobs
//	GET    /v1/jobs/{id}     status, verdict, structured diagnostics
//	DELETE /v1/jobs/{id}     cancel
//	GET    /v1/jobs/{id}/trace  trace export (json, csv, text)
//	GET    /v1/jobs/{id}/gantt  ASCII Gantt chart
//	GET    /v1/jobs/{id}/report telemetry RunReport of a completed run
//	GET    /v1/jobs/{id}/postmortem flight-recorder dump of a dump-worthy failure
//	GET    /v1/traces/{id}   span tree of a trace (ingress → pool → store → engine)
//	POST   /v1/campaigns     start (or resume) a design-space campaign
//	GET    /v1/campaigns     list campaigns
//	GET    /v1/campaigns/{id}        campaign state and progress
//	DELETE /v1/campaigns/{id}        cancel a running campaign
//	GET    /v1/campaigns/{id}/result campaign summary (frontier table)
//	GET    /v1/campaigns/{id}/events live SSE event stream (points, coverage, ETA)
//	POST   /v1/synth         start (or resume) a region synthesis
//	GET    /v1/synth         list syntheses
//	GET    /v1/synth/{id}        synthesis state and progress
//	DELETE /v1/synth/{id}        cancel a running synthesis
//	GET    /v1/synth/{id}/region region export (box cover and witnesses)
//	GET    /v1/synth/{id}/events live SSE event stream (points, budget, ETA)
//	POST   /v1/compose       compositional per-module analysis (?status=true)
//	GET    /metrics          Prometheus-style metrics
//	GET    /healthz          liveness
//	GET    /readyz           readiness (503 while the store tier is degraded)
//	GET    /debug/pprof/*    runtime profiles (only with -pprof)
//
// With -store DIR, results, campaign checkpoints and synthesis
// checkpoints persist in a crash-safe on-disk artifact store: completed
// outcomes form a second cache tier under the in-memory LRU (memory miss
// → disk hit → compute), and campaigns and syntheses interrupted by a
// crash resume on restart, skipping every point whose configuration
// fingerprint is already on disk.
//
// Per-job resource budgets come from the shared flags (-max-steps,
// -timeout, -max-mem-mb) as defaults, overridable per submission with
// ?max-steps= and ?timeout= query parameters. SIGINT/SIGTERM drains the
// pool and exits. Logging is structured (-log-level, -log-format); every
// job-lifecycle record carries the job ID and configuration fingerprint.
//
// Usage:
//
//	saserve [-addr :8080] [-workers N] [-queue N] [-cache N] [-pprof]
//	        [-store DIR] [-store-max-mb N] [-stuck-after D]
//	        [-breaker-threshold N] [-faults PLAN] [-fault-seed N]
//	        [-trace-spans N] [-trace-export FILE.jsonl] [-flight-depth N]
//	        [-log-level info] [-log-format text]
//	        [-max-steps N] [-timeout D] [-max-mem-mb N]
//
// Self-healing is always on: transient store failures are retried with
// backoff, a persistently failing store trips a circuit breaker
// (-breaker-threshold consecutive failures, default 5) into memory-only
// degraded mode (visible on /readyz and the saserve_degraded gauge)
// until a probe succeeds, and -stuck-after arms a watchdog that
// kills and requeues wedged runs. -faults arms the deterministic fault
// injector (chaos testing): either the canonical randomized plan
// ("chaos:0.05") or an explicit rule list
// ("store.journal.sync:p=0.05;jobs.worker.run:every=97,kind=panic").
//
// Cross-layer tracing and the flight recorder are on by default
// (-trace-spans 0 and -flight-depth 0 disable them): every request gets
// a W3C traceparent (honoured inbound, echoed as a response header),
// its spans land in a bounded in-memory collector served by /v1/traces,
// and dump-worthy failures (deadlock, stuck, panic, injected fault)
// persist a flight-recorder post-mortem retrievable even after a crash.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"stopwatchsim/internal/campaign"
	"stopwatchsim/internal/compose"
	"stopwatchsim/internal/diag"
	"stopwatchsim/internal/fault"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/store"
	"stopwatchsim/internal/synth"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", runtime.NumCPU(), "concurrent analysis runs")
		queue      = flag.Int("queue", 256, "bounded job queue depth (backpressure beyond)")
		cache      = flag.Int("cache", 1024, "result cache entries (negative disables)")
		pprofFlag  = flag.Bool("pprof", false, "serve runtime profiles under /debug/pprof/")
		storeDir   = flag.String("store", "", "persistent artifact store directory (empty disables)")
		storeMaxMB = flag.Int64("store-max-mb", 0, "artifact store size bound in MiB before GC (0 = unbounded)")
		faults     = flag.String("faults", "", "fault injection plan: 'chaos:RATE' or 'site:k=v,...;site:k=v,...' (chaos testing only)")
		faultSeed  = flag.Int64("fault-seed", 1, "fault injection RNG seed (deterministic per seed)")
		stuckAfter = flag.Duration("stuck-after", 0, "watchdog deadline: kill and requeue jobs running longer than this (0 disables)")
		breakAfter = flag.Int("breaker-threshold", 0, "consecutive store failures before the disk tier degrades to memory-only (0 = default 5)")

		traceSpans  = flag.Int("trace-spans", obs.DefaultTraceSpans, "in-memory span collector capacity (0 disables tracing)")
		traceExport = flag.String("trace-export", "", "append finished spans as JSON lines to this file (requires tracing)")
		flightDepth = flag.Int("flight-depth", obs.DefaultFlightDepth, "flight recorder ring depth per worker and for service events (0 disables)")
	)
	budget := diag.BudgetFlags()
	logger := obs.LogFlags()
	flag.Parse()
	lg := logger()

	// Fault injection is opt-in and loud: a service deliberately running
	// under chaos should say so on every startup line it owns.
	var inj *fault.Injector
	if *faults != "" {
		var plan fault.Plan
		if rs, ok := strings.CutPrefix(*faults, "chaos:"); ok {
			rate, err := strconv.ParseFloat(rs, 64)
			if err != nil || rate < 0 || rate > 1 {
				fmt.Fprintf(os.Stderr, "saserve: bad chaos rate %q (want 0..1)\n", rs)
				os.Exit(diag.ExitUsage)
			}
			plan = fault.ChaosPlan(*faultSeed, rate)
		} else {
			var err error
			plan, err = fault.ParsePlan(*faults, *faultSeed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "saserve:", err)
				os.Exit(diag.ExitUsage)
			}
		}
		inj = fault.New(plan)
		lg.Warn("fault injection armed", "plan", *faults, "seed", *faultSeed)
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{
			MaxBytes:    *storeMaxMB << 20,
			PinnedKinds: []string{campaign.StoreKind(), synth.StoreKind(), compose.StoreKind()},
			Faults:      inj,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "saserve:", err)
			os.Exit(diag.ExitUsage)
		}
		defer st.Close()
		stats := st.Stats()
		lg.Info("store open", "dir", *storeDir, "objects", stats.Objects, "bytes", stats.Bytes,
			"recovered_records", stats.RecoveredRecords, "truncated_bytes", stats.TruncatedBytes)
	}

	// Tracing and flight recording are on by default: the collector is a
	// fixed ring and the hot paths pay one branch per site, so the ops
	// value costs nothing measurable. -trace-spans 0 / -flight-depth 0
	// turn them off entirely.
	var tracer *obs.Tracer
	if *traceSpans > 0 {
		var export *os.File
		if *traceExport != "" {
			var err error
			export, err = os.OpenFile(*traceExport, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, "saserve:", err)
				os.Exit(diag.ExitUsage)
			}
			defer export.Close()
		}
		if export != nil {
			tracer = obs.NewTracer(*traceSpans, export)
		} else {
			tracer = obs.NewTracer(*traceSpans, nil)
		}
	} else if *traceExport != "" {
		fmt.Fprintln(os.Stderr, "saserve: -trace-export requires tracing (-trace-spans > 0)")
		os.Exit(diag.ExitUsage)
	}

	pool := jobs.New(jobs.Options{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheSize:        *cache,
		Budget:           budget(),
		Tool:             "saserve",
		Logger:           lg,
		Store:            st,
		Faults:           inj,
		StuckAfter:       *stuckAfter,
		BreakerThreshold: *breakAfter,
		Tracer:           tracer,
		FlightDepth:      *flightDepth,
	})
	camps := campaign.NewEngine(pool, st, lg)
	if resumed := camps.ResumeAll(); len(resumed) > 0 {
		lg.Info("campaigns resumed", "count", len(resumed), "ids", resumed)
	}
	synths := synth.NewEngine(pool, st, lg)
	if resumed := synths.ResumeAll(); len(resumed) > 0 {
		lg.Info("syntheses resumed", "count", len(resumed), "ids", resumed)
	}
	comp := compose.New(pool, st, lg)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newMux(pool, camps, synths, comp, *pprofFlag),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := diag.SignalContext()
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	lg.Info("listening", "addr", *addr, "workers", *workers,
		"queue", *queue, "cache", *cache, "store", *storeDir,
		"pprof", *pprofFlag)

	select {
	case err := <-errc:
		lg.Error("serve failed", "error", err)
		os.Exit(diag.ExitError)
	case <-ctx.Done():
	}
	lg.Info("draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "saserve: shutdown:", err)
	}
	pool.Close()
}
