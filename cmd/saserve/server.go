package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"stopwatchsim/internal/campaign"
	"stopwatchsim/internal/compose"
	"stopwatchsim/internal/config"
	"stopwatchsim/internal/diag"
	"stopwatchsim/internal/fault"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/synth"
	"stopwatchsim/internal/trace"
)

// maxBodyBytes bounds submitted configurations.
const maxBodyBytes = 8 << 20

// defaultXTAHorizon is the model-time horizon of XTA submissions that do
// not pass ?horizon=N.
const defaultXTAHorizon = 1000

// server holds the HTTP handlers over one jobs.Pool, one
// campaign.Engine and one synth.Engine.
type server struct {
	pool    *jobs.Pool
	camps   *campaign.Engine
	synths  *synth.Engine
	comp    *compose.Analyzer
	started time.Time
}

// newMux wires the REST API:
//
//	POST   /v1/jobs          submit a configuration (XML/JSON) or XTA model
//	GET    /v1/jobs          list jobs
//	GET    /v1/jobs/{id}     job status, verdict and diagnostics
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	GET    /v1/jobs/{id}/trace  stream the trace (json, csv, text)
//	GET    /v1/jobs/{id}/gantt  ASCII Gantt chart
//	GET    /v1/jobs/{id}/report telemetry RunReport of a completed run
//	GET    /v1/jobs/{id}/postmortem flight-recorder dump of a dump-worthy failure
//	GET    /v1/traces/{id}   span tree of one trace (ID or full traceparent)
//	POST   /v1/campaigns     start (or resume) a design-space campaign
//	GET    /v1/campaigns     list campaigns
//	GET    /v1/campaigns/{id}        campaign state and progress
//	DELETE /v1/campaigns/{id}        cancel a running campaign
//	GET    /v1/campaigns/{id}/result campaign summary (frontier table)
//	GET    /v1/campaigns/{id}/events live SSE event stream
//	POST   /v1/synth         start (or resume) a region synthesis
//	GET    /v1/synth         list syntheses
//	GET    /v1/synth/{id}        synthesis state and progress
//	DELETE /v1/synth/{id}        cancel a running synthesis
//	GET    /v1/synth/{id}/region region export (box cover and witnesses)
//	GET    /v1/synth/{id}/events live SSE event stream
//	POST   /v1/compose       compositional analysis of a configuration
//	                         (?status=true answers from the store only)
//	GET    /metrics          Prometheus-style counters
//	GET    /healthz          liveness
//	GET    /readyz           readiness (503 while the store tier is degraded)
//
// enablePprof additionally mounts the runtime profiling handlers under
// /debug/pprof/ (opt-in: profiles expose internals, so they are off unless
// the operator asks).
func newMux(pool *jobs.Pool, camps *campaign.Engine, synths *synth.Engine, comp *compose.Analyzer, enablePprof bool) *http.ServeMux {
	s := &server{pool: pool, camps: camps, synths: synths, comp: comp, started: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs", s.list)
	mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.trace)
	mux.HandleFunc("GET /v1/jobs/{id}/gantt", s.gantt)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.report)
	mux.HandleFunc("GET /v1/jobs/{id}/postmortem", s.postmortem)
	mux.HandleFunc("GET /v1/traces/{id}", s.spanTree)
	campaigns(camps).mount(mux)
	syntheses(synths).mount(mux)
	mux.HandleFunc("POST /v1/compose", s.composeRun)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /healthz", s.health)
	mux.HandleFunc("GET /readyz", s.ready)
	if enablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// jobDoc is the JSON wire form of a job snapshot.
type jobDoc struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Status      string `json:"status"`
	CacheHit    bool   `json:"cache_hit"`
	// DiskHit marks cache hits served by the persistent store tier.
	DiskHit   bool   `json:"disk_hit,omitempty"`
	Submitted string `json:"submitted"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`

	// Completed runs.
	Verdict   string `json:"verdict,omitempty"`
	System    string `json:"system,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	Actions   int    `json:"engine_actions,omitempty"`
	JobsTotal int    `json:"jobs_total,omitempty"`
	JobsLate  int    `json:"jobs_unschedulable,omitempty"`

	// Trace is the job's W3C traceparent when the service traces;
	// Postmortem names the flight-recorder dump a dump-worthy failure left
	// behind (GET /v1/jobs/{id}/postmortem).
	Trace      string `json:"traceparent,omitempty"`
	Postmortem string `json:"postmortem,omitempty"`

	// Failed or canceled runs.
	Report *diag.Report `json:"report,omitempty"`
}

func toDoc(jb jobs.Job) jobDoc {
	d := jobDoc{
		ID:          jb.ID,
		Fingerprint: jb.Key,
		Status:      string(jb.Status),
		CacheHit:    jb.CacheHit,
		DiskHit:     jb.DiskHit,
		Submitted:   jb.Submitted.UTC().Format(time.RFC3339Nano),
		Postmortem:  jb.PostmortemKey,
		Report:      jb.Report,
	}
	if jb.Trace.Valid() {
		d.Trace = jb.Trace.Traceparent()
	}
	if !jb.Started.IsZero() {
		d.Started = jb.Started.UTC().Format(time.RFC3339Nano)
	}
	if !jb.Finished.IsZero() {
		d.Finished = jb.Finished.UTC().Format(time.RFC3339Nano)
	}
	if out := jb.Outcome; out != nil {
		d.Verdict = string(out.Verdict)
		d.ElapsedMS = out.Elapsed.Milliseconds()
		d.Actions = out.Engine.Actions
		if out.Sys != nil {
			d.System = out.Sys.Name
		}
		if out.Analysis != nil {
			d.JobsTotal = len(out.Analysis.Jobs)
			d.JobsLate = len(out.Analysis.Unschedulable)
		}
		// Disk-served outcomes carry a compact summary instead of the
		// full trace and analysis.
		if p := out.Persisted; p != nil {
			d.System = p.System
			d.JobsTotal = p.JobsTotal
			d.JobsLate = p.JobsLate
		}
	}
	return d
}

// submit accepts a system configuration (application/xml or
// application/json) or an XTA model (application/x-xta, ?horizon=N) and
// enqueues the analysis. ?wait=true blocks until the run completes.
// Budget overrides: ?max-steps=N and ?timeout=30s bound the run.
func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "configuration exceeds %d bytes", maxBodyBytes)
		return
	}
	budget, err := budgetFromQuery(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	var runner jobs.Runner
	switch ct {
	case "application/json":
		sys, err := config.ReadJSON(bytesReader(body))
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		runner = jobs.ConfigRun{Sys: sys}
	case "application/x-xta", "text/x-xta":
		horizon := int64(defaultXTAHorizon)
		if hs := r.URL.Query().Get("horizon"); hs != "" {
			horizon, err = strconv.ParseInt(hs, 10, 64)
			if err != nil || horizon <= 0 {
				httpError(w, http.StatusBadRequest, "bad horizon %q", hs)
				return
			}
		}
		runner = jobs.XTARun{Src: string(body), Horizon: horizon}
	default: // XML is the default and the documented Content-Type: application/xml
		sys, err := config.ReadXML(bytesReader(body))
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		runner = jobs.ConfigRun{Sys: sys}
	}

	// Trace propagation: adopt the caller's W3C traceparent when one is
	// sent, mint a fresh trace otherwise, and record the ingress span when
	// the submission settles. The response echoes the context in a
	// Traceparent header so callers can follow /v1/traces/{trace-id}.
	var tc obs.TraceContext
	var parentSpan [8]byte
	if tr := s.pool.Tracer(); tr != nil {
		if rtc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			parentSpan = rtc.SpanID
			tc = rtc.Child()
		} else {
			tc = obs.NewTrace()
		}
		w.Header().Set("Traceparent", tc.Traceparent())
		ingress := time.Now()
		defer func() {
			tr.Record(tc, parentSpan, "http.ingress", "POST /v1/jobs",
				ingress.UnixNano(), time.Since(ingress).Nanoseconds())
		}()
	}

	bud := budget
	if bud.IsZero() { // no per-job override: inherit the pool default
		bud = s.pool.DefaultBudget()
	}
	jb, err := s.pool.SubmitTraced(runner, bud, tc)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		// Backpressure is transient by construction (the queue drains at
		// worker speed); tell well-behaved clients when to come back.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "queue full, retry later")
		return
	case errors.Is(err, jobs.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	if r.URL.Query().Get("wait") == "true" {
		done, err := s.pool.Wait(r.Context(), jb.ID)
		if err != nil {
			httpError(w, http.StatusGatewayTimeout, "waiting for %s: %v", jb.ID, err)
			return
		}
		writeJSON(w, http.StatusOK, toDoc(done))
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+jb.ID)
	writeJSON(w, http.StatusAccepted, toDoc(jb))
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	all := s.pool.List()
	docs := make([]jobDoc, len(all))
	for i, jb := range all {
		docs[i] = toDoc(jb)
	}
	writeJSON(w, http.StatusOK, docs)
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.pool.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, toDoc(jb))
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.pool.Get(id); !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if !s.pool.Cancel(id) {
		httpError(w, http.StatusConflict, "job %s already terminal", id)
		return
	}
	jb, _ := s.pool.Get(id)
	writeJSON(w, http.StatusOK, toDoc(jb))
}

// completedOutcome fetches the job and requires a completed run.
func (s *server) completedOutcome(w http.ResponseWriter, r *http.Request) *jobs.Outcome {
	jb, ok := s.pool.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return nil
	}
	if jb.Status != jobs.StatusDone || jb.Outcome == nil {
		httpError(w, http.StatusConflict, "job %s is %s, not done", jb.ID, jb.Status)
		return nil
	}
	return jb.Outcome
}

// trace streams the completed run's trace: for configuration runs the
// system operation trace as JSON (default), CSV or rendered text; for XTA
// runs the synchronization trace as JSON or text.
func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	out := s.completedOutcome(w, r)
	if out == nil {
		return
	}
	if out.Persisted != nil {
		httpError(w, http.StatusGone, "outcome was restored from the persistent store; traces are not retained on disk")
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	if out.Trace == nil { // XTA run: synchronization trace only
		switch format {
		case "json":
			writeJSON(w, http.StatusOK, out.Sync)
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, ev := range out.Sync {
				fmt.Fprintf(w, "t=%-6d %s\n", ev.Time, ev.Event)
			}
		default:
			httpError(w, http.StatusBadRequest, "format %q not available for XTA runs", format)
		}
		return
	}
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		if err := trace.WriteJSON(w, out.Sys, out.Trace, out.Analysis); err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		if err := out.Trace.WriteCSV(w, out.Sys); err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, out.Trace.Format(out.Sys))
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (json, csv, text)", format)
	}
}

// gantt renders the ASCII Gantt chart of a completed configuration run;
// ?scale=N sets ticks per column.
func (s *server) gantt(w http.ResponseWriter, r *http.Request) {
	out := s.completedOutcome(w, r)
	if out == nil {
		return
	}
	if out.Persisted != nil {
		httpError(w, http.StatusGone, "outcome was restored from the persistent store; traces are not retained on disk")
		return
	}
	if out.Trace == nil {
		httpError(w, http.StatusConflict, "job has no system trace (XTA run)")
		return
	}
	scale := int64(1)
	if ss := r.URL.Query().Get("scale"); ss != "" {
		v, err := strconv.ParseInt(ss, 10, 64)
		if err != nil || v < 1 {
			httpError(w, http.StatusBadRequest, "bad scale %q", ss)
			return
		}
		scale = v
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, trace.Gantt(out.Sys, out.Trace, scale))
}

// report returns the telemetry RunReport of a terminal job: phase
// durations plus the engine hot-path counters of the run. Failed runs that
// produced telemetry up to the failure serve it from their diag report.
func (s *server) report(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.pool.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !jb.Status.Terminal() {
		httpError(w, http.StatusConflict, "job %s is %s; report available once terminal", jb.ID, jb.Status)
		return
	}
	var run *obs.RunReport
	switch {
	case jb.Outcome != nil && jb.Outcome.Telemetry != nil:
		run = jb.Outcome.Telemetry
	case jb.Report != nil && jb.Report.Telemetry != nil:
		run = jb.Report.Telemetry
	default:
		httpError(w, http.StatusNotFound, "job %s has no telemetry (cached outcome predating probes?)", jb.ID)
		return
	}
	writeJSON(w, http.StatusOK, run)
}

// metrics exposes pool counters in the Prometheus text format.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	m := s.pool.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP saserve_%s %s\n# TYPE saserve_%s counter\nsaserve_%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP saserve_%s %s\n# TYPE saserve_%s gauge\nsaserve_%s %g\n", name, help, name, name, v)
	}
	counter("jobs_submitted_total", "Jobs accepted for analysis.", m.Submitted)
	gauge("jobs_queued", "Jobs waiting for a worker.", float64(m.Queued))
	gauge("jobs_running", "Jobs currently interpreting.", float64(m.Running))
	counter("jobs_done_total", "Jobs completed successfully.", m.Done)
	counter("jobs_failed_total", "Jobs failed (diagnostics or budget).", m.Failed)
	counter("jobs_canceled_total", "Jobs canceled.", m.Canceled)
	counter("cache_hits_total", "Submissions served from the result cache.", m.CacheHits)
	counter("cache_misses_total", "Submissions that required a run.", m.CacheMisses)
	gauge("cache_hit_rate", "Cache hits over all keyed submissions.", m.CacheHitRate)
	counter("postmortems_total", "Flight-recorder dumps written for dump-worthy failures.", m.Postmortems)

	// Span collector accounting (present only with tracing enabled).
	if tr := s.pool.Tracer(); tr != nil {
		rec, drop := tr.Stats()
		counter("trace_spans_total", "Spans recorded by the in-memory collector.", int64(rec))
		counter("trace_spans_dropped_total", "Spans overwritten in the ring before being read.", int64(drop))
	}

	// Persistent store tier (present only when -store is set).
	if st := s.pool.Store(); st != nil {
		ss := st.Stats()
		counter("store_hits_total", "Memory-cache misses served by the persistent store tier.", m.StoreHits)
		counter("store_gets_hit_total", "Store reads that found the object.", ss.Hits)
		counter("store_gets_miss_total", "Store reads that missed.", ss.Misses)
		counter("store_puts_total", "Objects written to the store.", ss.Puts)
		counter("store_deletes_total", "Objects deleted from the store.", ss.Deletes)
		counter("store_evictions_total", "Objects evicted by the size-bound GC.", ss.Evictions)
		counter("store_recovered_records_total", "Journal records replayed at open.", ss.RecoveredRecords)
		counter("store_truncated_bytes_total", "Torn journal tail bytes truncated at open.", ss.TruncatedBytes)
		counter("store_dropped_entries_total", "Journal entries dropped (missing object files).", ss.DroppedEntries)
		counter("store_orphans_swept_total", "Unreferenced object files removed at open.", ss.OrphansSwept)
		counter("store_journal_repairs_total", "Torn journal tails truncated back to the last acked record.", ss.JournalRepairs)
		gauge("store_objects", "Objects currently in the store.", float64(ss.Objects))
		gauge("store_bytes", "Bytes currently in the store.", float64(ss.Bytes))
	}

	// Campaign engine counters.
	cm := s.camps.Metrics()
	counter("campaign_started_total", "Campaigns started fresh.", cm.Started)
	counter("campaign_resumed_total", "Campaigns resumed from a checkpoint.", cm.Resumed)
	counter("campaign_done_total", "Campaigns completed.", cm.Done)
	counter("campaign_failed_total", "Campaigns failed.", cm.Failed)
	counter("campaign_canceled_total", "Campaigns canceled.", cm.Canceled)
	counter("campaign_points_computed_total", "Campaign points answered by a fresh run.", cm.PointsComputed)
	counter("campaign_points_cache_memory_total", "Campaign points answered by the memory cache.", cm.PointsCacheMemory)
	counter("campaign_points_cache_disk_total", "Campaign points answered by the persistent tier.", cm.PointsCacheDisk)
	counter("campaign_points_checkpoint_total", "Campaign points answered by resumed checkpoints.", cm.PointsCheckpoint)
	counter("campaign_points_failed_total", "Campaign points whose runs failed.", cm.PointsFailed)
	counter("campaign_bisect_iterations_total", "Interior bisection iterations across campaigns.", cm.BisectIterations)
	counter("campaign_frontier_rows_total", "Frontier rows completed across campaigns.", cm.FrontierRows)
	counter("campaign_bracket_reuses_total", "Frontier rows whose bisection bracket was seeded adaptively.", cm.BracketReuses)

	// Region synthesis engine counters.
	sm := s.synths.Metrics()
	counter("synth_started_total", "Syntheses started fresh.", sm.Started)
	counter("synth_resumed_total", "Syntheses resumed from a checkpoint.", sm.Resumed)
	counter("synth_done_total", "Syntheses completed.", sm.Done)
	counter("synth_failed_total", "Syntheses failed.", sm.Failed)
	counter("synth_canceled_total", "Syntheses canceled.", sm.Canceled)
	counter("synth_points_computed_total", "Synthesis points answered by a fresh run.", sm.PointsComputed)
	counter("synth_points_cache_memory_total", "Synthesis points answered by the memory cache.", sm.PointsCacheMemory)
	counter("synth_points_cache_disk_total", "Synthesis points answered by the persistent tier.", sm.PointsCacheDisk)
	counter("synth_points_checkpoint_total", "Synthesis points answered by resumed checkpoints.", sm.PointsCheckpoint)
	counter("synth_boxes_classified_total", "Region boxes classified across syntheses.", sm.BoxesClassified)
	counter("synth_splits_total", "Box splits across syntheses.", sm.Splits)
	counter("synth_bisect_iterations_total", "1-D bisection iterations across syntheses.", sm.BisectIterations)

	// Compositional analyzer counters.
	km := s.comp.Metrics()
	counter("compose_runs_total", "Compositional analyses started.", km.Runs)
	counter("compose_compositional_total", "Analyses concluded from the per-module verdicts.", km.Compositional)
	counter("compose_fallbacks_total", "Analyses that fell back to the global product.", km.Fallbacks)
	counter("compose_interface_violations_total", "Fallbacks caused by a failed refinement check.", km.InterfaceViolations)
	counter("compose_modules_analyzed_total", "Modules answered by a fresh engine run.", km.ModulesAnalyzed)
	counter("compose_module_cache_hits_total", "Modules served from compose documents or pool cache tiers.", km.ModuleCacheHits)
	counter("compose_global_runs_total", "Global-product runs issued by the compositional analyzer.", km.GlobalRuns)

	// Resilience: what the self-healing machinery absorbed.
	res := m.Resilience
	counter("resilience_store_retries_total", "Store operations retried after transient failures.", res.StoreRetries)
	counter("resilience_breaker_trips_total", "Store circuit breaker trips into degraded mode.", res.BreakerTrips)
	counter("resilience_breaker_resets_total", "Store circuit breaker recoveries.", res.BreakerResets)
	counter("resilience_breaker_short_circuits_total", "Store operations skipped while the breaker was open.", res.BreakerShortCircuits)
	counter("resilience_watchdog_requeues_total", "Stuck jobs killed and requeued by the watchdog.", res.WatchdogRequeues)
	counter("resilience_panics_recovered_total", "Worker panics contained by the panic fence.", res.PanicsRecovered)
	counter("resilience_point_retries_total", "Campaign point attempts retried before settling.", res.PointRetries)
	counter("resilience_points_quarantined_total", "Campaign points quarantined after exhausting retries.", res.PointsQuarantined)
	gauge("degraded", "1 while the persistent tier is suspended (breaker open), 0 otherwise.", float64(res.Degraded))

	// Fault injection (chaos runs only; absent without -faults).
	if inj := s.pool.Faults(); inj != nil {
		stats := inj.Stats()
		sites := make([]string, 0, len(stats))
		for site := range stats {
			sites = append(sites, string(site))
		}
		sort.Strings(sites)
		fmt.Fprintf(w, "# HELP saserve_fault_injected_total Faults injected per site.\n# TYPE saserve_fault_injected_total counter\n")
		for _, site := range sites {
			fmt.Fprintf(w, "saserve_fault_injected_total{site=%q} %d\n", site, stats[fault.Site(site)].Injected)
		}
	}
	fmt.Fprintf(w, "# HELP saserve_run_latency_seconds Run latency quantiles over recent runs.\n# TYPE saserve_run_latency_seconds summary\n")
	fmt.Fprintf(w, "saserve_run_latency_seconds{quantile=\"0.5\"} %g\n", m.LatencyP50.Seconds())
	fmt.Fprintf(w, "saserve_run_latency_seconds{quantile=\"0.9\"} %g\n", m.LatencyP90.Seconds())
	fmt.Fprintf(w, "saserve_run_latency_seconds{quantile=\"0.99\"} %g\n", m.LatencyP99.Seconds())
	gauge("engine_events_per_second", "Interpretation throughput: transitions fired per second of engine wall time.", m.EventsPerSec)

	// Engine hot-path counters aggregated over every completed run.
	c := m.Engine
	counter("engine_steps_total", "Interpretation steps (action + delay transitions).", c.Steps)
	counter("engine_actions_total", "Action transitions fired.", c.Actions)
	counter("engine_delays_total", "Delay transitions taken.", c.Delays)
	counter("engine_sync_internal_total", "Internal (non-synchronizing) transitions fired.", c.SyncInternal)
	counter("engine_sync_binary_total", "Binary channel synchronizations fired.", c.SyncBinary)
	counter("engine_sync_broadcast_total", "Broadcast synchronizations fired.", c.SyncBroadcast)
	counter("engine_guard_evals_total", "Guard evaluations on the enumeration hot path.", c.GuardEvals)
	counter("engine_guard_compiled_total", "Guard evaluations off the opaque path: bytecode, inlined comparisons and unguarded edges.", c.GuardCompiled)
	counter("engine_guard_opaque_total", "Guard evaluations through the opaque interface path.", c.GuardOpaque)
	counter("engine_enabled_calls_total", "Enabled-set queries.", c.EnabledCalls)
	counter("engine_recomputes_total", "Per-automaton enabled-set recomputations (dirty).", c.Recomputes)
	counter("engine_cache_reuses_total", "Per-automaton enabled-set cache reuses (clean).", c.CacheReuses)
	counter("engine_heap_pushes_total", "Deadline heap pushes.", c.HeapPushes)
	counter("engine_heap_pops_total", "Stale deadline entries popped lazily.", c.HeapPops)
	counter("engine_heap_stale_total", "Stale deadline entries dropped by compaction.", c.HeapStale)

	// Compiled-runtime counters.
	counter("engine_guard_bytecode_total", "Guard evaluations through bytecode or inlined comparisons.", c.GuardBytecode)
	counter("engine_deadline_recomputes_total", "Per-automaton deadline recomputations (compiled runtime).", c.DeadlineRecomputes)
	counter("engine_enabled_unchanged_total", "Enabled-set recomputations that found no change (surgery skipped).", c.EnabledUnchanged)
	counter("engine_first_fast_total", "Enabled-set queries served by the first-transition fast path.", c.FirstFast)

	// Info metric: the engine backend runs use, the nsa.Options zero value.
	fmt.Fprintf(w, "# HELP saserve_engine_backend Engine backend in use (info metric, value always 1).\n# TYPE saserve_engine_backend gauge\nsaserve_engine_backend{backend=%q} 1\n",
		nsa.Options{}.Backend.String())

	// Per-phase latency histograms (windowed, Prometheus cumulative form).
	phases := s.pool.PhaseLatencies()
	if len(phases) > 0 {
		names := make([]string, 0, len(phases))
		for name := range phases {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "# HELP saserve_phase_latency_seconds Pipeline phase latency over recent runs.\n# TYPE saserve_phase_latency_seconds histogram\n")
		for _, name := range names {
			h := phases[name]
			for i, b := range h.Bounds {
				fmt.Fprintf(w, "saserve_phase_latency_seconds_bucket{phase=%q,le=%q} %d\n",
					name, strconv.FormatFloat(b.Seconds(), 'g', -1, 64), h.Cumulative[i])
			}
			fmt.Fprintf(w, "saserve_phase_latency_seconds_bucket{phase=%q,le=\"+Inf\"} %d\n", name, h.Cumulative[len(h.Cumulative)-1])
			fmt.Fprintf(w, "saserve_phase_latency_seconds_sum{phase=%q} %g\n", name, h.Sum.Seconds())
			fmt.Fprintf(w, "saserve_phase_latency_seconds_count{phase=%q} %d\n", name, h.Count)
		}
	}
	gauge("uptime_seconds", "Seconds since the service started.", time.Since(s.started).Seconds())
}

func (s *server) health(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ready is the readiness probe: it reports 503 while the persistent tier
// is degraded (the store circuit breaker is open and outcomes are served
// memory-only), so orchestrators can shed traffic to healthier replicas
// while this one's breaker probes its way back. Liveness (/healthz) stays
// green throughout: a degraded service still answers correctly, just
// without durability.
func (s *server) ready(w http.ResponseWriter, r *http.Request) {
	if s.pool.Degraded() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "degraded",
			"reason": "store circuit breaker open; persistent tier suspended",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// budgetFromQuery assembles a per-job budget from ?max-steps and ?timeout.
func budgetFromQuery(r *http.Request) (nsa.Budget, error) {
	var b nsa.Budget
	q := r.URL.Query()
	if v := q.Get("max-steps"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return b, fmt.Errorf("bad max-steps %q", v)
		}
		b.MaxSteps = n
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return b, fmt.Errorf("bad timeout %q", v)
		}
		b.MaxWallTime = d
	}
	return b, nil
}

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

// errorDoc is the JSON error envelope.
type errorDoc struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorDoc{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
