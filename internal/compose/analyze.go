package compose

import (
	"context"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/explore"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/store"
)

// Metrics are the analyzer's monotonic counters, exposed by cmd/saserve
// as the saserve_compose_* families.
type Metrics struct {
	Runs                atomic.Int64 // compositional analyses started
	Compositional       atomic.Int64 // concluded from the per-module analyses
	Fallbacks           atomic.Int64 // fell back to the global product
	InterfaceViolations atomic.Int64 // fallbacks caused by a failed refinement check
	ModulesAnalyzed     atomic.Int64 // modules answered by a fresh engine run
	ModuleCacheHits     atomic.Int64 // modules served from compose docs or pool cache tiers
	GlobalRuns          atomic.Int64 // global-product runs (fallbacks and comparisons)
}

// MetricsSnapshot is a plain copy of the counters.
type MetricsSnapshot struct {
	Runs                int64 `json:"runs"`
	Compositional       int64 `json:"compositional"`
	Fallbacks           int64 `json:"fallbacks"`
	InterfaceViolations int64 `json:"interface_violations"`
	ModulesAnalyzed     int64 `json:"modules_analyzed"`
	ModuleCacheHits     int64 `json:"module_cache_hits"`
	GlobalRuns          int64 `json:"global_runs"`
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Runs:                m.Runs.Load(),
		Compositional:       m.Compositional.Load(),
		Fallbacks:           m.Fallbacks.Load(),
		InterfaceViolations: m.InterfaceViolations.Load(),
		ModulesAnalyzed:     m.ModulesAnalyzed.Load(),
		ModuleCacheHits:     m.ModuleCacheHits.Load(),
		GlobalRuns:          m.GlobalRuns.Load(),
	}
}

// Analyzer runs compositional analyses through a jobs pool. Module runs
// go through the pool like any other submission, so they share its cache
// tiers, budgets, backend and resilience machinery; on top of that the
// analyzer keeps its own per-module store documents (compose/module/v1,
// keyed by the module fingerprint) so an unchanged module is answered
// without even constructing a job.
type Analyzer struct {
	pool    *jobs.Pool
	st      *store.Store // nil: no compose-level persistence
	lg      *slog.Logger // nil: silent
	metrics Metrics
}

// New creates an analyzer over pool. st may be nil (no persistence of
// compose documents; pool cache tiers still apply), lg may be nil.
func New(pool *jobs.Pool, st *store.Store, lg *slog.Logger) *Analyzer {
	return &Analyzer{pool: pool, st: st, lg: lg}
}

// Metrics returns a snapshot of the analyzer's counters.
func (a *Analyzer) Metrics() MetricsSnapshot { return a.metrics.Snapshot() }

// Status looks up the persisted result of a previous Run of sys. It
// never computes anything.
func (a *Analyzer) Status(sys *config.System) (*Result, bool, error) {
	if a.st == nil {
		return nil, false, nil
	}
	if err := sys.Validate(); err != nil {
		return nil, false, err
	}
	var doc resultDoc
	ok, err := a.st.Get(storeKind, resultKeyPrefix+sys.Fingerprint(), &doc)
	if err != nil || !ok {
		return nil, false, err
	}
	if doc.Version != resultDocVersion {
		return nil, false, nil
	}
	return &doc.Result, true, nil
}

// Run analyzes sys compositionally: plan, per-module analyses (store
// documents first, the pool's tiers and engine behind them), interface
// refinement check. Structurally non-compositional systems, interface
// violations and locally unschedulable modules fall back to one global-
// product run with the reason flagged on the result. A non-nil error
// reports an invalid configuration or a failed engine run, never an
// unschedulable system.
func (a *Analyzer) Run(ctx context.Context, sys *config.System) (*Result, error) {
	start := time.Now()
	a.metrics.Runs.Add(1)

	tracer := a.pool.Tracer()
	var tc obs.TraceContext
	if tracer != nil {
		tc = obs.NewTrace()
	}

	ps := time.Now()
	plan, err := NewPlan(sys)
	if tracer != nil {
		tracer.Record(tc.Child(), tc.SpanID, obs.PhasePlan, "", ps.UnixNano(), time.Since(ps).Nanoseconds())
	}
	if err != nil {
		return nil, err
	}

	res := &Result{
		Version:     resultDocVersion,
		System:      sys.Name,
		Fingerprint: plan.Fingerprint,
	}
	if tc.Valid() {
		res.Trace = tc.TraceString()
	}
	if a.lg != nil {
		a.lg.Info("compose run started",
			slog.String("system", sys.Name), slog.String("fingerprint", plan.Fingerprint),
			slog.Int("modules", len(plan.Modules)), slog.Int("contracts", len(plan.Contracts)))
	}

	if plan.Fallback != "" {
		return a.finishGlobal(ctx, plan, res, plan.Fallback, tc, start)
	}

	for _, mod := range plan.Modules {
		mr, err := a.analyzeModule(ctx, mod, tc)
		if err != nil {
			return nil, err
		}
		res.Modules = append(res.Modules, *mr)
		res.TotalSteps += mr.Steps
		if mr.CacheHit {
			res.ModulesCached++
			a.metrics.ModuleCacheHits.Add(1)
		} else {
			res.ModulesAnalyzed++
			a.metrics.ModulesAnalyzed.Add(1)
		}
	}

	// A compositional verdict exists only when every module is
	// schedulable under its assumed interfaces: "module M misses a
	// deadline when arrivals are latest" says nothing sound about the
	// real system, where arrivals may come earlier — the global product
	// answers instead.
	for i := range res.Modules {
		if res.Modules[i].Verdict != jobs.VerdictSchedulable {
			reason := fmt.Sprintf("module %d unschedulable under assumed interfaces", res.Modules[i].Module)
			return a.finishGlobal(ctx, plan, res, reason, tc, start)
		}
	}

	// Refinement check: every guaranteed output curve must refine the
	// assumption the receiving module was analyzed against.
	guarantees := make(map[int]map[string]int64, len(res.Modules))
	for i := range res.Modules {
		guarantees[res.Modules[i].Module] = res.Modules[i].Guarantees
	}
	cs := time.Now()
	violation := ""
	for i := range plan.Contracts {
		c := &plan.Contracts[i]
		g, ok := guarantees[c.SrcModule][c.SenderName]
		if !ok {
			// Schedulable module with no recorded curve (disk-restored
			// outcome): schedulable already bounds every response time by
			// its deadline, which is exactly the assumption.
			g = c.LatestOffset
		}
		cr := ContractResult{Contract: *c, Guarantee: g, Refined: g <= c.LatestOffset}
		res.Contracts = append(res.Contracts, cr)
		if !cr.Refined && violation == "" {
			violation = fmt.Sprintf("interface violation: %s guarantees %d > assumed %d on message %s",
				c.SenderName, g, c.LatestOffset, c.Name)
		}
	}
	if tracer != nil {
		tracer.Record(tc.Child(), tc.SpanID, obs.PhaseCompose, "refinement-check",
			cs.UnixNano(), time.Since(cs).Nanoseconds())
	}
	if violation != "" {
		a.metrics.InterfaceViolations.Add(1)
		return a.finishGlobal(ctx, plan, res, violation, tc, start)
	}

	res.Compositional = true
	res.Verdict = jobs.VerdictSchedulable
	res.ElapsedNS = time.Since(start).Nanoseconds()
	a.metrics.Compositional.Add(1)
	a.persistResult(res)
	if a.lg != nil {
		a.lg.Info("compose run concluded compositionally",
			slog.String("system", sys.Name), slog.String("verdict", string(res.Verdict)),
			slog.Int("analyzed", res.ModulesAnalyzed), slog.Int("cached", res.ModulesCached),
			slog.Int64("total_steps", res.TotalSteps))
	}
	return res, nil
}

// analyzeModule answers one module: compose document, then the pool
// (whose own tiers are memory → disk → engine).
func (a *Analyzer) analyzeModule(ctx context.Context, mod *Module, tc obs.TraceContext) (*ModuleResult, error) {
	mr := &ModuleResult{
		Module:      mod.ID,
		System:      mod.Sub.Name,
		Fingerprint: mod.Fingerprint,
		Partitions:  len(mod.Partitions),
		Tasks:       localTasks(mod),
		Stubs:       mod.Stubs,
		Pacer:       mod.Pacer,
	}
	ms := time.Now()
	tracer := a.pool.Tracer()
	defer func() {
		if tracer != nil {
			detail := "fresh"
			switch {
			case mr.DocHit:
				detail = "doc-hit"
			case mr.CacheHit:
				detail = "pool-hit"
			}
			tracer.Record(tc.Child(), tc.SpanID, obs.PhaseCompose,
				fmt.Sprintf("module=%d %s", mod.ID, detail), ms.UnixNano(), time.Since(ms).Nanoseconds())
		}
	}()

	if a.st != nil {
		var doc moduleDoc
		if ok, err := a.st.Get(storeKind, moduleKeyPrefix+mod.Fingerprint, &doc); err == nil && ok &&
			doc.Version == moduleDocVersion {
			mr.Verdict = doc.Verdict
			mr.CacheHit, mr.DocHit = true, true
			mr.Steps, mr.Events, mr.ElapsedNS = doc.Steps, doc.Events, doc.ElapsedNS
			mr.Guarantees = doc.Guarantees
			return mr, nil
		}
	}

	var jtc obs.TraceContext
	if tracer != nil {
		jtc = tc.Child()
	}
	jb, err := explore.SubmitWait(ctx, a.pool, mod.Sub, jtc)
	if err != nil {
		return nil, fmt.Errorf("compose: module %d: %w", mod.ID, err)
	}
	if jb.Status != jobs.StatusDone {
		return nil, fmt.Errorf("compose: module %d analysis %s: %w", mod.ID, jb.Status, jb.Err)
	}
	out := jb.Outcome
	mr.Verdict = out.Verdict
	mr.CacheHit, mr.DiskHit = jb.CacheHit, jb.DiskHit
	mr.Events = int64(out.Engine.Actions + out.Engine.Delays)
	mr.ElapsedNS = int64(out.Elapsed)
	if out.Telemetry != nil {
		mr.Steps = out.Telemetry.Counters.Steps
	}
	mr.Guarantees = a.guarantees(mod, out)

	if a.st != nil && !mr.CacheHit {
		doc := moduleDoc{
			Version: moduleDocVersion, System: mod.Sub.Name, Module: mod.ID,
			Verdict: mr.Verdict, Steps: mr.Steps, Events: mr.Events,
			ElapsedNS: mr.ElapsedNS, Guarantees: mr.Guarantees,
		}
		if err := a.st.Put(storeKind, moduleKeyPrefix+mod.Fingerprint, &doc); err != nil && a.lg != nil {
			a.lg.Warn("compose module document not persisted",
				slog.String("fingerprint", mod.Fingerprint), slog.String("error", err.Error()))
		}
	}
	return mr, nil
}

// guarantees extracts the measured worst response time of every outbound
// sender from the module's analysis, keyed by global task name. A
// disk-restored outcome carries no Analysis; nil then means "fall back
// to the assumption", which a schedulable verdict already licenses.
func (a *Analyzer) guarantees(mod *Module, out *jobs.Outcome) map[string]int64 {
	if out.Analysis == nil || len(mod.Outbound) == 0 {
		return nil
	}
	// Sub-partition index → worst response, for outbound sender tasks.
	type key struct{ part, task int }
	want := make(map[key]string) // sub ref → global task name
	for _, ci := range mod.Outbound {
		c := outboundContract(mod, ci)
		if c == nil {
			continue
		}
		want[key{mod.partMap[c.Sender.Part], c.Sender.Task}] = c.SenderName
	}
	worst := make(map[string]int64, len(want))
	for i := range out.Analysis.Jobs {
		js := &out.Analysis.Jobs[i]
		name, ok := want[key{js.Job.Part, js.Job.Task}]
		if !ok {
			continue
		}
		if rt := js.ResponseTime(); rt > worst[name] {
			worst[name] = rt
		}
	}
	return worst
}

// outboundContract resolves a contract index against the plan the module
// belongs to. Modules keep indices, not pointers, so the resolution goes
// through the contract list captured at plan time.
func outboundContract(mod *Module, ci int) *Contract {
	if ci < 0 || ci >= len(mod.plan.Contracts) {
		return nil
	}
	return &mod.plan.Contracts[ci]
}

// finishGlobal concludes res by one global-product run, flagging reason.
func (a *Analyzer) finishGlobal(ctx context.Context, plan *Plan, res *Result, reason string, tc obs.TraceContext, start time.Time) (*Result, error) {
	a.metrics.Fallbacks.Add(1)
	a.metrics.GlobalRuns.Add(1)
	res.Compositional = false
	res.Fallback = reason
	if a.lg != nil {
		a.lg.Info("compose run falling back to global product",
			slog.String("system", plan.Sys.Name), slog.String("reason", reason))
	}
	tracer := a.pool.Tracer()
	var jtc obs.TraceContext
	if tracer != nil {
		jtc = tc.Child()
	}
	gs := time.Now()
	jb, err := explore.SubmitWait(ctx, a.pool, plan.Sys, jtc)
	if err != nil {
		return nil, fmt.Errorf("compose: global product: %w", err)
	}
	if jb.Status != jobs.StatusDone {
		return nil, fmt.Errorf("compose: global product analysis %s: %w", jb.Status, jb.Err)
	}
	res.Verdict = jb.Outcome.Verdict
	if jb.Outcome.Telemetry != nil {
		res.GlobalSteps = jb.Outcome.Telemetry.Counters.Steps
	}
	if tracer != nil {
		tracer.Record(tc.Child(), tc.SpanID, obs.PhaseCompose, "global-fallback",
			gs.UnixNano(), time.Since(gs).Nanoseconds())
	}
	res.ElapsedNS = time.Since(start).Nanoseconds()
	a.persistResult(res)
	return res, nil
}

// persistResult writes the top-level result document; failures are
// logged, not fatal (the result is still returned to the caller).
func (a *Analyzer) persistResult(res *Result) {
	if a.st == nil {
		return
	}
	if err := a.st.Put(storeKind, resultKeyPrefix+res.Fingerprint, &resultDoc{Result: *res}); err != nil && a.lg != nil {
		a.lg.Warn("compose result document not persisted",
			slog.String("fingerprint", res.Fingerprint), slog.String("error", err.Error()))
	}
}

// localTasks counts the module's own tasks (stubs and pacer excluded).
func localTasks(mod *Module) int {
	n := 0
	for _, pi := range mod.Partitions {
		n += len(mod.plan.Sys.Partitions[pi].Tasks)
	}
	return n
}
