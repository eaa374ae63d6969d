// Package explore is the exploration core under campaigns
// (internal/campaign) and parametric region synthesis (internal/synth).
// Both map a design space with the deterministic NSA interpretation as
// a point oracle, and both need the same machinery around their
// planners: a content-addressed registry of runs, a checkpoint of every
// settled point in the artifact store, resume after a crash, cancel
// propagation into the pool, and the live ops view (SSE events,
// stragglers, trace roots).
//
// The core owns all of it. An explorer supplies a Kind — its state
// document, its point coordinates and its planner — and the planner asks
// the core for verdicts with Run.Evaluate and Run.EvaluateAll. The core
// evaluates every distinct configuration of a run once: a point whose
// configuration fingerprint is already settled is recorded from that
// result (SourceCheckpoint), and one whose fingerprint is in flight
// waits for that evaluation instead of submitting a duplicate.
package explore

import (
	"context"
	"errors"
	"log/slog"
	"sort"
	"sync"
	"time"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/fault"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/store"
)

// Run statuses.
const (
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Point sources: where a point's verdict came from.
const (
	SourceComputed   = "computed"   // a fresh engine run
	SourceMemory     = "memory"     // the pool's in-memory result cache
	SourceDisk       = "disk"       // the persistent store tier
	SourceCheckpoint = "checkpoint" // the run's own point log
	SourceFailed     = "failed"     // the run failed (Error holds why)
)

// Fields addresses the lifecycle fields of a state document. Each
// explorer lays its document out in its own JSON order, so the core
// reads and writes them through these pointers. Label is the detail of
// the run's root span.
type Fields struct {
	ID, Name, Status, Error, StartedAt, UpdatedAt, Trace *string
	Label                                                string
}

// Result is one settled point as the core sees it.
type Result struct {
	Fingerprint string
	Verdict     bool // schedulable (campaign) or feasible (synthesis)
	Source      string
	Error       string
	ElapsedNS   int64
	Trace       string
	Postmortem  string
	// Retries counts the failed attempts retried before the point
	// settled.
	Retries int
}

// Policy is an explorer's failure posture for one run.
type Policy struct {
	// Retries bounds re-attempts of a failed run; Backoff is the sleep
	// before the first, doubled for each later one.
	Retries int
	Backoff time.Duration
	// Quarantine records a point that exhausts its retries as failed and
	// lets the run go on; without it the failure aborts the run.
	Quarantine bool
	// Budget bounds the points a run records (0: unbounded). A point
	// that needs the pool once the budget is spent aborts the run.
	Budget int
}

// Kind adapts one explorer to the core: S is its state document (the
// checkpoint and the status body), C the coordinates of one point. The
// core holds the run lock whenever it passes a *S, except to Materialize
// and Policy, which must read only what never changes after Start (the
// spec).
type Kind[S, C any] interface {
	Fields(s *S) Fields
	// Clone returns a copy safe to hand out while the run mutates s.
	Clone(s *S) S
	// Resumable reports whether a loaded checkpoint is one this version
	// can run (schema version, spec present).
	Resumable(s *S) bool

	// Points counts the recorded points; Point returns record i's
	// coordinate key and result.
	Points(s *S) int
	Point(s *S, i int) (key string, r Result)
	// Record stores r at c — appended when at < 0, replacing record at
	// otherwise (a re-evaluated failed point) — and counts it.
	Record(s *S, c C, r Result, at int)
	// Reuse counts a point answered by its own earlier record.
	Reuse(s *S)
	// Straggle folds a computed point into the straggler report.
	Straggle(s *S, c C, r Result, phases map[string]int64)

	// Key renders coordinates canonically; Materialize builds the
	// configuration at c.
	Key(c C) string
	Materialize(s *S, c C) (*config.System, error)

	Policy(s *S) Policy
	// Progress returns the known point total (0 when open-ended) and the
	// evaluation parallelism, for the ETA.
	Progress(s *S) (total, parallel int)
	// Event converts a core event into the explorer's wire form.
	Event(e Event) any

	// Plan runs the exploration to completion through r. A non-nil
	// conclude is applied to the state, under the run lock, right after
	// the terminal status.
	Plan(ctx context.Context, r *Run[S, C]) (conclude func(s *S), err error)
}

// Config names an explorer.
type Config struct {
	// Noun names a run in log messages ("campaign", "synthesis"); Key is
	// the log attribute, the root span name and the error prefix
	// ("campaign", "synth").
	Noun, Key string
	// Store is the store kind of the checkpoints.
	Store string
	// Unknown is returned by Wait for IDs the registry does not hold.
	Unknown error
}

// Metrics are the lifecycle and point counters of one engine.
type Metrics struct {
	Started  int64 `json:"started"`
	Resumed  int64 `json:"resumed"`
	Done     int64 `json:"done"`
	Failed   int64 `json:"failed"`
	Canceled int64 `json:"canceled"`

	PointsComputed    int64 `json:"points_computed"`
	PointsCacheMemory int64 `json:"points_cache_memory"`
	PointsCacheDisk   int64 `json:"points_cache_disk"`
	PointsCheckpoint  int64 `json:"points_checkpoint"`
	PointsFailed      int64 `json:"points_failed"`
}

// Engine runs explorations of one kind over a shared jobs.Pool,
// checkpointing state to an artifact store after every settled point.
// The store may be nil, in which case runs are memory-only (no resume
// across restarts). Each run has its own goroutine and fans its points
// through the pool.
type Engine[S, C any] struct {
	pool *jobs.Pool
	st   *store.Store
	lg   *slog.Logger
	kind Kind[S, C]
	cfg  Config

	mu      sync.Mutex
	runs    map[string]*Run[S, C]
	metrics Metrics
}

// New creates an engine over the pool, checkpointing to st (nil
// disables persistence). The logger may be nil.
func New[S, C any](pool *jobs.Pool, st *store.Store, lg *slog.Logger, kind Kind[S, C], cfg Config) *Engine[S, C] {
	return &Engine[S, C]{pool: pool, st: st, lg: lg, kind: kind, cfg: cfg, runs: make(map[string]*Run[S, C])}
}

// Run is one registered exploration.
type Run[S, C any] struct {
	eng *Engine[S, C]

	mu       sync.Mutex
	state    *S
	keys     map[string]int           // point key → record index
	settled  map[string]Result        // config fingerprint → non-failed result
	inflight map[string]chan struct{} // config fingerprint → closed when its evaluation ends

	// Ops view: the live event hub, the root trace context (zero when the
	// pool does not trace) and the settled-point duration histogram
	// feeding the ETA. trace is set before launch and read-only after.
	hub   obs.EventHub
	trace obs.TraceContext
	durs  *obs.Histogram

	cancel context.CancelFunc
	done   chan struct{}
}

// Start registers and launches the run with the given ID, returning a
// snapshot of its state. Runs are content-addressed: an ID matching a
// live run returns that run, and one matching a checkpoint in the store
// resumes or returns it (finished runs are served from their stored
// state without re-running anything). fresh builds the state of a run
// never seen before.
func (e *Engine[S, C]) Start(id string, fresh func() *S) S {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r := e.runs[id]; r != nil {
		return r.snapshot()
	}
	st := e.loadState(id)
	resumed := st != nil
	if st == nil {
		st = fresh()
	}
	r := e.registerLocked(st)
	if *e.kind.Fields(st).Status == StatusRunning {
		if resumed {
			e.metrics.Resumed++
		} else {
			e.metrics.Started++
		}
		e.launchLocked(r)
	}
	return r.snapshot()
}

// ResumeAll loads every checkpoint from the store into the registry and
// relaunches the ones a crash interrupted (status still "running"),
// returning their IDs. Finished runs register inert so their state and
// exports stay queryable after a restart.
func (e *Engine[S, C]) ResumeAll() []string {
	return e.loadAll(true)
}

// RegisterAll loads every checkpoint into the registry without
// relaunching any — the read-only counterpart of ResumeAll, for status
// and export tooling. Checkpoints still marked running register inert,
// with Wait returning at once, so callers should only inspect state.
func (e *Engine[S, C]) RegisterAll() {
	e.loadAll(false)
}

func (e *Engine[S, C]) loadAll(launch bool) []string {
	if e.st == nil {
		return nil
	}
	var resumed []string
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, id := range e.st.Keys(e.cfg.Store) {
		if e.runs[id] != nil {
			continue
		}
		st := e.loadState(id)
		if st == nil {
			continue
		}
		r := e.registerLocked(st)
		switch {
		case *e.kind.Fields(st).Status != StatusRunning:
		case launch:
			e.metrics.Resumed++
			e.launchLocked(r)
			resumed = append(resumed, id)
		default:
			// Not launched: mark done so Wait callers cannot hang on a run
			// nobody is running.
			close(r.done)
		}
	}
	sort.Strings(resumed)
	return resumed
}

// loadState reads a checkpoint, nil when absent, unreadable, or not
// resumable by this version.
func (e *Engine[S, C]) loadState(id string) *S {
	if e.st == nil {
		return nil
	}
	st := new(S)
	ok, err := e.st.Get(e.cfg.Store, id, st)
	if err != nil || !ok || !e.kind.Resumable(st) {
		return nil
	}
	return st
}

// registerLocked adds a run for st to the registry, indexing its
// recorded points by key and by configuration fingerprint. Terminal
// states get an already-closed done channel. Callers hold e.mu.
func (e *Engine[S, C]) registerLocked(st *S) *Run[S, C] {
	n := e.kind.Points(st)
	r := &Run[S, C]{
		eng:      e,
		state:    st,
		keys:     make(map[string]int, n),
		settled:  make(map[string]Result, n),
		inflight: make(map[string]chan struct{}),
		durs:     obs.NewHistogram(0, 1, nil),
		done:     make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		key, res := e.kind.Point(st, i)
		r.keys[key] = i
		if res.Source != SourceFailed {
			r.settled[res.Fingerprint] = res
		}
	}
	f := e.kind.Fields(st)
	if *f.Status != StatusRunning {
		close(r.done)
	}
	e.runs[*f.ID] = r
	return r
}

// launchLocked starts the run goroutine. Callers hold e.mu.
func (e *Engine[S, C]) launchLocked(r *Run[S, C]) {
	r.armTraceLocked()
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go r.run(ctx)
}

func (e *Engine[S, C]) lookup(id string) *Run[S, C] {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runs[id]
}

// Get returns a snapshot of the run's state.
func (e *Engine[S, C]) Get(id string) (S, bool) {
	r := e.lookup(id)
	if r == nil {
		var zero S
		return zero, false
	}
	return r.snapshot(), true
}

// List returns snapshots of all registered runs, ordered by ID.
func (e *Engine[S, C]) List() []S {
	e.mu.Lock()
	ids := make([]string, 0, len(e.runs))
	for id := range e.runs {
		ids = append(ids, id)
	}
	e.mu.Unlock()
	sort.Strings(ids)
	out := make([]S, len(ids))
	for i, id := range ids {
		out[i] = e.lookup(id).snapshot()
	}
	return out
}

// Cancel requests cancellation of a running run. It returns false when
// the run is unknown or already terminal.
func (e *Engine[S, C]) Cancel(id string) bool {
	r := e.lookup(id)
	if r == nil {
		return false
	}
	r.mu.Lock()
	running := *e.kind.Fields(r.state).Status == StatusRunning && r.cancel != nil
	r.mu.Unlock()
	if running {
		r.cancel()
	}
	return running
}

// Wait blocks until the run reaches a terminal state or ctx is done.
func (e *Engine[S, C]) Wait(ctx context.Context, id string) (S, error) {
	var zero S
	r := e.lookup(id)
	if r == nil {
		return zero, e.cfg.Unknown
	}
	select {
	case <-r.done:
	case <-ctx.Done():
		return zero, ctx.Err()
	}
	return r.snapshot(), nil
}

// Metrics returns a snapshot of the engine's counters.
func (e *Engine[S, C]) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.metrics
}

func (e *Engine[S, C]) count(f func(*Metrics)) {
	e.mu.Lock()
	f(&e.metrics)
	e.mu.Unlock()
}

// snapshot returns a copy of the run's state.
func (r *Run[S, C]) snapshot() S {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eng.kind.Clone(r.state)
}

// Update applies f to the run's state under the run lock; planners use
// it to read and bump their own counters.
func (r *Run[S, C]) Update(f func(s *S)) {
	r.mu.Lock()
	f(r.state)
	r.mu.Unlock()
}

// Checkpoint persists the current state (after stamping UpdatedAt) so a
// crash at any later instant resumes from here. Checkpoints ride through
// transient store faults on the pool's disk-tier retry policy; an
// exhausted failure is only logged — the run completes in memory and the
// previous checkpoint stays authoritative for resume.
func (r *Run[S, C]) Checkpoint() {
	e := r.eng
	r.mu.Lock()
	f := e.kind.Fields(r.state)
	*f.UpdatedAt = time.Now().UTC().Format(time.RFC3339Nano)
	snap, id := e.kind.Clone(r.state), *f.ID
	r.mu.Unlock()
	if e.st == nil {
		return
	}
	retries, err := fault.DefaultStoreRetry.Do(context.Background(), nil, func() error {
		return e.st.Put(e.cfg.Store, id, &snap)
	})
	e.pool.Resilience().StoreRetries.Add(int64(retries))
	if err != nil && e.lg != nil {
		e.lg.Warn(e.cfg.Key+" checkpoint failed", e.cfg.Key, id, "error", err.Error())
	}
}

// logger returns the engine logger scoped to the run, nil when logging
// is off.
func (r *Run[S, C]) logger() *slog.Logger {
	e := r.eng
	if e.lg == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := e.kind.Fields(r.state)
	return e.lg.With(slog.String(e.cfg.Key, *f.ID), slog.String("name", *f.Name))
}

// points counts the recorded points.
func (r *Run[S, C]) points() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eng.kind.Points(r.state)
}

// statusOf maps a planner's return value to the run's terminal status.
func statusOf(err error) string {
	switch {
	case err == nil:
		return StatusDone
	case errors.Is(err, context.Canceled):
		return StatusCanceled
	default:
		return StatusFailed
	}
}

// run executes the planner to a terminal state.
func (r *Run[S, C]) run(ctx context.Context) {
	defer close(r.done)
	e := r.eng
	t0 := time.Now()
	r.mu.Lock()
	f := e.kind.Fields(r.state)
	if *f.StartedAt == "" {
		*f.StartedAt = time.Now().UTC().Format(time.RFC3339Nano)
	}
	r.mu.Unlock()
	r.Checkpoint()
	lg := r.logger()
	if lg != nil {
		lg.Info(e.cfg.Noun+" running", "points_done", r.points())
	}

	conclude, err := e.kind.Plan(ctx, r)

	status := statusOf(err)
	r.mu.Lock()
	*f.Status = status
	if status == StatusFailed {
		*f.Error = err.Error()
	}
	if conclude != nil {
		conclude(r.state)
	}
	r.mu.Unlock()
	r.Checkpoint()
	if tr := e.pool.Tracer(); tr != nil && r.trace.Valid() {
		// The exploration's root span: parentless, covering this process's
		// share of the run (a resumed run records one per leg).
		tr.Record(r.trace, [8]byte{}, e.cfg.Key, f.Label, t0.UnixNano(), time.Since(t0).Nanoseconds())
	}
	r.publishStatus(status)
	e.count(func(m *Metrics) {
		switch status {
		case StatusDone:
			m.Done++
		case StatusFailed:
			m.Failed++
		case StatusCanceled:
			m.Canceled++
		}
	})
	if lg != nil {
		if err != nil {
			lg.Warn(e.cfg.Noun+" finished", "status", status, "error", err.Error())
		} else {
			lg.Info(e.cfg.Noun+" finished", "status", status, "points", r.points())
		}
	}
}
