package synth

import (
	"context"
	"errors"
	"log/slog"
	"sync/atomic"
	"time"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/explore"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/store"
)

// Engine errors.
var (
	// ErrUnknownSynthesis is returned for IDs the registry does not hold.
	ErrUnknownSynthesis = errors.New("synth: unknown synthesis")
)

// pointRetries and pointRetryBackoff bound re-attempts of a failed oracle
// run before the synthesis aborts. Unlike a campaign grid — where one
// quarantined point leaves a hole in an otherwise useful map — a region
// derived around a missing verdict would be silently wrong, so synthesis
// retries briefly and then fails loudly.
const (
	pointRetries      = 2
	pointRetryBackoff = 50 * time.Millisecond
)

// Engine orchestrates syntheses over a shared jobs.Pool on the
// exploration core: the registry, checkpointing after every evaluated
// point, resume, cancellation and the live event stream are
// internal/explore's; this package contributes the refinement and the
// abort-on-failure policy. The store may be nil, in which case syntheses
// run memory-only (no resume across restarts).
type Engine struct {
	*explore.Engine[State, []int]
	k *kind
}

// EngineMetrics are the synthesis-level telemetry counters, exposed by
// cmd/saserve as the saserve_synth_* metric families.
type EngineMetrics struct {
	explore.Metrics

	BoxesClassified  int64 `json:"boxes_classified"`
	Splits           int64 `json:"splits"`
	BisectIterations int64 `json:"bisect_iterations"`
}

// NewEngine creates an engine over the pool, checkpointing to st (nil
// disables persistence). The logger may be nil.
func NewEngine(pool *jobs.Pool, st *store.Store, lg *slog.Logger) *Engine {
	k := &kind{}
	return &Engine{
		Engine: explore.New[State, []int](pool, st, lg, k, explore.Config{
			Noun: "synthesis", Key: "synth", Store: stateKind, Unknown: ErrUnknownSynthesis,
		}),
		k: k,
	}
}

// StoreKind returns the store kind synthesis checkpoints are written
// under; stores backing an Engine should pin it.
func StoreKind() string { return stateKind }

// Start registers and launches the synthesis described by space,
// returning a snapshot of its state. Syntheses are content-addressed:
// starting a space whose fingerprint matches a live synthesis returns
// that synthesis, and one matching a checkpoint in the store resumes or
// returns it (completed syntheses are served from their stored state
// without re-running anything).
func (e *Engine) Start(space *Space) (State, error) {
	if err := space.Validate(); err != nil {
		return State{}, err
	}
	id := space.Fingerprint()
	return e.Engine.Start(id, func() *State {
		return &State{Version: stateVersion, ID: id, Name: space.Name, Status: StatusRunning, Space: space}
	}), nil
}

// Metrics returns a snapshot of the synthesis-level counters.
func (e *Engine) Metrics() EngineMetrics {
	return EngineMetrics{
		Metrics:          e.Engine.Metrics(),
		BoxesClassified:  e.k.boxesClassified.Load(),
		Splits:           e.k.splits.Load(),
		BisectIterations: e.k.bisectIterations.Load(),
	}
}

// kind adapts syntheses to the exploration core; it also carries the
// refinement counters of its engine.
type kind struct {
	boxesClassified, splits, bisectIterations atomic.Int64
}

func (*kind) Fields(s *State) explore.Fields {
	return explore.Fields{ID: &s.ID, Name: &s.Name, Status: &s.Status, Error: &s.Error,
		StartedAt: &s.StartedAt, UpdatedAt: &s.UpdatedAt, Trace: &s.Trace, Label: "refine"}
}

func (*kind) Clone(s *State) State { return s.clone() }

func (*kind) Resumable(s *State) bool { return s.Version == stateVersion && s.Space != nil }

func (*kind) Points(s *State) int { return len(s.Points) }

func (*kind) Point(s *State, i int) (string, explore.Result) {
	p := &s.Points[i]
	return idxKey(p.Idx), explore.Result{Fingerprint: p.Fingerprint, Verdict: p.Feasible, Source: p.Source,
		ElapsedNS: p.ElapsedNS, Trace: p.Trace, Postmortem: p.Postmortem}
}

// Record appends an evaluated lattice point and counts the tier that
// answered it. A synthesis never records a failed point (its policy
// aborts instead), so there is no record to replace.
func (*kind) Record(s *State, idx []int, r explore.Result, _ int) {
	s.Points = append(s.Points, PointRec{
		Idx:         append([]int(nil), idx...),
		Values:      s.Space.values(idx),
		Fingerprint: r.Fingerprint,
		Feasible:    r.Verdict,
		Source:      r.Source,
		ElapsedNS:   r.ElapsedNS,
		Trace:       r.Trace,
		Postmortem:  r.Postmortem,
	})
	c := &s.Counts
	c.Evaluations++
	switch r.Source {
	case SourceComputed:
		c.EngineRuns++
	case SourceMemory:
		c.CacheMemory++
	case SourceDisk:
		c.CacheDisk++
	case SourceCheckpoint:
		c.Checkpoint++
	}
}

func (*kind) Reuse(*State) {}

func (*kind) Straggle(s *State, idx []int, r explore.Result, phases map[string]int64) {
	s.Stragglers = explore.Rank(s.Stragglers,
		Straggler{Idx: append([]int(nil), idx...), Values: s.Space.values(idx), Trace: r.Trace, ElapsedNS: r.ElapsedNS, Phases: phases},
		func(x Straggler) (string, int64) { return idxKey(x.Idx), x.ElapsedNS })
}

func (*kind) Key(idx []int) string { return idxKey(idx) }

func (*kind) Materialize(s *State, idx []int) (*config.System, error) {
	return s.Space.Materialize(idx)
}

func (*kind) Policy(s *State) explore.Policy {
	return explore.Policy{Retries: pointRetries, Backoff: pointRetryBackoff, Budget: s.Space.maxPoints()}
}

// Progress measures against the evaluation budget: refinement is
// adaptive, so the budget is the only known total.
func (*kind) Progress(s *State) (int, int) { return s.Space.maxPoints(), 1 }

// Plan re-derives the deterministic refinement from scratch — a resumed
// synthesis answers every recorded point from the checkpoint instead of
// the pool — and concludes with the region.
func (k *kind) Plan(ctx context.Context, r *explore.Run[State, []int]) (func(*State), error) {
	var space *Space
	r.Update(func(s *State) {
		space = s.Space
		s.Region = nil
		s.Counts.BoxesFeasible, s.Counts.BoxesInfeasible, s.Counts.BoxesBoundary = 0, 0, 0
		s.Counts.Splits, s.Counts.BisectIterations = 0, 0
	})
	rf := &refiner{r: r, k: k, space: space}
	region, err := rf.refine(ctx)
	return func(s *State) {
		region.Status = s.Status
		region.Error = s.Error
		region.Counts = s.Counts
		s.Region = region
	}, err
}
