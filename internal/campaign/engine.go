package campaign

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/explore"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/store"
)

// Engine errors.
var (
	// ErrUnknownCampaign is returned for IDs the registry does not hold.
	ErrUnknownCampaign = errors.New("campaign: unknown campaign")
)

// Engine orchestrates campaigns over a shared jobs.Pool on the
// exploration core: the registry, checkpointing after every completed
// point, resume, cancellation and the live event stream are
// internal/explore's; this package contributes the strategies and the
// quarantine failure policy. The store may be nil, in which case
// campaigns run memory-only (no resume across restarts).
type Engine struct {
	*explore.Engine[State, Point]
	k *kind
}

// EngineMetrics are the campaign-level telemetry counters, exposed by
// cmd/saserve as the saserve_campaign_* metric families.
type EngineMetrics struct {
	explore.Metrics

	BisectIterations int64 `json:"bisect_iterations"`
	FrontierRows     int64 `json:"frontier_rows"`
	BracketReuses    int64 `json:"bracket_reuses"`
}

// NewEngine creates an engine over the pool, checkpointing to st (nil
// disables persistence). The logger may be nil.
func NewEngine(pool *jobs.Pool, st *store.Store, lg *slog.Logger) *Engine {
	k := &kind{}
	return &Engine{
		Engine: explore.New[State, Point](pool, st, lg, k, explore.Config{
			Noun: "campaign", Key: "campaign", Store: stateKind, Unknown: ErrUnknownCampaign,
		}),
		k: k,
	}
}

// StoreKind returns the store kind campaign checkpoints are written
// under; stores backing an Engine should pin it.
func StoreKind() string { return stateKind }

// Start registers and launches the campaign described by spec, returning
// a snapshot of its state. Campaigns are content-addressed: starting a
// spec whose fingerprint matches a live campaign returns that campaign,
// and one matching a checkpoint in the store resumes or returns it
// (completed campaigns are served from their stored state without
// re-running anything).
func (e *Engine) Start(spec *Spec) (State, error) {
	if err := spec.Validate(); err != nil {
		return State{}, err
	}
	id := spec.Fingerprint()
	return e.Engine.Start(id, func() *State {
		return &State{
			Version:  stateVersion,
			ID:       id,
			Name:     spec.Name,
			Strategy: spec.Strategy,
			Status:   StatusRunning,
			Spec:     spec,
		}
	}), nil
}

// Metrics returns a snapshot of the campaign-level counters.
func (e *Engine) Metrics() EngineMetrics {
	return EngineMetrics{
		Metrics:          e.Engine.Metrics(),
		BisectIterations: e.k.bisectIterations.Load(),
		FrontierRows:     e.k.frontierRows.Load(),
		BracketReuses:    e.k.bracketReuses.Load(),
	}
}

// kind adapts campaigns to the exploration core; it also carries the
// strategy counters of its engine.
type kind struct {
	bisectIterations, frontierRows, bracketReuses atomic.Int64
}

func (*kind) Fields(s *State) explore.Fields {
	return explore.Fields{ID: &s.ID, Name: &s.Name, Status: &s.Status, Error: &s.Error,
		StartedAt: &s.StartedAt, UpdatedAt: &s.UpdatedAt, Trace: &s.Trace, Label: s.Strategy}
}

func (*kind) Clone(s *State) State { return s.clone() }

func (*kind) Resumable(s *State) bool { return s.Version == stateVersion && s.Spec != nil }

func (*kind) Points(s *State) int { return len(s.Points) }

func (*kind) Point(s *State, i int) (string, explore.Result) {
	p := &s.Points[i]
	return p.Point.Key(), explore.Result{Fingerprint: p.Fingerprint, Verdict: p.Schedulable, Source: p.Source,
		Error: p.Error, ElapsedNS: p.ElapsedNS, Trace: p.Trace, Postmortem: p.Postmortem}
}

// Record stores a point and keeps the convergence counters: checkpoint
// hits, pool evaluations, retries, and the quarantined points currently
// recorded. A re-evaluated quarantined point overwrites its stale record
// in place, so the state never holds two records for one point.
func (*kind) Record(s *State, pt Point, r explore.Result, at int) {
	pr := PointResult{Point: pt, Fingerprint: r.Fingerprint, Schedulable: r.Verdict, Source: r.Source,
		Error: r.Error, ElapsedNS: r.ElapsedNS, Trace: r.Trace, Postmortem: r.Postmortem}
	c := &s.Convergence
	if r.Source == SourceCheckpoint {
		c.CheckpointHits++
	} else {
		c.Evaluations++
		c.Retries += r.Retries
	}
	failed := r.Source == SourceFailed
	switch {
	case at < 0:
		s.Points = append(s.Points, pr)
		if failed {
			c.Failed++
		}
	default:
		s.Points[at] = pr
		if !failed {
			c.Failed--
		}
	}
}

func (*kind) Reuse(s *State) { s.Convergence.CheckpointHits++ }

func (*kind) Straggle(s *State, pt Point, r explore.Result, phases map[string]int64) {
	s.Stragglers = explore.Rank(s.Stragglers,
		Straggler{Point: pt, Trace: r.Trace, ElapsedNS: r.ElapsedNS, Phases: phases},
		func(x Straggler) (string, int64) { return x.Point.Key(), x.ElapsedNS })
}

func (*kind) Key(pt Point) string { return pt.Key() }

func (*kind) Materialize(s *State, pt Point) (*config.System, error) { return Materialize(s.Spec, pt) }

// Policy is the quarantine posture: a failed point is retried with
// doubling backoff up to the spec's budget, then recorded failed while
// the campaign moves on — one pathological corner of a sweep must not
// void the rest of the map.
func (*kind) Policy(s *State) explore.Policy {
	return explore.Policy{Retries: s.Spec.retries(), Backoff: s.Spec.retryBackoff(), Quarantine: true}
}

func (*kind) Progress(s *State) (int, int) {
	if s.Spec.Strategy != StrategyGrid {
		return 0, 1
	}
	return s.Spec.gridSize(), s.Spec.parallel()
}

func (k *kind) Plan(ctx context.Context, r *explore.Run[State, Point]) (func(*State), error) {
	p := &planner{r: r, k: k}
	r.Update(func(s *State) { p.spec = s.Spec })
	switch p.spec.Strategy {
	case StrategyGrid:
		return nil, r.EvaluateAll(ctx, gridPoints(p.spec.Axes), p.spec.parallel())
	case StrategyBisect:
		return nil, p.runBisect(ctx)
	case StrategyFrontier:
		return nil, p.runFrontier(ctx)
	}
	return nil, fmt.Errorf("campaign: unknown strategy %q", p.spec.Strategy)
}
