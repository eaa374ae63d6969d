package explore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/fault"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/obs"
)

// Lookup returns the recorded, non-failed result at c's coordinates.
func (r *Run[S, C]) Lookup(c C) (Result, bool) {
	key := r.eng.kind.Key(c)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recordedLocked(key)
}

func (r *Run[S, C]) recordedLocked(key string) (Result, bool) {
	i, ok := r.keys[key]
	if !ok {
		return Result{}, false
	}
	_, res := r.eng.kind.Point(r.state, i)
	return res, res.Source != SourceFailed
}

// Evaluate answers the point at c: from its own record when the run has
// settled it before, from the record of an earlier point that
// materialized to the same configuration, by waiting for the in-flight
// evaluation of that configuration, or through the pool (which consults
// its memory and disk tiers before interpreting). A point evaluated
// through the pool is retried per the kind's Policy; one that still
// fails is either recorded failed (Source SourceFailed, quarantine) or
// aborts the run. The error return is reserved for run-level aborts:
// cancellation, materialization bugs, pool shutdown, exhausted budgets
// and unquarantined failures.
func (r *Run[S, C]) Evaluate(ctx context.Context, c C) (Result, error) {
	e := r.eng
	key := e.kind.Key(c)
	r.mu.Lock()
	res, ok := r.recordedLocked(key)
	if ok {
		e.kind.Reuse(r.state)
	}
	at, known := r.keys[key] // a failed record the evaluation replaces
	r.mu.Unlock()
	if ok {
		e.count(func(m *Metrics) { m.PointsCheckpoint++ })
		return res, nil
	}
	if !known {
		at = -1
	}

	sys, err := e.kind.Materialize(r.state, c)
	if err != nil {
		return Result{}, err
	}
	fp := sys.Fingerprint()
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		r.mu.Lock()
		if res, ok := r.settled[fp]; ok {
			// An alias of a settled configuration (e.g. WCET percentages
			// that truncate to the same scaled values): record it from that
			// result without touching the pool.
			res.Source, res.ElapsedNS, res.Retries = SourceCheckpoint, 0, 0
			r.recordLocked(c, key, res, at)
			r.mu.Unlock()
			e.count(func(m *Metrics) { m.PointsCheckpoint++ })
			r.Checkpoint()
			r.publishPoint(key, res)
			return res, nil
		}
		if wait := r.inflight[fp]; wait != nil {
			// The configuration is being evaluated for another point: wait
			// for it, then answer from its record — or, if it failed,
			// evaluate on our own.
			r.mu.Unlock()
			select {
			case <-wait:
			case <-ctx.Done():
			}
			continue
		}
		if b := e.kind.Policy(r.state).Budget; b > 0 && e.kind.Points(r.state) >= b {
			r.mu.Unlock()
			return Result{}, fmt.Errorf("%s: evaluation budget of %d points exhausted", e.cfg.Key, b)
		}
		wait := make(chan struct{})
		r.inflight[fp] = wait
		r.mu.Unlock()

		res, err := r.evaluate(ctx, c, key, at, sys, fp)
		r.mu.Lock()
		delete(r.inflight, fp)
		r.mu.Unlock()
		close(wait)
		return res, err
	}
}

// evaluate runs one configuration through the pool with the policy's
// retries and records the outcome. The point's span — the first submit
// through the record — is a child of the run's root trace when the pool
// traces; the jobs it submits link their own spans under it.
func (r *Run[S, C]) evaluate(ctx context.Context, c C, key string, at int, sys *config.System, fp string) (Result, error) {
	e := r.eng
	pol := e.kind.Policy(r.state)
	tc := r.pointTrace()
	defer r.closePointSpan(tc, key, time.Now())

	done, err := r.attempt(ctx, sys, tc)
	retries := 0
	for ; err == nil && done.Status == jobs.StatusFailed && retries < pol.Retries; retries++ {
		e.pool.Resilience().PointRetries.Add(1)
		if lg := r.logger(); lg != nil {
			lg.Warn("point attempt failed; retrying", "point", key, "attempt", retries+1, "error", failure(done))
		}
		if err = fault.SleepContext(ctx, pol.Backoff<<retries); err == nil {
			done, err = r.attempt(ctx, sys, tc)
		}
	}
	if err != nil {
		return Result{}, err
	}

	res := Result{Fingerprint: fp, Postmortem: done.PostmortemKey, Retries: retries}
	if tc.Valid() {
		res.Trace = tc.Traceparent()
	}
	switch done.Status {
	case jobs.StatusDone:
		res.Verdict = done.Outcome.Verdict == jobs.VerdictSchedulable
		res.ElapsedNS = int64(done.Outcome.Elapsed)
		switch {
		case done.DiskHit:
			res.Source = SourceDisk
		case done.CacheHit:
			res.Source = SourceMemory
		default:
			res.Source = SourceComputed
		}
	case jobs.StatusCanceled:
		return Result{}, context.Canceled
	default:
		res.Source, res.Error = SourceFailed, failure(done)
		if !pol.Quarantine {
			r.publishPoint(key, res)
			return Result{}, fmt.Errorf("%s: point %s failed: %s", e.cfg.Key, key, res.Error)
		}
	}

	if res.Source != SourceFailed {
		r.durs.Observe(time.Duration(res.ElapsedNS))
	}
	r.mu.Lock()
	r.recordLocked(c, key, res, at)
	if res.Source == SourceComputed {
		e.kind.Straggle(r.state, c, res, topPhases(done))
	}
	r.mu.Unlock()
	e.count(func(m *Metrics) {
		switch res.Source {
		case SourceComputed:
			m.PointsComputed++
		case SourceMemory:
			m.PointsCacheMemory++
		case SourceDisk:
			m.PointsCacheDisk++
		case SourceFailed:
			m.PointsFailed++
		}
	})
	r.Checkpoint()
	if res.Source == SourceFailed {
		e.pool.Resilience().PointsQuarantined.Add(1)
		e.pool.ServiceFlight().RecordWall(obs.FlightQuarantine, 0, 0, key)
		if lg := r.logger(); lg != nil {
			lg.Warn("point quarantined", "point", key, "error", res.Error)
		}
	}
	r.publishPoint(key, res)
	return res, nil
}

// recordLocked stores res at c and indexes it. Callers hold r.mu.
func (r *Run[S, C]) recordLocked(c C, key string, res Result, at int) {
	k := r.eng.kind
	k.Record(r.state, c, res, at)
	if at < 0 {
		at = k.Points(r.state) - 1
	}
	r.keys[key] = at
	if res.Source != SourceFailed {
		r.settled[res.Fingerprint] = res
	}
}

// attempt runs one evaluation attempt, with the exploration fault site
// applied first (an injected fault is a failed attempt that never
// consumed a pool slot).
func (r *Run[S, C]) attempt(ctx context.Context, sys *config.System, tc obs.TraceContext) (jobs.Job, error) {
	if f := r.eng.pool.Faults().Hit(fault.SiteCampaignPoint); f != nil {
		return jobs.Job{Status: jobs.StatusFailed, Err: f.Err()}, nil
	}
	return SubmitWait(ctx, r.eng.pool, sys, tc)
}

// SubmitWait runs sys through the pool under trace tc and waits for the
// job to settle. Backpressure (jobs.ErrQueueFull) is waited out until
// ctx ends — explorations yield to interactive submissions rather than
// fail — and a wait that ctx abandons cancels the job in the pool, so
// the worker stops promptly instead of running to completion for nobody.
func SubmitWait(ctx context.Context, pool *jobs.Pool, sys *config.System, tc obs.TraceContext) (jobs.Job, error) {
	for {
		jb, err := pool.SubmitTraced(jobs.ConfigRun{Sys: sys}, pool.DefaultBudget(), tc)
		switch {
		case err == nil:
			done, err := pool.Wait(ctx, jb.ID)
			if err != nil {
				pool.Cancel(jb.ID)
			}
			return done, err
		case !errors.Is(err, jobs.ErrQueueFull):
			return jobs.Job{}, err
		}
		select {
		case <-ctx.Done():
			return jobs.Job{}, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// EvaluateAll evaluates the points with at most par evaluations in
// flight. The first run-level error cancels the rest and is returned.
func (r *Run[S, C]) EvaluateAll(ctx context.Context, cs []C, par int) error {
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	feed := make(chan C)
	for range min(par, len(cs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range feed {
				if _, err := r.Evaluate(bctx, c); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
				}
			}
		}()
	}
feeding:
	for _, c := range cs {
		select {
		case feed <- c:
		case <-bctx.Done():
			break feeding
		}
	}
	close(feed)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// failure renders a failed job's error.
func failure(done jobs.Job) string {
	if done.Err != nil {
		return done.Err.Error()
	}
	return "run failed"
}

// topPhases sums a run's top-level phase durations, nil when the job
// carries no telemetry.
func topPhases(done jobs.Job) map[string]int64 {
	if done.Outcome == nil || done.Outcome.Telemetry == nil {
		return nil
	}
	phases := make(map[string]int64)
	for _, ph := range done.Outcome.Telemetry.Phases {
		if ph.Depth == 0 {
			phases[ph.Name] += ph.DurNS
		}
	}
	return phases
}
