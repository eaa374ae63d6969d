package campaign

import (
	"context"
	"fmt"
	"math"

	"stopwatchsim/internal/explore"
)

// The strategies. Each maps the design space with a different budget of
// oracle runs:
//
//   - grid evaluates every cross-product point — the ground truth, at
//     exponential cost in axis count;
//   - bisect finds the breakdown value of one parameter in O(log range)
//     runs, generalizing analysis.CriticalScaling to any scalar axis;
//   - frontier traces the schedulable/unschedulable boundary over two
//     parameters by bisecting one axis per grid row of the other, seeding
//     each row's bracket from the neighbor row's critical point (the
//     boundary is continuous in practice, so the seeded probe usually
//     halves the bracket immediately).
//
// All three assume what the paper's model guarantees for WCET-like
// parameters: the verdict is deterministic per point; bisect and frontier
// additionally assume schedulability is monotone non-increasing along the
// bisected axis (true for WCET scale and utilization under
// work-conserving schedulers on a fixed window schedule).
//
// Each strategy is a planner over the exploration core: it decides which
// points to ask for and the core answers them. Grid hands the whole cross
// product to Run.EvaluateAll, spec.Parallel points in flight; a failed
// point is quarantined by the core's policy and the grid goes on, while
// bisect and frontier treat a failed point as an abort (a breakdown
// result computed around a hole would be silently wrong).

// planner runs one campaign's strategy over its exploration run.
type planner struct {
	r    *explore.Run[State, Point]
	k    *kind
	spec *Spec
}

// gridPoints expands the axes' cross product in row-major order (last
// axis fastest), matching the order a nested sweep loop would visit.
func gridPoints(axes []Axis) []Point {
	pts := []Point{{}}
	for i := range axes {
		a := &axes[i]
		var next []Point
		for _, base := range pts {
			for _, v := range a.gridValues() {
				pt := make(Point, len(base)+1)
				for k, bv := range base {
					pt[k] = bv
				}
				pt[a.Param] = v
				next = append(next, pt)
			}
		}
		pts = next
	}
	return pts
}

// runBisect finds the critical value of the single axis and records it —
// with the witness bracket behind it — in state.Critical/Bracket.
func (p *planner) runBisect(ctx context.Context) error {
	crit, pair, err := p.bisectAxis(ctx, Point{}, &p.spec.Axes[0], bracket{})
	if err != nil {
		return err
	}
	p.r.Update(func(s *State) { s.Critical, s.Bracket = crit, pair })
	return nil
}

// runFrontier grids the row axis and bisects the column axis per row,
// seeding brackets adaptively, building state.Frontier.
func (p *planner) runFrontier(ctx context.Context) error {
	rowAxis, colAxis := &p.spec.Axes[0], &p.spec.Axes[1]
	var prev *float64
	for _, row := range rowAxis.gridValues() {
		base := Point{rowAxis.Param: row}
		before := p.evaluations()

		var br bracket
		if prev != nil && *prev > colAxis.Min && *prev < colAxis.Max {
			// Adaptive seeding: probe the neighbor row's critical point
			// first; whichever way it lands, it halves the bracket.
			ok, err := p.evalAt(ctx, base, colAxis.Param, *prev)
			if err != nil {
				return err
			}
			if ok {
				br.lo, br.loKnown = *prev, true
			} else {
				br.hi, br.hiKnown = *prev, true
			}
			p.r.Update(func(s *State) { s.Convergence.BracketReuses++ })
			p.k.bracketReuses.Add(1)
		}

		crit, pair, err := p.bisectAxis(ctx, base, colAxis, br)
		if err != nil {
			return err
		}
		p.r.Update(func(s *State) {
			evals := s.Convergence.Evaluations - before
			s.Frontier = append(s.Frontier, FrontierRow{Row: row, Critical: crit, Bracket: pair, Evaluations: evals})
			s.Convergence.FrontierRows++
		})
		p.k.frontierRows.Add(1)
		p.r.Checkpoint()
		prev = crit
	}
	return nil
}

// bracket carries pre-verified bisection bounds: loKnown asserts lo is
// schedulable, hiKnown that hi is unschedulable.
type bracket struct {
	lo, hi           float64
	loKnown, hiKnown bool
}

// bisectAxis finds the largest schedulable value of axis a (at resolution
// a.tol()) over the base point, returning nil when even the minimum is
// unschedulable. The BracketPair carries the witness runs localizing the
// boundary: the largest value proven schedulable and the smallest proven
// unschedulable (one side absent when the whole interval falls on one
// side). A failed oracle run aborts the search.
func (p *planner) bisectAxis(ctx context.Context, base Point, a *Axis, br bracket) (*float64, *BracketPair, error) {
	lo, hi := a.Min, a.Max
	loKnown, hiKnown := false, false
	if br.loKnown {
		lo, loKnown = br.lo, true
	}
	if br.hiKnown {
		hi, hiKnown = br.hi, true
	}

	if !loKnown {
		ok, err := p.evalAt(ctx, base, a.Param, lo)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			// Nothing schedulable at or above the minimum: the minimum
			// itself is the infeasible witness.
			v := lo
			return nil, &BracketPair{Infeasible: &v}, nil
		}
	}
	if !hiKnown {
		ok, err := p.evalAt(ctx, base, a.Param, hi)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			// The whole interval is schedulable: the maximum is its own
			// feasible witness, no infeasible one exists.
			v := hi
			return &v, &BracketPair{Feasible: &v}, nil
		}
	}

	tol := a.tol()
	for hi-lo > tol {
		// Snap the midpoint onto the tol grid anchored at the axis
		// minimum so bisect probes the same lattice a step-tol grid
		// would, then nudge it inside the open interval.
		mid := a.Min + math.Floor((lo+hi-2*a.Min)/2/tol)*tol
		if mid <= lo {
			mid = lo + tol
		}
		if mid >= hi {
			break
		}
		ok, err := p.evalAt(ctx, base, a.Param, mid)
		if err != nil {
			return nil, nil, err
		}
		p.r.Update(func(s *State) { s.Convergence.BisectIterations++ })
		p.k.bisectIterations.Add(1)
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	// The loop invariant holds lo schedulable and hi unschedulable: the
	// converged bracket is the critical value's witness pair.
	v, u := lo, hi
	return &v, &BracketPair{Feasible: &v, Infeasible: &u}, nil
}

// evalAt reports whether base extended with param=v is schedulable,
// treating a failed run as a strategy-aborting error.
func (p *planner) evalAt(ctx context.Context, base Point, param string, v float64) (bool, error) {
	pt := make(Point, len(base)+1)
	for k, bv := range base {
		pt[k] = bv
	}
	pt[param] = v
	res, err := p.r.Evaluate(ctx, pt)
	if err != nil {
		return false, err
	}
	if res.Source == SourceFailed {
		return false, fmt.Errorf("campaign: point %s failed: %s", pt.Key(), res.Error)
	}
	return res.Verdict, nil
}

// evaluations reads the campaign's pool-evaluation count.
func (p *planner) evaluations() (n int) {
	p.r.Update(func(s *State) { n = s.Convergence.Evaluations })
	return n
}
