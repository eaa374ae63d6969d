package synth

import (
	"context"
	"fmt"

	"stopwatchsim/internal/explore"
)

// The refinement. Both modes are exact at lattice resolution when
// feasibility is monotone in each dimension separately (either direction
// per dimension): the extreme verdicts over a box are then attained at
// its corners, so corner-unanimous boxes are classified whole. The 1-D
// mode is the degenerate case run as a breakdown bisection — O(log N)
// oracle runs against the O(N) of a grid sweep; the multi-D mode spends
// its runs on the boundary, leaving large uniform boxes classified by
// their corners alone.

// box is an axis-aligned sub-box in lattice coordinates: inclusive
// vertex index bounds, hi[i] > lo[i] in every dimension.
type box struct {
	lo, hi []int
}

// width returns the cell width along dimension i.
func (b *box) width(i int) int { return b.hi[i] - b.lo[i] }

// cells returns the box's cell volume.
func (b *box) cells() int64 {
	n := int64(1)
	for i := range b.lo {
		n *= int64(b.width(i))
	}
	return n
}

// atomic reports whether the box is a single lattice cell in every
// dimension — the refinement floor.
func (b *box) atomic() bool {
	for i := range b.lo {
		if b.width(i) > 1 {
			return false
		}
	}
	return true
}

// corners enumerates the box's 2^d corner index vectors in a fixed
// order (dimension 0 is the lowest bit).
func (b *box) corners() [][]int {
	d := len(b.lo)
	out := make([][]int, 0, 1<<d)
	for mask := 0; mask < 1<<d; mask++ {
		idx := make([]int, d)
		for i := 0; i < d; i++ {
			if mask&(1<<i) != 0 {
				idx[i] = b.hi[i]
			} else {
				idx[i] = b.lo[i]
			}
		}
		out = append(out, idx)
	}
	return out
}

// center returns the box's center snapped onto the lattice. For an
// atomic box this coincides with the low corner.
func (b *box) center() []int {
	idx := make([]int, len(b.lo))
	for i := range b.lo {
		idx[i] = b.lo[i] + b.width(i)/2
	}
	return idx
}

// refiner runs one synthesis's refinement over its exploration run: it
// decides which lattice points to ask for and the core answers them.
type refiner struct {
	r     *explore.Run[State, []int]
	k     *kind
	space *Space
}

// evaluate returns the verdict at a lattice point: from the run's point
// log when already recorded, otherwise through the core.
func (f *refiner) evaluate(ctx context.Context, idx []int) (bool, error) {
	if res, ok := f.r.Lookup(idx); ok {
		return res.Verdict, nil
	}
	res, err := f.r.Evaluate(ctx, idx)
	return res.Verdict, err
}

// feasibleAt returns the recorded verdict at a lattice point, if any.
func (f *refiner) feasibleAt(idx []int) (bool, bool) {
	res, ok := f.r.Lookup(idx)
	return res.Verdict, ok
}

// refine runs the synthesis to a complete cover and builds the region.
func (f *refiner) refine(ctx context.Context) (*Region, error) {
	space := f.space
	r := &Region{
		SchemaVersion: regionSchemaVersion,
		Name:          space.Name,
		Dims:          append([]Dim(nil), space.Dims...),
		TotalCells:    space.totalCells(),
	}
	f.r.Update(func(s *State) { r.ID = s.ID })
	var err error
	if len(space.Dims) == 1 {
		err = f.refine1D(ctx, r)
	} else {
		err = f.refineBoxes(ctx, r)
	}
	if r.TotalCells > 0 {
		r.Coverage = float64(r.DecidedCells) / float64(r.TotalCells)
	}
	return r, err
}

// emit appends a classified box to the region and bumps the counters;
// witness is non-nil exactly for boundary boxes.
func (f *refiner) emit(r *Region, b box, verdict string, witness *Witness) {
	cells := b.cells()
	r.Boxes = append(r.Boxes, Box{
		Min:     f.space.values(b.lo),
		Max:     f.space.values(b.hi),
		Verdict: verdict,
		Cells:   cells,
	})
	f.r.Update(func(s *State) {
		switch verdict {
		case VerdictFeasible:
			s.Counts.BoxesFeasible++
			r.DecidedCells += cells
		case VerdictInfeasible:
			s.Counts.BoxesInfeasible++
			r.DecidedCells += cells
		case VerdictBoundary:
			s.Counts.BoxesBoundary++
			r.Boundary = append(r.Boundary, *witness)
		}
	})
	f.k.boxesClassified.Add(1)
}

// refine1D is the exact breakdown mode: two end probes orient the
// monotone direction, a bisection pins the boundary to one lattice cell,
// and the cover is a decided prefix, the boundary cell, and a decided
// suffix. Works for both directions of monotonicity (feasibility
// shrinking or growing with the parameter value).
func (f *refiner) refine1D(ctx context.Context, r *Region) error {
	space := f.space
	n := space.Dims[0].cells()
	whole := box{lo: []int{0}, hi: []int{n}}

	f0, err := f.evaluate(ctx, []int{0})
	if err != nil {
		return err
	}
	fn, err := f.evaluate(ctx, []int{n})
	if err != nil {
		return err
	}
	if f0 == fn {
		// Uniform ends: under monotonicity the whole interval matches.
		v := VerdictInfeasible
		if f0 {
			v = VerdictFeasible
		}
		f.emit(r, whole, v, nil)
		return nil
	}

	// Invariant: the verdict at lo differs from the verdict at hi; shrink
	// to adjacent lattice values.
	lo, hi := 0, n
	for hi-lo > 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		mid := lo + (hi-lo)/2
		fm, err := f.evaluate(ctx, []int{mid})
		if err != nil {
			return err
		}
		f.r.Update(func(s *State) { s.Counts.BisectIterations++ })
		f.k.bisectIterations.Add(1)
		if fm == f0 {
			lo = mid
		} else {
			hi = mid
		}
	}

	loVerdict, hiVerdict := VerdictFeasible, VerdictInfeasible
	w := Witness{Feasible: space.values([]int{lo}), Infeasible: space.values([]int{hi})}
	if !f0 {
		loVerdict, hiVerdict = VerdictInfeasible, VerdictFeasible
		w = Witness{Feasible: space.values([]int{hi}), Infeasible: space.values([]int{lo})}
	}
	if lo > 0 {
		f.emit(r, box{lo: []int{0}, hi: []int{lo}}, loVerdict, nil)
	}
	f.emit(r, box{lo: []int{lo}, hi: []int{hi}}, VerdictBoundary, &w)
	if hi < n {
		f.emit(r, box{lo: []int{hi}, hi: []int{n}}, hiVerdict, nil)
	}
	return nil
}

// refineBoxes is the multi-dimensional mode: a breadth-first wave of
// boxes, each wave's corner and center probes evaluated concurrently
// through the pool, each box then classified whole, split, or declared
// an atomic boundary cell.
func (f *refiner) refineBoxes(ctx context.Context, r *Region) error {
	space := f.space
	d := len(space.Dims)
	whole := box{lo: make([]int, d), hi: make([]int, d)}
	for i := range space.Dims {
		whole.hi[i] = space.Dims[i].cells()
	}
	queue := []box{whole}

	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Evaluate the whole wave's probes in one concurrent batch:
		// corners shared between sibling boxes (split planes) and with
		// earlier waves are asked for once.
		var probes [][]int
		seen := make(map[string]bool)
		for i := range queue {
			for _, p := range append(queue[i].corners(), queue[i].center()) {
				if k := idxKey(p); !seen[k] {
					seen[k] = true
					if _, ok := f.feasibleAt(p); !ok {
						probes = append(probes, p)
					}
				}
			}
		}
		if err := f.r.EvaluateAll(ctx, probes, space.parallel()); err != nil {
			return err
		}

		var next []box
		for _, b := range queue {
			corners := b.corners()
			feasible, infeasible := 0, 0
			for _, c := range corners {
				ok, known := f.feasibleAt(c)
				if !known {
					return fmt.Errorf("synth: internal: corner %s not evaluated", idxKey(c))
				}
				if ok {
					feasible++
				} else {
					infeasible++
				}
			}
			fc, ok := f.feasibleAt(b.center())
			if !ok {
				return fmt.Errorf("synth: internal: center %s not evaluated", idxKey(b.center()))
			}
			switch {
			case infeasible == 0 && fc:
				f.emit(r, b, VerdictFeasible, nil)
			case feasible == 0 && !fc:
				f.emit(r, b, VerdictInfeasible, nil)
			case b.atomic():
				// Mixed corners at single-cell width: the boundary passes
				// through this cell. The witness is the first feasible and
				// first infeasible corner in enumeration order.
				var w Witness
				for _, c := range corners {
					ok, _ := f.feasibleAt(c)
					if ok && w.Feasible == nil {
						w.Feasible = space.values(c)
					}
					if !ok && w.Infeasible == nil {
						w.Infeasible = space.values(c)
					}
				}
				f.emit(r, b, VerdictBoundary, &w)
			default:
				// Split the widest dimension (lowest index on ties) at the
				// lattice midpoint; children share the split plane, so its
				// corners are evaluated once.
				dim := 0
				for i := 1; i < d; i++ {
					if b.width(i) > b.width(dim) {
						dim = i
					}
				}
				mid := b.lo[dim] + b.width(dim)/2
				a, c := box{lo: b.lo, hi: append([]int(nil), b.hi...)}, box{lo: append([]int(nil), b.lo...), hi: b.hi}
				a.hi[dim] = mid
				c.lo[dim] = mid
				next = append(next, a, c)
				f.r.Update(func(s *State) { s.Counts.Splits++ })
				f.k.splits.Add(1)
			}
		}
		queue = next
	}
	return nil
}
