package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"
)

// serialOp is one op of an in-process workload. A returned error is a
// failed op; a wrong output is recorded on the report as a mismatch.
type serialOp func(ctx context.Context, t *opTrace) (opResult, error)

// opResult is what an op reports beyond its error.
type opResult struct {
	// wall is the op's wall time when the op measures it itself, to leave
	// tear-down out; 0 lets the caller time the call.
	wall time.Duration
	// verdicts is how many verdicts the op completed; 0 means one.
	verdicts int
}

// runSerial sets up setupReps times, a set-up being one untimed warm-up op
// (every op opens what it needs), then runs op from one caller in a closed
// loop for the window. In a traced run traced and untraced ops alternate.
func runSerial(ctx context.Context, e *env, rep *report, op serialOp) error {
	setups, err := timeSetups(func(i int) error {
		octx, cancel := context.WithTimeout(ctx, opTimeout)
		defer cancel()
		// A traced run also traces the process's first op, the cold call
		// single-shot measurements see.
		var t *opTrace
		if e.traced && i == 0 {
			t = newOpTrace()
		}
		start := time.Now()
		res, err := op(octx, t)
		if t != nil && err == nil {
			d := ms(res.wall)
			if res.wall == 0 {
				d = ms(time.Since(start))
			}
			cold := newLayerStats()
			cold.addTraced(t, d)
			e.notef("cold first op: %.4g ms: %s", d, strings.Join(cold.breakdown(), " "))
		}
		return err
	})
	if err != nil {
		return err
	}
	rep.setupS = setups
	if e.traced {
		rep.layers = newLayerStats()
	}
	wall := closedLoop(1, e.seconds, func(_, i int) bool {
		var t *opTrace
		if e.traced && i%2 == 1 {
			t = newOpTrace()
		}
		octx, cancel := context.WithTimeout(ctx, opTimeout)
		start := time.Now()
		res, err := op(octx, t)
		d := res.wall
		if d == 0 {
			d = time.Since(start)
		}
		cancel()
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.opS = append(rep.opS, math.Inf(1))
			rep.verdictMS = append(rep.verdictMS, math.Inf(1))
			e.notef("op %d failed: %v", i, err)
			return true
		}
		// An op of several verdicts contributes its wall time per verdict.
		n := max(res.verdicts, 1)
		rep.opS = append(rep.opS, d.Seconds())
		rep.verdictMS = append(rep.verdictMS, ms(d)/float64(n))
		rep.verdicts += n
		if rep.layers != nil {
			if t != nil {
				rep.layers.addTraced(t, ms(d))
			} else {
				rep.layers.addPlain(ms(d))
			}
		}
		return true
	})
	rep.wallS = wall.Seconds()
	rss, err := opPeakRSS(ctx, op)
	if err != nil {
		return err
	}
	rep.rssMB = rss
	return nil
}

// memOps is how many untimed ops after the window measure peak_rss_mb.
const memOps = 3

// opPeakRSS runs memOps untimed ops, each after returning the free heap
// to the OS and resetting VmHWM, and returns the median of the process's
// peak resident memory during each. Read over a whole run or window
// instead, the peak followed where the collector's cycles happened to
// fall: over ten runs of the identical table1 op it read 15.3-18.8 MiB
// in nine and 23.4 MiB in one.
func opPeakRSS(ctx context.Context, op serialOp) (float64, error) {
	var peaks []float64
	for i := 0; i < memOps; i++ {
		if err := resetPeakRSS(); err != nil {
			return 0, err
		}
		octx, cancel := context.WithTimeout(ctx, opTimeout)
		_, err := op(octx, nil)
		cancel()
		if err != nil {
			return 0, fmt.Errorf("memory op %d: %w", i+1, err)
		}
		p, err := peakRSSMB(0)
		if err != nil {
			return 0, err
		}
		peaks = append(peaks, p)
	}
	return median(peaks), nil
}
