package main

import (
	"runtime"
	"slices"
	"sort"
	"time"
)

// opTrace collects one traced op's per-layer figures. Timed holds the
// milliseconds of calls the benchmark made one after another on the op's
// own timeline, so they sum to at most the op's wall time; Values holds
// counts from public return values and figures of layers that run
// concurrently inside a call (pool jobs, store writes). A nil *opTrace is
// an untraced op: calls run bare and nothing is recorded.
type opTrace struct {
	Timed  map[string]float64
	Values map[string]float64
}

func newOpTrace() *opTrace {
	return &opTrace{Timed: map[string]float64{}, Values: map[string]float64{}}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// time runs f as one call into a layer, adding its wall time to metric.
func (t *opTrace) time(metric string, f func() error) error {
	if t == nil {
		return f()
	}
	start := time.Now()
	err := f()
	t.Timed[metric] += ms(time.Since(start))
	return err
}

// timeAlloc is time that also adds the bytes the call allocated, in MiB,
// to allocMetric. Only single-goroutine ops use it: the allocation counter
// is process-wide.
func (t *opTrace) timeAlloc(metric, allocMetric string, f func() error) error {
	if t == nil {
		return f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := t.time(metric, f)
	runtime.ReadMemStats(&after)
	t.Values[allocMetric] += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return err
}

// set records a count or concurrent-layer figure.
func (t *opTrace) set(metric string, v float64) {
	if t != nil {
		t.Values[metric] = v
	}
}

// timedSum is the time the op spent in timed layer calls.
func (t *opTrace) timedSum() float64 {
	var s float64
	for _, v := range t.Timed {
		s += v
	}
	return s
}

// layerStats aggregates the ops of a traced run. On the in-process
// workloads traced and untraced ops alternate within the run, so their
// wall-time difference is the tracing overhead measured under the same
// conditions.
type layerStats struct {
	traced   []*opTrace
	tracedMS []float64
	plainMS  []float64
	// final overrides the per-op mean of a metric with a figure computed
	// over the whole run (fractions and medians over all requests).
	final map[string]float64
}

func newLayerStats() *layerStats { return &layerStats{final: map[string]float64{}} }

// addTraced records a traced op and its wall time.
func (l *layerStats) addTraced(t *opTrace, opMS float64) {
	l.traced = append(l.traced, t)
	l.tracedMS = append(l.tracedMS, opMS)
}

// addPlain records the wall time of an untraced op of a traced run.
func (l *layerStats) addPlain(opMS float64) { l.plainMS = append(l.plainMS, opMS) }

// ratioMetrics are per-op ratios: they average over the ops that
// recorded them, not over every op.
var ratioMetrics = map[string]bool{"nsa.ns_per_action": true, "nsa.guard_opaque_frac": true, "mc.us_per_state": true}

// meanLayers averages each recorded figure over ops. A layer an op did not
// call counts as 0 for that op, so a figure is the mean per op; ratios
// average over the ops that have them.
func meanLayers(ops []*opTrace) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, t := range ops {
		for _, m := range []map[string]float64{t.Timed, t.Values} {
			for k, v := range m {
				sums[k] += v
				counts[k]++
			}
		}
	}
	out := make(map[string]float64, len(sums))
	for k, v := range sums {
		n := len(ops)
		if ratioMetrics[k] {
			n = counts[k]
		}
		out[k] = v / float64(n)
	}
	return out
}

// metrics returns every per-layer metric: the per-op mean of each layer
// figure (0 for a layer the workload never calls), unattributed_ms as the
// mean op time not covered by timed calls, and tracing_overhead_ms as the
// mean traced op minus the mean untraced op.
func (l *layerStats) metrics() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	for k, v := range meanLayers(l.traced) {
		out[k] = v
	}
	var unattributed []float64
	for i, t := range l.traced {
		unattributed = append(unattributed, l.tracedMS[i]-t.timedSum())
	}
	out["unattributed_ms"] = mean(unattributed)
	if len(l.tracedMS) > 0 && len(l.plainMS) > 0 {
		out["tracing_overhead_ms"] = mean(l.tracedMS) - mean(l.plainMS)
	}
	for k, v := range l.final {
		out[k] = v
	}
	return out
}

// breakdown renders the mean timed layers of the traced ops, largest
// first, for the human-readable part of the output.
func (l *layerStats) breakdown() []string {
	means := meanLayers(l.traced)
	var keys []string
	for _, t := range l.traced {
		for k := range t.Timed {
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return means[keys[i]] > means[keys[j]] })
	lines := make([]string, len(keys))
	for i, k := range keys {
		lines[i] = k + "=" + fmtFloat(means[k])
	}
	return lines
}
