package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched. Failed
// ops are recorded as +Inf and therefore sort last: they count as beyond
// any latency limit.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank returns the 1-based nearest rank of the permille-th percentile of
// n samples, ceil(permille*n/1000), in integer arithmetic so that e.g.
// p99.9 of 10000 samples is rank 9990 exactly.
func rank(permille, n int) int {
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(permille, len(sorted))-1]
}

// median is the nearest-rank 50th percentile of xs.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 500) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean of xs; NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile for it to count as measured rather than guessed.
const minBeyond = 10

// shortPercentile is reported when a run is too short for any percentile
// above the median to have minBeyond samples beyond it: the lowest one
// above the median, which is what the rule reports at 21 samples, so the
// reported tail does not jump as a run's op count crosses 20.
const shortPercentile = 51

// tailStat is a tail latency: the percentile chosen, its value, the
// sample count and how many samples lie beyond it.
type tailStat struct {
	Percentile int
	Value      float64
	N          int
	Beyond     int
	// Short marks a run too short for any percentile above the median to
	// have minBeyond samples beyond it. The value is then p51 regardless,
	// with Beyond < minBeyond: every run must still print the metric.
	Short bool
}

// tail applies the tail rule: the highest whole percentile, p51 to p99,
// with at least ten samples beyond it. Twenty or fewer samples leave no
// such percentile, and the run reports p51, marked Short.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{Value: math.NaN(), Short: true}
	}
	s := sortedCopy(xs)
	at := func(p int) tailStat {
		r := rank(p*10, n)
		return tailStat{Percentile: p, Value: s[r-1], N: n, Beyond: n - r}
	}
	for p := 99; p > 50; p-- {
		if t := at(p); t.Beyond >= minBeyond {
			return t
		}
	}
	t := at(shortPercentile)
	t.Short = true
	return t
}
