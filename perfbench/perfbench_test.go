package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n, percentile int
		value         float64
		beyond        int
		short         bool
	}{
		{100000, 99, 99000, 1000, false}, // whole percentiles stop at p99
		{1000, 99, 990, 10, false},       // exactly ten beyond
		{999, 98, 980, 19, false},        // p99 would leave nine
		{40, 75, 30, 10, false},
		{25, 60, 15, 10, false},
		{21, 52, 11, 10, false}, // the shortest run with a tail above the median
		{20, 51, 11, 9, true},   // too short: p51, the same rank, marked
		{12, 51, 7, 5, true},
	} {
		got := tail(ramp(c.n))
		if got.Percentile != c.percentile || got.Value != c.value || got.N != c.n || got.Beyond != c.beyond || got.Short != c.short {
			t.Errorf("n=%d: got %+v, want p%d=%g beyond %d short %t", c.n, got, c.percentile, c.value, c.beyond, c.short)
		}
	}
	desc := describeTail(tail(ramp(1000)))
	if !strings.Contains(desc, "p99 = 990") || !strings.Contains(desc, "n=1000") || !strings.Contains(desc, "10 beyond") {
		t.Errorf("description %q lacks the percentile, value or sample count", desc)
	}
	if d := describeTail(tail(ramp(12))); !strings.Contains(d, "p51") || !strings.Contains(d, "n=12") || !strings.Contains(d, "fewer than 10") {
		t.Errorf("short-run description %q does not say why p51 is reported", d)
	}
	// Failed ops are infinitely slow: they sort last, beyond the tail.
	xs := append(ramp(30), math.Inf(1))
	if got := tail(xs); got.Percentile != 67 || math.IsInf(got.Value, 1) {
		t.Errorf("with one failure in 31 samples: %+v", got)
	}
}

// TestFailureAccounting drives the service client against a server that
// refuses, errs and stalls: each such request is a failed op, counted
// against attempted, whose latency lies beyond any limit.
func TestFailureAccounting(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Header.Get("Content-Type") {
		case "application/json": // refused
			w.Header().Set("Retry-After", "1")
			http.Error(w, "queue full", http.StatusTooManyRequests)
		case "application/x-xta": // stalls past the client timeout
			select {
			case <-r.Context().Done():
			case <-time.After(2 * time.Second):
			}
		default: // XML: a server error
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer ts.Close()
	stream := &svcStream{seed: 1, isXTA: []bool{false, true}, bodies: map[svcReq][]byte{}}
	c := newClient(ts.URL, stream)
	c.timeout = 100 * time.Millisecond
	cl := &caller{client: c}
	defer cl.close()
	var resps []svcResp
	for _, q := range []svcReq{{0, "json"}, {0, "xml"}, {1, "xta"}} {
		r := cl.do(q)
		if r.failed == nil {
			t.Fatalf("%s request did not fail", q.format)
		}
		if q.format == "xta" && !errors.Is(r.failed, os.ErrDeadlineExceeded) {
			t.Errorf("stalled request failed with %v, want a timeout", r.failed)
		}
		resps = append(resps, r)
	}
	resps = append(resps, svcResp{rttMS: 2, doc: jobDoc{Status: "done"}})
	rep := &report{wallS: 1, rssMB: 1, setupS: []float64{1}}
	rep.addResponses(resps)
	if rep.attempted != 4 || rep.failed != 3 || rep.verdicts != 1 {
		t.Fatalf("attempted %d failed %d verdicts %d, want 4, 3, 1", rep.attempted, rep.failed, rep.verdicts)
	}
	if got := median(rep.verdictMS); !math.IsInf(got, 1) {
		t.Errorf("median %g: three of four requests failed, so it lies beyond any limit", got)
	}
	var out bytes.Buffer
	e := &env{workload: "service", out: &out}
	res := e.result(rep)
	if !res.Correct || res.Failed != 3 || res.Attempted != 4 {
		t.Errorf("result %+v: failures are not wrong outputs, and must be counted", res)
	}
	if v := res.Metrics["verdict_ms_p50"].Value; v != opTimeout.Seconds()*1000 {
		t.Errorf("a median on a failed op prints %g, want the op timeout", v)
	}
}

// TestDriveHookAfterFixedRequests: the hook that reads saserve's peak
// memory runs once, when the chosen number of responses has arrived,
// whatever the window lets through after it.
func TestDriveHookAfterFixedRequests(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Write([]byte(`{"status":"done"}`))
	}))
	defer ts.Close()
	stream := &svcStream{seed: 1, isXTA: []bool{false}, bodies: map[svcReq][]byte{}}
	reqs := make([]svcReq, 60)
	for i := range reqs {
		reqs[i] = svcReq{0, "xml"}
	}
	c := newClient(ts.URL, stream)
	calls, seen := 0, int64(0)
	resps, _ := c.drive(reqs, 2, 0, 25, func() { calls++; seen = served.Load() })
	if len(resps) != 60 || calls != 1 || seen < 25 || seen > 26 {
		t.Errorf("%d responses, hook ran %d times with %d requests served; want 60, once, 25 or 26", len(resps), calls, seen)
	}
	if _, _ = c.drive(reqs[:10], 2, 0, 25, func() { calls++ }); calls != 1 {
		t.Errorf("hook ran for a drive that never reached its count")
	}
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	s1, err := serviceDigest(1)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := serviceDigest(1)
	s2, _ := serviceDigest(2)
	if s1 != again || s1 == s2 {
		t.Errorf("service digests: seed 1 %s then %s, seed 2 %s", s1, again, s2)
	}
	x1, err := exploreDigest("..", 1)
	if err != nil {
		t.Fatal(err)
	}
	x1again, _ := exploreDigest("..", 1)
	x2, _ := exploreDigest("..", 2)
	if x1 != x1again || x1 == x2 {
		t.Errorf("explore digests: seed 1 %s then %s, seed 2 %s", x1, x1again, x2)
	}
	// The default and held-out seeds, and the fixed instances, match
	// their recorded digests.
	rec, err := recordedDigests(".")
	if err != nil {
		t.Fatal(err)
	}
	ind, _ := industrialDigest()
	t1, _ := table1Digest(table1Jobs)
	sHeld, _ := serviceDigest(heldOutSeed)
	xHeld, _ := exploreDigest("..", heldOutSeed)
	for key, got := range map[string]string{
		"industrial -": ind, "table1 -": t1,
		"service 1": s1, "service 2": sHeld, "explore 1": x1, "explore 2": xHeld,
	} {
		if rec[key] != got {
			t.Errorf("%s: digest %s, recorded %q", key, got, rec[key])
		}
	}
}

// TestLayerSumsNeverExceedOp runs traced ops of two workloads and checks
// that the timed layer calls of every op add up to at most its wall time.
// TestCampaignBaseFixedSize: the seed changes the campaign base's content,
// never its size or its number of distinct grid points, so the pool
// computes the same number of points on every seed.
func TestCampaignBaseFixedSize(t *testing.T) {
	seen := map[string]int64{}
	for seed := int64(1); seed <= 8; seed++ {
		sys := campaignBase(seed)
		tasks := 0
		for _, p := range sys.Partitions {
			tasks += len(p.Tasks)
		}
		if len(sys.Cores) != baseCores || len(sys.Partitions) != basePartitions || tasks != baseTasks ||
			sys.Hyperperiod() != baseHyperperiod || len(sys.Messages) != baseMessages {
			t.Errorf("seed %d: %d cores, %d partitions, %d tasks, hyperperiod %d, %d messages",
				seed, len(sys.Cores), len(sys.Partitions), tasks, sys.Hyperperiod(), len(sys.Messages))
		}
		if d := distinctPoints(sys); d != baseDistinct {
			t.Errorf("seed %d: %d distinct grid points, want %d", seed, d, baseDistinct)
		}
		fp := sys.Fingerprint()
		if other, ok := seen[fp]; ok {
			t.Errorf("seeds %d and %d share a campaign base", other, seed)
		}
		seen[fp] = seed
	}
}

// TestPeakRSSReset: memory a set-up touched and released does not count
// in the peak read after resetPeakRSS.
func TestPeakRSSReset(t *testing.T) {
	big := make([]byte, 64<<20)
	for i := range big {
		big[i] = 1
	}
	before, err := peakRSSMB(0)
	if err != nil {
		t.Fatal(err)
	}
	big = nil
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	after, err := peakRSSMB(0)
	if err != nil {
		t.Fatal(err)
	}
	if after > before-32 {
		t.Errorf("peak RSS %.1f MiB after the reset, %.1f before: the released 64 MiB still counts", after, before)
	}
}

func TestLayerSumsNeverExceedOp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs traced ops")
	}
	for _, c := range []struct {
		name string
		run  workloadFunc
	}{{"table1", runTable1}, {"explore", runExplore}} {
		e := &env{workload: c.name, seed: 1, seconds: 2 * time.Second, traced: true,
			root: "..", work: t.TempDir(), t1Jobs: 10, out: &bytes.Buffer{}}
		rep, err := c.run(context.Background(), e)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(rep.mismatches) > 0 {
			t.Fatalf("%s: %v", c.name, rep.mismatches)
		}
		if len(rep.layers.traced) == 0 {
			t.Fatalf("%s: no traced op in the window", c.name)
		}
		for i, tr := range rep.layers.traced {
			if sum, op := tr.timedSum(), rep.layers.tracedMS[i]; sum > op || sum <= 0 {
				t.Errorf("%s op %d: timed layers %gms against an op of %gms", c.name, i, sum, op)
			}
		}
		if u := rep.layers.metrics()["unattributed_ms"]; u < 0 {
			t.Errorf("%s: unattributed_ms %g < 0", c.name, u)
		}
	}
	// A service round trip splits exactly into HTTP, queue wait and run.
	r := svcResp{rttMS: 5, doc: jobDoc{
		Submitted: "2026-01-01T00:00:00.001Z", Started: "2026-01-01T00:00:00.002Z", Finished: "2026-01-01T00:00:00.004Z",
	}}
	h, w, run, err := r.stamps()
	if err != nil || math.Abs(h+w+run-r.rttMS) > 1e-9 || h != 2 || w != 1 || run != 2 {
		t.Errorf("stamps split 5ms into http %g, wait %g, run %g (err %v)", h, w, run, err)
	}
}

// TestServiceLayersAttribution: on service the stamp split closes every
// round trip, so unattributed_ms and tracing_overhead_ms are 0, and
// store.ms is the disk tier's median excess over a memory hit, per request.
func TestServiceLayersAttribution(t *testing.T) {
	stream := newServiceStream(1, 0)
	answer := func(i int, rtt float64, memory, disk bool) svcResp {
		return svcResp{req: stream.reqs[i], rttMS: rtt, doc: jobDoc{
			Status: "done", CacheHit: memory || disk, DiskHit: disk,
			Submitted: "2026-01-01T00:00:00.0001Z", Started: "2026-01-01T00:00:00.0002Z", Finished: "2026-01-01T00:00:00.0005Z",
		}}
	}
	resps := []svcResp{answer(0, 1, true, false), answer(1, 1, true, false),
		answer(2, 3, false, true), answer(3, 3, false, true), answer(4, 5.3, false, false)}
	l, err := serviceLayers(context.Background(), stream, resps, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range l.traced {
		if math.Abs(tr.timedSum()-l.tracedMS[i]) > 1e-9 {
			t.Errorf("request %d: layers %gms, round trip %gms", i, tr.timedSum(), l.tracedMS[i])
		}
	}
	m := l.metrics()
	for name, want := range map[string]float64{"store.ms": 0.4 * (3 - 1), "jobs.disk_hit_frac": 0.4} {
		if math.Abs(m[name]-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
	// Exactly 0, not a rounding residue of the split.
	if m["unattributed_ms"] != 0 || m["tracing_overhead_ms"] != 0 {
		t.Errorf("unattributed_ms %g, tracing_overhead_ms %g; want 0 by construction", m["unattributed_ms"], m["tracing_overhead_ms"])
	}
}

// TestMetricsMatchBenchmarkJSON checks that every printed metric carries
// a unit and is declared in BENCHMARK.json with that unit, and that every
// declared metric is printed and documented.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		traced   bool
		declared []metricDef
		defs     []metricDef
	}{{false, bench.EndToEnd, endToEnd}, {true, bench.PerLayer, perLayer}} {
		if len(c.declared) != len(c.defs) {
			t.Errorf("BENCHMARK.json declares %d metrics, the benchmark defines %d", len(c.declared), len(c.defs))
		}
		for i := range c.declared {
			if i < len(c.defs) && c.declared[i] != c.defs[i] {
				t.Errorf("BENCHMARK.json %+v, benchmark %+v", c.declared[i], c.defs[i])
			}
			if !strings.Contains(string(readme), "`"+c.declared[i].Name+"`") {
				t.Errorf("README.md does not document %s", c.declared[i].Name)
			}
		}
		rep := &report{attempted: 1, setupS: []float64{1}, verdictMS: []float64{1}, opS: []float64{1},
			verdicts: 1, wallS: 1, rssMB: 1, layers: newLayerStats()}
		rep.layers.addTraced(newOpTrace(), 1)
		e := &env{traced: c.traced, out: &bytes.Buffer{}}
		res := e.result(rep)
		if len(res.Metrics) != len(c.declared) {
			t.Errorf("trace=%t printed %d metrics, BENCHMARK.json declares %d", c.traced, len(res.Metrics), len(c.declared))
		}
		for name, m := range res.Metrics {
			unit, ok := unitOf(name)
			if !ok || m.Unit == "" || m.Unit != unit {
				t.Errorf("printed %s with unit %q; declared %t with %q", name, m.Unit, ok, unit)
			}
		}
	}
}

// TestRefusesOutsideRepository: in a directory holding only the benchmark
// the run fails without printing a result.
func TestRefusesOutsideRepository(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-workload", "industrial", "-seconds", "1", "-root", dir}, &out, &errb)
	if code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}
