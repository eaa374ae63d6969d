package main

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/gen"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/xta"
)

// Service stream shape. saserve's default memory cache holds 1024
// results; the stream's working set exceeds it, so requests split among
// three paths: computed (build, run, analyze, store write), memory hit
// and disk hit. Each request's path is planned by simulating that LRU
// with a margin, so planned memory hits are among the 256 keys touched
// most recently and planned disk hits were evicted more than 1024+64
// distinct keys ago.
//
// The four shares are assumptions, not measured traffic. shareNew in
// particular is low for steadiness: at 0.10 the p99 fell among computed
// requests and followed fsync noise. A result on this workload holds for
// this mix only.
const (
	serviceCacheSize = 1024 // saserve's default -cache
	simMargin        = 64
	recentWindow     = 256
	prefillKeys      = serviceCacheSize + simMargin + 32 // set-up requests; the first 32 are disk-eligible at once
	shareNew         = 0.03                              // requests for a configuration never sent before
	shareMemory      = 0.30                              // requests for a recently sent one
	shareXTA         = 0.10                              // new keys that are XTA models
	shareJSON        = 0.25                              // configuration requests sent as JSON
	serviceTimeout   = 20 * time.Second                  // per request
	maxRequestRate   = 10000                             // per second, sizes the planned stream
	replaySample     = 300                               // requests replayed in-process
	// rssAfter is how many measured requests saserve has answered when
	// peak_rss_mb is read. saserve's job registry keeps every job, so a
	// reading at the end of the window would grow with throughput; this
	// one describes a fixed amount of work, well below what a window
	// completes.
	rssAfter = 20000
)

// svcReq is one planned request: a key (a configuration or XTA model)
// and the format it is sent in.
type svcReq struct {
	key    int
	format string // "xml", "json" or "xta"
}

// svcStream is the seeded request stream: prefillKeys set-up requests
// for distinct keys, then the measured mix.
type svcStream struct {
	seed  int64
	reqs  []svcReq
	isXTA []bool // per key

	mu     sync.Mutex
	bodies map[svcReq][]byte
}

// newServiceStream plans n measured requests after the prefill.
func newServiceStream(seed int64, n int) *svcStream {
	s := &svcStream{seed: seed, bodies: map[svcReq][]byte{}}
	r := rand.New(rand.NewSource(seed))
	lru := list.New()
	where := map[int]*list.Element{}
	var evicted []int
	evictedAt := map[int]int{}
	touch := func(k int) {
		if el, ok := where[k]; ok {
			lru.MoveToFront(el)
			return
		}
		if i, ok := evictedAt[k]; ok { // back from the disk tier
			last := evicted[len(evicted)-1]
			evicted[i], evictedAt[last] = last, i
			evicted = evicted[:len(evicted)-1]
			delete(evictedAt, k)
		}
		where[k] = lru.PushFront(k)
		if lru.Len() > serviceCacheSize+simMargin {
			old := lru.Remove(lru.Back()).(int)
			delete(where, old)
			evictedAt[old] = len(evicted)
			evicted = append(evicted, old)
		}
	}
	format := func(k int) string {
		switch {
		case s.isXTA[k]:
			return "xta"
		case r.Float64() < shareJSON:
			return "json"
		}
		return "xml"
	}
	newKey := func() int {
		s.isXTA = append(s.isXTA, r.Float64() < shareXTA)
		return len(s.isXTA) - 1
	}
	for i := 0; i < prefillKeys+n; i++ {
		var k int
		p := r.Float64()
		switch {
		case i < prefillKeys || p < shareNew:
			k = newKey()
		case p < shareNew+shareMemory:
			k = s.reqs[i-1-r.Intn(min(recentWindow, i))].key
		case len(evicted) > 0:
			k = evicted[r.Intn(len(evicted))]
		default:
			k = s.reqs[i-1-r.Intn(min(recentWindow, i))].key
		}
		touch(k)
		s.reqs = append(s.reqs, svcReq{key: k, format: format(k)})
	}
	return s
}

// body returns the bytes of a request, generating them on first use: a
// small random configuration (XML or JSON) or an XTA model.
func (s *svcStream) body(q svcReq) ([]byte, error) {
	s.mu.Lock()
	b, ok := s.bodies[q]
	s.mu.Unlock()
	if ok {
		return b, nil
	}
	var err error
	switch q.format {
	case "xta":
		b = []byte(xtaModel(s.seed, q.key))
	case "json":
		b, err = jsonBytes(s.system(q.key))
	default:
		b, err = xmlBytes(s.system(q.key))
	}
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.bodies[q] = b
	s.mu.Unlock()
	return b, nil
}

func (s *svcStream) system(key int) *config.System {
	return gen.Random(s.seed*1_000_003+int64(key), gen.DefaultRandomParams())
}

// xtaModel is a small periodic emitter/counter network whose constants
// derive from the seed and key.
func xtaModel(seed int64, key int) string {
	r := rand.New(rand.NewSource(seed*7_919 + int64(key)))
	return fmt.Sprintf(`// perfbench stream %d key %d
const int PERIOD = %d;
const int SLOW = %d;
int count = 0;
chan tick;

process Emitter() {
    clock t;
    state W { t <= PERIOD };
    init W;
    trans W -> W { guard t == PERIOD; sync tick!; assign t := 0; };
}

process Slow() {
    clock u;
    state S { u <= SLOW };
    init S;
    trans S -> S { guard u == SLOW; sync tick!; assign u := 0; };
}

process Counter() {
    state C;
    init C;
    trans C -> C { sync tick?; assign count := count + %d; };
}

system Emitter(), Slow(), Counter();
`, seed, key, 2+r.Intn(9), 11+r.Intn(20), 1+r.Intn(5))
}

// digestedRequests is how many leading requests of a stream the input
// digest covers. The plan does not depend on the stream's length, so every
// run of a seed shares them.
const digestedRequests = 4000

func serviceDigest(seed int64) (string, error) {
	return newServiceStream(seed, digestedRequests-prefillKeys).digest()
}

// digest hashes the formats and bodies of the stream's leading requests.
func (s *svcStream) digest() (string, error) {
	parts := make([][]byte, 0, 2*digestedRequests)
	for _, q := range s.reqs[:min(len(s.reqs), digestedRequests)] {
		b, err := s.body(q)
		if err != nil {
			return "", err
		}
		parts = append(parts, []byte(q.format), b)
	}
	return digest(parts...), nil
}

// jobDoc is the part of saserve's job document the benchmark reads.
type jobDoc struct {
	Status    string `json:"status"`
	CacheHit  bool   `json:"cache_hit"`
	DiskHit   bool   `json:"disk_hit"`
	Submitted string `json:"submitted"`
	Started   string `json:"started"`
	Finished  string `json:"finished"`
	Verdict   string `json:"verdict"`
	Actions   int    `json:"engine_actions"`
	JobsTotal int    `json:"jobs_total"`
	JobsLate  int    `json:"jobs_unschedulable"`
}

// svcResp is one answered request.
type svcResp struct {
	req    svcReq
	rttMS  float64
	doc    jobDoc
	failed error
}

// tier names the path that answered a request.
func (r *svcResp) tier() string {
	switch {
	case r.doc.DiskHit:
		return "disk"
	case r.doc.CacheHit:
		return "memory"
	}
	return "computed"
}

// stamps splits a round trip with the job document's stamps: the time
// before the pool saw the job and after it finished (HTTP, parsing,
// fingerprinting, and a hit's store read: the pool stamps a hit before
// reading the store), the queue wait and the worker run. The three parts
// add up to the round trip by construction.
func (r *svcResp) stamps() (httpMS, waitMS, runMS float64, err error) {
	sub, err1 := time.Parse(time.RFC3339Nano, r.doc.Submitted)
	sta, err2 := time.Parse(time.RFC3339Nano, r.doc.Started)
	fin, err3 := time.Parse(time.RFC3339Nano, r.doc.Finished)
	if err := errors.Join(err1, err2, err3); err != nil {
		return 0, 0, 0, fmt.Errorf("job stamps: %w", err)
	}
	return r.rttMS - ms(fin.Sub(sub)), ms(sta.Sub(sub)), ms(fin.Sub(sta)), nil
}

// server is one running saserve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	logs *tailBuffer
	done chan struct{} // closed once the process has exited
	err  error         // its exit status, valid after done
}

// startServer starts saserve with its default flags plus an address and
// an empty store, and waits until /healthz answers.
func startServer(bin, storeDir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{
		cmd:  exec.Command(bin, "-addr", "127.0.0.1:"+port, "-store", storeDir),
		base: "http://127.0.0.1:" + port,
		logs: &tailBuffer{max: 64 << 10},
		done: make(chan struct{}),
	}
	s.cmd.Stdout, s.cmd.Stderr = s.logs, s.logs
	// Should this process die without stopping it, the kernel kills it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting saserve: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("saserve exited before answering /healthz (%v): %s", s.err, s.logs.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("saserve did not answer /healthz within 30s: %s", s.logs.String())
		}
	}
}

// stop shuts saserve down gracefully, killing it if it does not exit in
// time, and waits until it has. Stopping a stopped server is a no-op.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.cmd.Process.Kill()
	}
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// metrics scrapes /metrics into name → value (labels kept in the name).
func (s *server) metrics() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// backendFrom reads the engine backend saserve reports in /metrics.
func backendFrom(m map[string]float64) (nsa.Backend, error) {
	for k := range m {
		if rest, ok := strings.CutPrefix(k, `saserve_engine_backend{backend="`); ok {
			return nsa.ParseBackend(strings.TrimSuffix(rest, `"}`))
		}
	}
	return 0, errors.New("saserve reports no saserve_engine_backend")
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if len(b.buf) > b.max {
		b.buf = append(b.buf[:0], b.buf[len(b.buf)-b.max:]...)
	}
	return len(p), nil
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

var contentTypes = map[string]string{"xml": "application/xml", "json": "application/json", "xta": "application/x-xta"}

// client sends stream requests to one server. Each caller owns one
// keep-alive connection and writes its request and reads the response on
// its own goroutine: net/http's transport would add a writer and a reader
// goroutine per connection, two more goroutine wake-ups per request inside
// the measured round trip.
type client struct {
	addr    string // host:port
	stream  *svcStream
	timeout time.Duration // per request
}

func newClient(base string, s *svcStream) *client {
	return &client{addr: strings.TrimPrefix(base, "http://"), stream: s, timeout: serviceTimeout}
}

// caller is one closed-loop caller's connection, opened on first use and
// after any failure.
type caller struct {
	*client
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func (c *caller) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// post sends one request and reads the whole response.
func (c *caller) post(path, contentType string, body []byte) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
		if err != nil {
			return 0, nil, err
		}
		c.conn, c.br, c.bw = conn, bufio.NewReaderSize(conn, 64<<10), bufio.NewWriterSize(conn, 64<<10)
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+c.addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	err = c.conn.SetDeadline(time.Now().Add(c.timeout))
	if err == nil {
		err = req.Write(c.bw)
	}
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, data, err
}

// do submits one request with ?wait=true and decodes the job document.
// A refusal (429), a server error (5xx), a timeout or a job that did not
// finish is a failed request.
func (c *caller) do(q svcReq) svcResp {
	out := svcResp{req: q}
	body, err := c.stream.body(q)
	if err != nil {
		out.failed = err
		return out
	}
	start := time.Now()
	status, data, err := c.post("/v1/jobs?wait=true", contentTypes[q.format], body)
	out.rttMS = ms(time.Since(start))
	switch {
	case err != nil:
		out.failed = err
	case status != http.StatusOK:
		out.failed = fmt.Errorf("HTTP %d: %s", status, strings.TrimSpace(string(data)))
	default:
		if err := json.Unmarshal(data, &out.doc); err != nil {
			out.failed = fmt.Errorf("decoding job document: %w", err)
		} else if out.doc.Status != "done" {
			out.failed = fmt.Errorf("job ended %s", out.doc.Status)
		}
	}
	return out
}

// drive sends reqs from callers closed-loop callers until they run out
// (window 0) or the window ends, returning every response and the time to
// the last one. When the at-th response has arrived, onAt runs once, in
// the caller that received it.
func (c *client) drive(reqs []svcReq, callers int, window time.Duration, at int, onAt func()) ([]svcResp, time.Duration) {
	var next, answered atomic.Int64
	perCaller := make([][]svcResp, callers)
	conns := make([]*caller, callers)
	for i := range conns {
		conns[i] = &caller{client: c}
	}
	defer func() {
		for _, cn := range conns {
			cn.close()
		}
	}()
	if window == 0 {
		window = time.Duration(math.MaxInt64)
	}
	wall := closedLoop(callers, window, func(i, _ int) bool {
		j := int(next.Add(1) - 1)
		if j >= len(reqs) {
			return false
		}
		perCaller[i] = append(perCaller[i], conns[i].do(reqs[j]))
		if answered.Add(1) == int64(at) && onAt != nil {
			onAt()
		}
		return true
	})
	var all []svcResp
	for _, rs := range perCaller {
		all = append(all, rs...)
	}
	return all, wall
}

// runService runs saserve as a child process with its default flags and
// an empty store, driven by nproc closed-loop callers over the seeded
// stream.
func runService(ctx context.Context, e *env) (*report, error) {
	if e.saserve == "" {
		return nil, errors.New("the service workload needs -saserve")
	}
	stream := newServiceStream(e.seed, max(rssAfter, int(e.seconds.Seconds()*maxRequestRate)))
	// Every body is generated before any timing, so callers only send.
	for _, q := range stream.reqs {
		if _, err := stream.body(q); err != nil {
			return nil, err
		}
	}
	d, err := stream.digest()
	if err != nil {
		return nil, err
	}
	note, err := checkDigest(filepath.Join(e.root, "perfbench"), "service", e.seed, false, d)
	if err != nil {
		return nil, err
	}
	e.notef("service: seed %d; %s", e.seed, note)

	prefill, measured := stream.reqs[:prefillKeys], stream.reqs[prefillKeys:]
	var (
		srv     *server
		answers []svcResp
	)
	setups, err := timeSetups(func(rep int) error {
		if srv != nil {
			srv.stop()
		}
		dir := filepath.Join(e.work, fmt.Sprintf("store-%d", rep))
		var err error
		if srv, err = startServer(e.saserve, dir); err != nil {
			return err
		}
		got, _ := newClient(srv.base, stream).drive(prefill, nproc(), 0, 0, nil)
		for _, a := range got {
			if a.failed != nil {
				return fmt.Errorf("prefill request failed: %w", a.failed)
			}
		}
		answers = append(answers, got...)
		return nil
	})
	if err != nil {
		if srv != nil {
			srv.stop()
		}
		return nil, err
	}
	defer srv.stop()

	before, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	var (
		rss    float64
		rssErr error
	)
	readRSS := func() { rss, rssErr = peakRSSMB(srv.cmd.Process.Pid) }
	c := newClient(srv.base, stream)
	resps, wall := c.drive(measured, nproc(), e.seconds, rssAfter, readRSS)
	if len(resps) == len(measured) {
		e.notef("service: the planned stream ran out after %.2fs; raise maxRequestRate", wall.Seconds())
	}
	after, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	if len(resps) < rssAfter {
		// A slow run: finish the fixed amount of work after the window.
		e.notef("service: %d requests in the window; sending %d more untimed before reading peak_rss_mb",
			len(resps), rssAfter-len(resps))
		rest, _ := c.drive(measured[len(resps):rssAfter], nproc(), 0, 0, nil)
		for _, a := range rest {
			if a.failed != nil {
				return nil, fmt.Errorf("request after the window failed: %w", a.failed)
			}
		}
		answers = append(answers, rest...)
		readRSS()
	}
	if rssErr != nil {
		return nil, rssErr
	}
	srv.stop()

	rep := &report{setupS: setups, wallS: wall.Seconds(), rssMB: rss}
	rep.addResponses(resps)
	if err := checkService(ctx, stream, append(answers, resps...), rep); err != nil {
		return nil, err
	}
	if e.traced {
		backend, err := backendFrom(after)
		if err != nil {
			return nil, err
		}
		if rep.layers, err = serviceLayers(ctx, stream, resps, before, after, backend); err != nil {
			return nil, err
		}
	}
	counts := map[string]int{}
	for _, r := range resps {
		if r.failed == nil {
			counts[r.tier()]++
		}
	}
	e.notef("service: %d requests in %.2fs (computed %d, memory %d, disk %d); setup prefill %d keys; peak_rss_mb read after %d requests",
		len(resps), wall.Seconds(), counts["computed"], counts["memory"], counts["disk"], len(prefill), rssAfter)
	return rep, nil
}

// addResponses accounts measured requests: each is an op and a verdict;
// a failed one counts against failed and beyond any latency limit.
func (r *report) addResponses(resps []svcResp) {
	for _, s := range resps {
		r.attempted++
		if s.failed != nil {
			r.failed++
			r.verdictMS = append(r.verdictMS, math.Inf(1))
			r.opS = append(r.opS, math.Inf(1))
			continue
		}
		r.verdicts++
		r.verdictMS = append(r.verdictMS, s.rttMS)
		r.opS = append(r.opS, s.rttMS/1000)
	}
}

// reference is the in-process answer for one key.
type reference struct {
	verdict string
	jobs    int
	late    int
	actions int
}

// checkService compares every answered request with the in-process
// reference for its body: verdict, job counts and engine actions.
func checkService(ctx context.Context, s *svcStream, resps []svcResp, rep *report) error {
	keys := map[svcReq]bool{}
	for _, r := range resps {
		if r.failed == nil {
			keys[svcReq{key: r.req.key, format: refFormat(r.req.format)}] = true
		}
	}
	var (
		mu   sync.Mutex
		refs = map[int]reference{}
		wg   sync.WaitGroup
		errc = make(chan error, 1)
		work = make(chan svcReq)
	)
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range work {
				ref, err := s.reference(ctx, q)
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					continue
				}
				mu.Lock()
				refs[q.key] = ref
				mu.Unlock()
			}
		}()
	}
	for q := range keys {
		work <- q
	}
	close(work)
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
	}
	for _, r := range resps {
		if r.failed != nil {
			continue
		}
		want := refs[r.req.key]
		got := reference{verdict: r.doc.Verdict, jobs: r.doc.JobsTotal, late: r.doc.JobsLate, actions: r.doc.Actions}
		if got != want {
			rep.mismatch("service key %d (%s, %s): got %+v, in-process reference %+v", r.req.key, r.req.format, r.tier(), got, want)
		}
	}
	return nil
}

// refFormat maps a request format to the one references are computed
// from: XML and JSON bodies of a key are the same configuration.
func refFormat(f string) string {
	if f == "json" {
		return "xml"
	}
	return f
}

// reference computes a key's answer in-process on the library default.
func (s *svcStream) reference(ctx context.Context, q svcReq) (reference, error) {
	body, err := s.body(q)
	if err != nil {
		return reference{}, err
	}
	if q.format == "xta" {
		res, err := runXTA(ctx, nil, string(body), 0)
		if err != nil {
			return reference{}, err
		}
		return reference{verdict: "completed", actions: res.Actions}, nil
	}
	v, err := analyzeConfig(ctx, nil, body, false, 0)
	if err != nil {
		return reference{}, err
	}
	verdict := "unschedulable"
	if v.Schedulable {
		verdict = "schedulable"
	}
	return reference{verdict: verdict, jobs: v.Jobs, late: v.Late, actions: v.Actions}, nil
}

// xtaHorizon is saserve's default horizon for XTA submissions.
const xtaHorizon = 1000

// runXTA compiles and interprets an XTA model the way saserve's worker
// does: the xta layer, then the nsa layer.
func runXTA(ctx context.Context, t *opTrace, src string, backend nsa.Backend) (nsa.Result, error) {
	var m *xta.Model
	if err := t.time("xta.compile_ms", func() (err error) {
		m, err = xta.Compile(src)
		return err
	}); err != nil {
		return nsa.Result{}, err
	}
	opts := nsa.Options{Horizon: xtaHorizon, Backend: backend}
	if t != nil {
		opts.Probe = &obs.Probe{}
	}
	var res nsa.Result
	err := t.timeAlloc("nsa.run_ms", "nsa.run_alloc_mb", func() (err error) {
		res, err = nsa.NewEngine(m.Net, opts).RunContext(ctx)
		return err
	})
	return res, err
}

// serviceLayers builds the per-layer view of a traced service run. The
// job-document stamps split every round trip into saserve.http_ms,
// jobs.queue_wait_ms and jobs.run_ms. They close the round trip by
// construction, so unattributed_ms is 0 here, and requests are sent the
// same way traced or not, so tracing_overhead_ms is 0 too (no op is
// untraced). The store hides inside those splits: a disk hit's read lies
// in saserve.http_ms, and a computed job's write runs on its worker after
// the response, showing only as a later job's queue wait. store.ms sizes
// the reads from the tiers' round trips: the disk tier's median excess
// over a memory hit, per request. A sample of the requests is then
// replayed in-process on saserve's backend to split the worker's run into
// parse, build, run and analyze.
func serviceLayers(ctx context.Context, s *svcStream, resps []svcResp, before, after map[string]float64, backend nsa.Backend) (*layerStats, error) {
	l := newLayerStats()
	tiers := map[string][]float64{}
	var answered []svcResp
	for _, r := range resps {
		if r.failed != nil {
			continue
		}
		httpMS, waitMS, runMS, err := r.stamps()
		if err != nil {
			return nil, err
		}
		t := newOpTrace()
		t.Timed["saserve.http_ms"] = httpMS
		t.Timed["jobs.queue_wait_ms"] = waitMS
		t.Timed["jobs.run_ms"] = runMS
		l.addTraced(t, r.rttMS)
		tiers[r.tier()] = append(tiers[r.tier()], r.rttMS)
		answered = append(answered, r)
	}
	if len(answered) == 0 {
		return nil, errors.New("no request completed")
	}
	n := float64(len(answered))
	l.final["jobs.computed_frac"] = float64(len(tiers["computed"])) / n
	l.final["jobs.memory_hit_frac"] = float64(len(tiers["memory"])) / n
	l.final["jobs.disk_hit_frac"] = float64(len(tiers["disk"])) / n
	l.final["jobs.computed_ms_p50"] = median(tiers["computed"])
	l.final["jobs.memory_hit_ms_p50"] = median(tiers["memory"])
	l.final["store.disk_hit_ms_p50"] = median(tiers["disk"])
	l.final["store.ms"] = l.final["jobs.disk_hit_frac"] * max(0, l.final["store.disk_hit_ms_p50"]-l.final["jobs.memory_hit_ms_p50"])
	// The split's rounding leaves residues of ~1e-19 ms.
	l.final["unattributed_ms"] = 0
	all := float64(len(resps))
	l.final["store.puts"] = (after["saserve_store_puts_total"] - before["saserve_store_puts_total"]) / all
	l.final["store.bytes_written"] = (after["saserve_store_bytes"] - before["saserve_store_bytes"]) / all

	// Replay an evenly spaced sample: every request parses (saserve reads
	// the body and fingerprints it before looking up any cache); computed
	// ones also build, run and analyze.
	step := max(1, len(answered)/replaySample)
	var replays []*opTrace
	for i := 0; i < len(answered); i += step {
		r := answered[i]
		body, err := s.body(r.req)
		if err != nil {
			return nil, err
		}
		t := newOpTrace()
		computed := r.tier() == "computed"
		switch {
		case r.req.format == "xta":
			if computed {
				if _, err := runXTA(ctx, t, string(body), backend); err != nil {
					return nil, err
				}
			}
		case computed:
			if _, err := analyzeConfig(ctx, t, body, r.req.format == "json", backend); err != nil {
				return nil, err
			}
		default:
			if _, err := parseConfig(t, body, r.req.format == "json"); err != nil {
				return nil, err
			}
		}
		replays = append(replays, t)
	}
	// Counts stay with the workloads where they are exact: a per-request
	// mean over a sample of the mix is not.
	for k, v := range meanLayers(replays) {
		if unit, _ := unitOf(k); unit != "count" {
			l.final[k] = v
		}
	}
	return l, nil
}
