package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/hydrogen-sim/hydrogen/client"
	"github.com/hydrogen-sim/hydrogen/internal/obs"
	"github.com/hydrogen-sim/hydrogen/internal/serve"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// Request kinds of the serving workloads.
const (
	kindPost uint8 = iota // POST resubmit of a done job: "cached":true
	kindGet               // GET /v1/jobs/{id} of a done job
	kind304               // GET with If-None-Match: 304
	numKinds
)

var kindNames = [numKinds]string{"post_hit", "get", "304"}

// jobCycles sizes the simulations the serving workloads submit: two
// epochs, a few tens of milliseconds of host time, so the serving
// layer and not the simulator dominates what is measured.
const jobCycles = 20_000

// jobRequest is the i-th distinct job of a run. The seed picks the
// set: every (seed, i) has its own trace seed and therefore its own
// content address; design and combo alternate so the cost model and
// the cache see more than one class.
func jobRequest(seed int64, i int) serve.JobRequest {
	cfg := system.Quick()
	cfg.Hybrid.FastCapacityBytes = 4 << 20
	cfg.Hybrid.RemapCacheBytes = 16 << 10
	cfg.LLC.SizeBytes = 256 << 10
	cfg.EpochLen = jobCycles / 2
	cfg.Cycles = jobCycles
	design := system.DesignBaseline
	if i&1 == 1 {
		design = system.DesignHydrogen
	}
	combo := "C1"
	if i&2 == 2 {
		combo = "C5"
	}
	return serve.JobRequest{
		Config: &cfg, Design: design, Combo: serve.ComboSpec{ID: combo},
		Seed: seed*1_000_003 + int64(i) + 1,
	}
}

// jobKey is the content address the daemon will give req: the cluster
// workload needs it before submitting, to find the rendezvous owner.
func jobKey(req serve.JobRequest) (string, error) {
	combo, err := workloads.ComboByID(req.Combo.ID)
	if err != nil {
		return "", err
	}
	cfg := *req.Config
	cfg.Seed = req.Seed
	return serve.CacheKey(cfg, req.Design, serve.ComboSpec{ID: combo.ID, CPU: combo.CPU, GPU: combo.GPU}), nil
}

// node is one in-process daemon behind a loopback listener.
type node struct {
	srv *serve.Server
	ts  *httptest.Server
	url string
}

func bootNode(opts serve.Options) (*node, error) {
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	return &node{srv: srv, ts: ts, url: ts.URL}, nil
}

func (n *node) close() {
	n.ts.Close()
	n.srv.Close()
}

// newHTTPClient keeps conns loopback connections alive, so a load
// loop measures requests, not connection set-up.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
	}
}

// roundTrip sends req and reads the whole response into buf, with a
// span around each half when the run is traced.
func roundTrip(e *env, hc *http.Client, req *http.Request, buf *bytes.Buffer, op int64, parent int) (*http.Response, error) {
	id := e.rec.begin("http.roundtrip", op, parent)
	resp, err := hc.Do(req)
	e.rec.end(id)
	if err != nil {
		return nil, err
	}
	id = e.rec.begin("body.read", op, parent)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	e.rec.end(id)
	return resp, err
}

func postJob(url string, body []byte) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

func getJob(url, id, ifNoneMatch string) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodGet, url+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	return req, nil
}

// submitAndWait posts body and polls until the job is done; it
// returns the ack instant and the final status.
func submitAndWait(e *env, hc *http.Client, url string, body []byte, poll time.Duration, op int64, parent int) (ack time.Time, st serve.JobStatus, err error) {
	ack, st, err = submit(e, hc, url, body, op, parent)
	if err != nil {
		return ack, st, err
	}
	st, err = waitDone(e, hc, url, st.ID, poll, op, parent)
	return ack, st, err
}

// submit posts one new job and expects 202: accepted and durable.
func submit(e *env, hc *http.Client, url string, body []byte, op int64, parent int) (ack time.Time, st serve.JobStatus, err error) {
	var buf bytes.Buffer
	req, err := postJob(url, body)
	if err != nil {
		return ack, st, err
	}
	sub := e.rec.begin("client.submit", op, parent)
	resp, err := roundTrip(e, hc, req, &buf, op, sub)
	e.rec.end(sub)
	ack = time.Now()
	if err != nil {
		return ack, st, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return ack, st, fmt.Errorf("submit: status %d, want 202: %.120s", resp.StatusCode, buf.Bytes())
	}
	err = json.Unmarshal(buf.Bytes(), &st)
	return ack, st, err
}

// waitDone polls a job every poll until it is done and returns the
// final status; any other terminal state, or 20 s without one, is an
// error.
func waitDone(e *env, hc *http.Client, url, id string, poll time.Duration, op int64, parent int) (serve.JobStatus, error) {
	var cur serve.JobStatus
	deadline := time.Now().Add(20 * time.Second)
	wait := e.rec.begin("client.poll", op, parent)
	defer e.rec.end(wait)
	for {
		req, err := getJob(url, id, "")
		if err != nil {
			return cur, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return cur, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return cur, err
		}
		cur = serve.JobStatus{}
		if err := json.Unmarshal(data, &cur); err != nil {
			return cur, fmt.Errorf("poll: status %d: %w", resp.StatusCode, err)
		}
		switch cur.State {
		case serve.StateDone:
			if len(cur.Result) == 0 {
				return cur, fmt.Errorf("job %.12s done without a result", cur.ID)
			}
			return cur, nil
		case serve.StateQueued, serve.StateRunning:
		default:
			return cur, fmt.Errorf("job %.12s ended %s: %s", cur.ID, cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			return cur, fmt.Errorf("job %.12s still %s after 20 s", cur.ID, cur.State)
		}
		time.Sleep(poll)
	}
}

// doneJob is a preloaded job and the exact bytes every later response
// for it must carry.
type doneJob struct {
	id, etag string
	body     []byte // the POST body that created it
	getBody  []byte // GET response
	hitBody  []byte // POST-resubmit response
}

// preload submits n distinct jobs at url, waits for all of them and
// records their reference responses.
func preload(e *env, hc *http.Client, url string, reqs []serve.JobRequest) ([]doneJob, error) {
	jobs := make([]doneJob, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8) // at most 8 submit-and-poll loops at once
	for i := range reqs {
		body, err := json.Marshal(reqs[i])
		if err != nil {
			return nil, err
		}
		jobs[i].body = body
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			_, st, err := submitAndWait(e, hc, url, body, 5*time.Millisecond, 0, -1)
			jobs[i].id, errs[i] = st.ID, err
		}(i)
	}
	wg.Wait()
	var buf bytes.Buffer
	for i := range jobs {
		if errs[i] != nil {
			return nil, fmt.Errorf("preload job %d: %w", i, errs[i])
		}
		j := &jobs[i]
		req, _ := getJob(url, j.id, "")
		resp, err := roundTrip(e, hc, req, &buf, 0, -1)
		if err != nil {
			return nil, err
		}
		j.etag = resp.Header.Get("ETag")
		j.getBody = append([]byte(nil), buf.Bytes()...)
		req, _ = postJob(url, j.body)
		if _, err := roundTrip(e, hc, req, &buf, 0, -1); err != nil {
			return nil, err
		}
		j.hitBody = append([]byte(nil), buf.Bytes()...)
		if j.etag == "" || !bytes.Contains(j.getBody, []byte(`"state":"done"`)) || !bytes.Contains(j.hitBody, []byte(`"cached":true`)) {
			return nil, fmt.Errorf("preload job %d: reference responses are not a done job's", i)
		}
	}
	return jobs, nil
}

// hitRequest performs one read-path request of the given kind against
// base and checks status, ETag and body against the job's references.
func hitRequest(e *env, hc *http.Client, base string, j *doneJob, kind uint8, buf *bytes.Buffer, header http.Header) error {
	op := e.rec.op()
	root := e.rec.begin("request."+kindNames[kind], op, -1)
	defer e.rec.end(root)
	var req *http.Request
	var err error
	switch kind {
	case kindPost:
		req, err = postJob(base, j.body)
	case kindGet:
		req, err = getJob(base, j.id, "")
	default:
		req, err = getJob(base, j.id, j.etag)
	}
	if err != nil {
		return err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := roundTrip(e, hc, req, buf, op, root)
	if err != nil {
		return err
	}
	want, wantStatus := j.getBody, http.StatusOK
	switch kind {
	case kindPost:
		want = j.hitBody
	case kind304:
		want, wantStatus = nil, http.StatusNotModified
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("%s %.12s: status %d, want %d", kindNames[kind], j.id, resp.StatusCode, wantStatus)
	}
	if got := resp.Header.Get("ETag"); got != j.etag {
		return fmt.Errorf("%s %.12s: ETag %s, want %s", kindNames[kind], j.id, got, j.etag)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		return fmt.Errorf("%s %.12s: body differs from the reference (%d vs %d bytes)", kindNames[kind], j.id, buf.Len(), len(want))
	}
	return nil
}

// loadResult summarises one closed-loop read-path phase.
type loadResult struct {
	samples  []sample
	win      windowStats
	perKind  [numKinds]float64 // p50 seconds
	allocKB  float64           // per request, client and server together
	cpuUS    float64           // per request, client and server together
	respByte float64           // mean response body bytes
}

// hitLoad runs the closed loop: `clients` goroutines, round-robin over
// jobs, kinds interleaved 1:1:1 (or only those in kinds).
func hitLoad(e *env, t *tally, hc *http.Client, d time.Duration, jobs []doneJob, kinds []uint8, front func(idx int, j int) string) loadResult {
	m := startMeter()
	bufs := make([]bytes.Buffer, clients)
	bytesRead := make([]int64, clients)
	samples := closedLoop(d, func(c, seq int) uint8 {
		idx := seq*clients + c
		kind := kinds[idx%len(kinds)]
		jn := (idx / len(kinds)) % len(jobs)
		t.note(hitRequest(e, hc, front(idx, jn), &jobs[jn], kind, &bufs[c], nil))
		bytesRead[c] += int64(bufs[c].Len())
		return kind
	})
	res := loadResult{samples: samples}
	res.win = windows(samples, d.Seconds(), 10, loopTailPct)
	var byKind [numKinds][]float64
	for _, s := range samples {
		byKind[s.kind] = append(byKind[s.kind], s.dur)
	}
	for k := range byKind {
		res.perKind[k] = median(byKind[k])
	}
	if n := float64(len(samples)); n > 0 {
		res.allocKB, res.cpuUS = m.perOp(len(samples))
		var total int64
		for _, b := range bytesRead {
			total += b
		}
		res.respByte = float64(total) / n
	}
	return res
}

func (r loadResult) intoE2E(e *env, what string) {
	e.e2e["work_per_s"] = r.win.rate
	e.e2e["lat_p50_us"] = r.win.p50 * 1e6
	e.e2e["lat_tail_us"] = r.win.tail * 1e6
	e.e2e["alloc_kb_per_op"] = r.allocKB
	e.e2e["cpu_us_per_op"] = r.cpuUS
	e.note("work_per_s: %s completed per second; lat_p50_us/lat_tail_us: p50 and p%d of one request; each the median of %d windows over %d samples",
		what, loopTailPct, r.win.windows, len(r.samples))
}

// scrape fetches and parses /metrics.
func scrape(hc *http.Client, url string) (map[string]float64, time.Duration, error) {
	t0 := time.Now()
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	return parseProm(string(data)), d, nil
}

const warmup = time.Second

// loopTailPct is the percentile lat_tail_us reads in the closed loops.
// On the reference host 0.2-0.7 % of loopback requests take ~4.3 ms
// (one scheduler tick), so p99 sits on the knee between the request
// tail and that mode and reads anywhere from 450 to 960 us within one
// run; p95 is below the knee. The mode itself is serve.lat_p999_us.
const loopTailPct = 95

func runServeHit(e *env) error {
	const preloaded = 64
	e.params["jobs"], e.params["job_cycles"], e.params["mix"] = preloaded, jobCycles, "post_hit:get:304 = 1:1:1"
	e.params["warmup_s"] = warmup.Seconds()
	reqs := make([]serve.JobRequest, preloaded)
	for i := range reqs {
		reqs[i] = jobRequest(e.seed, i)
	}
	hc := newHTTPClient(clients)
	type ready struct {
		n    *node
		jobs []doneJob
	}
	setups := 0
	r, err := setupMedian(e, 3, func() (ready, error) {
		setups++
		n, err := bootNode(serve.Options{
			QueueDepth:  2 * preloaded,
			JournalPath: filepath.Join(e.dir, fmt.Sprintf("hit-%d.journal", setups)),
		})
		if err != nil {
			return ready{}, err
		}
		jobs, err := preload(e, hc, n.url, reqs)
		if err != nil {
			n.close()
			return ready{}, err
		}
		return ready{n, jobs}, nil
	}, func(r ready) { r.n.close() })
	if err != nil {
		return err
	}
	defer r.n.close()
	url := r.n.url
	front := func(int, int) string { return url }
	allKinds := []uint8{kindPost, kindGet, kind304}

	// Warm-up requests are checked like any other but not counted.
	hitLoad(e, &tally{}, hc, warmup, r.jobs, allKinds, front)

	before, _, err := scrape(hc, url)
	if err != nil {
		return err
	}
	plain := hitLoad(e, &e.tally, hc, e.measureFor(1), r.jobs, allKinds, front)
	plain.intoE2E(e, "requests")
	if !e.traced {
		return nil
	}

	e.rec = newRecorder()
	traced := hitLoad(e, &e.tally, hc, e.measureFor(1), r.jobs, allKinds, front)
	after, _, err := scrape(hc, url)
	if err != nil {
		return err
	}
	l := e.layer
	l["bench.trace_overhead_pct"] = 100 * (plain.win.rate - traced.win.rate) / plain.win.rate

	// What the daemon counted over both measured phases.
	delta := promDelta(before, after)
	posts := 0.0
	var all []float64
	for _, s := range append(plain.samples, traced.samples...) {
		if s.kind == kindPost {
			posts++
		}
		all = append(all, s.dur)
	}
	l["serve.fastpath_share"] = ratio(delta["hydroserved_submit_fastpath_total"], posts)
	l["serve.cache_hit_share"] = ratio(delta["hydroserved_cache_hits_total"], posts)
	l["serve.shed"] = delta["hydroserved_admission_shed_total"]
	l["serve.deduped"] = delta["hydroserved_jobs_deduped_total"]
	l["serve.resp_bytes"] = plain.respByte
	sort.Float64s(all)
	pct, _ := tailPercentile(len(all), 99.9)
	l["serve.lat_p99_us"] = percentile(all, 99) * 1e6
	l["serve.lat_p999_us"] = percentile(all, pct) * 1e6
	e.note("serve.lat_p999_us: p%.4g of %d samples", pct, len(all))

	return hitKernels(e, hc, r.n, &r.jobs[0], plain)
}

// hitKernels measures the layers under the hit path one at a time:
// the handler without a socket, the client package over raw HTTP, the
// cost of a trace header, and a /metrics scrape.
func hitKernels(e *env, hc *http.Client, n *node, j *doneJob, plain loadResult) error {
	const reps = 3000
	l := e.layer
	makers := [numKinds]func() *http.Request{
		kindPost: func() *http.Request {
			r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(j.body))
			r.Header.Set("Content-Type", "application/json")
			return r
		},
		kindGet: func() *http.Request { return httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.id, nil) },
		kind304: func() *http.Request {
			r := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.id, nil)
			r.Header.Set("If-None-Match", j.etag)
			return r
		},
	}
	wantStatus := [numKinds]int{http.StatusOK, http.StatusOK, http.StatusNotModified}
	var handlerP50 [numKinds]float64
	var allocs, allocBytes float64
	for k := uint8(0); k < numKinds; k++ {
		// The request and recorder are not the handler's; measure their
		// allocations alone and take them off.
		base := memDelta(func() {
			for i := 0; i < reps; i++ {
				_ = makers[k]()
				_ = httptest.NewRecorder()
			}
		})
		durs := make([]float64, 0, reps)
		op := e.rec.op()
		id := e.rec.begin("handler.direct", op, -1)
		with := memDelta(func() {
			for i := 0; i < reps; i++ {
				req, rec := makers[k](), httptest.NewRecorder()
				t0 := time.Now()
				n.srv.ServeHTTP(rec, req)
				durs = append(durs, time.Since(t0).Seconds())
				if rec.Code != wantStatus[k] {
					e.tally.fail("handler %s: status %d", kindNames[k], rec.Code)
					return
				}
			}
		})
		e.rec.end(id)
		e.tally.ok()
		handlerP50[k] = median(durs)
		allocs += float64(with.mallocs-base.mallocs) / reps / float64(numKinds)
		allocBytes += float64(with.bytes-base.bytes) / reps / float64(numKinds)
	}
	l["serve.handler_post_hit_us"] = handlerP50[kindPost] * 1e6
	l["serve.handler_get_us"] = handlerP50[kindGet] * 1e6
	l["serve.handler_304_us"] = handlerP50[kind304] * 1e6
	l["serve.handler_allocs_per_req"] = allocs
	l["serve.handler_bytes_per_req"] = allocBytes
	l["http.loopback_post_us"] = (plain.perKind[kindPost] - handlerP50[kindPost]) * 1e6
	l["http.loopback_get_us"] = (plain.perKind[kindGet] - handlerP50[kindGet]) * 1e6
	l["http.loopback_304_us"] = (plain.perKind[kind304] - handlerP50[kind304]) * 1e6

	// One caller, sequential: the client package's Job() (which
	// revalidates with If-None-Match once it has seen the job) against
	// the same conditional GET over a bare http.Client.
	var buf bytes.Buffer
	timeSeq := func(fn func() error) (float64, error) {
		durs := make([]float64, 0, reps)
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			durs = append(durs, time.Since(t0).Seconds())
		}
		return median(durs), nil
	}
	raw304, err := timeSeq(func() error { return hitRequest(e, hc, n.url, j, kind304, &buf, nil) })
	if err != nil {
		return err
	}
	cl := client.New(n.url)
	ctx := context.Background()
	viaClient, err := timeSeq(func() error {
		op := e.rec.op()
		id := e.rec.begin("client.job", op, -1)
		st, err := cl.Job(ctx, j.id)
		e.rec.end(id)
		if err == nil && st.State != serve.StateDone {
			err = fmt.Errorf("client.Job: state %s", st.State)
		}
		return err
	})
	if err != nil {
		return err
	}
	l["client.overhead_us"] = (viaClient - raw304) * 1e6

	// The same POST hit with and without a sampled trace header, in
	// alternating blocks so drift hits both sides alike.
	hdr := http.Header{obs.HeaderTrace: {obs.NewTraceContext(true).Header()}}
	var off, on []float64
	for block := 0; block < 6; block++ {
		h := http.Header(nil)
		if block&1 == 1 {
			h = hdr
		}
		for i := 0; i < reps/6; i++ {
			t0 := time.Now()
			if err := hitRequest(e, hc, n.url, j, kindPost, &buf, h); err != nil {
				return err
			}
			if h == nil {
				off = append(off, time.Since(t0).Seconds())
			} else {
				on = append(on, time.Since(t0).Seconds())
			}
		}
	}
	l["obs.trace_header_overhead_us"] = (median(on) - median(off)) * 1e6

	var scrapes []float64
	for i := 0; i < 50; i++ {
		_, d, err := scrape(hc, n.url)
		if err != nil {
			return err
		}
		scrapes = append(scrapes, d.Seconds())
	}
	l["obs.metrics_scrape_us"] = median(scrapes) * 1e6
	e.tally.ok()
	return nil
}

type memCount struct{ mallocs, bytes uint64 }

// memDelta runs fn and returns what the process allocated meanwhile.
func memDelta(fn func()) memCount {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return memCount{b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc}
}
