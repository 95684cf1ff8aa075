package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/cluster"
	"github.com/hydrogen-sim/hydrogen/internal/faultinject"
	"github.com/hydrogen-sim/hydrogen/internal/journal"
	"github.com/hydrogen-sim/hydrogen/internal/obs"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// Options configures a Server.
type Options struct {
	// Workers is the simulation worker-pool size; <=0 selects
	// runtime.GOMAXPROCS(0), matching the experiments package's
	// parallel-run default.
	Workers int
	// QueueDepth bounds the job queue; submissions beyond it are
	// rejected with 429 so clients back off instead of piling onto an
	// unbounded backlog. <=0 selects 64.
	QueueDepth int
	// CacheDir, when set, receives every finished result as a
	// <key>.json file, written before the job's terminal journal record,
	// and is consulted on cache misses, so restarts (crashes included)
	// keep the cache warm.
	CacheDir string
	// DefaultConfig is used for requests that omit their config; nil
	// selects system.Quick() (system.Paper() when the request sets
	// paper).
	DefaultConfig *system.Config
	// JournalPath, when set, enables the durable job journal: accepted
	// jobs are recorded (fsynced) before the submitter sees 202, state
	// transitions are appended as they happen, and New replays the file
	// to re-enqueue jobs a crash interrupted. Empty disables
	// durability (jobs die with the process, as before).
	JournalPath string
	// QuarantineAfter is the failure count at which a job ID is
	// quarantined: further submissions are refused with 422 so a
	// pathological config cannot crash-loop the daemon. Failures are
	// counted across restarts via the journal. <=0 selects 3.
	QuarantineAfter int
	// Logger, when set, receives every lifecycle event as a structured
	// record with the job ID attached as an attribute; nil discards.
	Logger *slog.Logger
	// AccessLog enables one structured log record per HTTP request
	// (method, path, status, bytes, duration, request ID) on Logger.
	AccessLog bool
	// Cluster, when set, joins this daemon to a static peer group:
	// content-addressed job IDs route to their rendezvous-hash owner,
	// and a non-owner relays submissions and polls to it, answering 503
	// + Retry-After while the owner cannot be reached. Nil runs the
	// daemon standalone.
	Cluster *cluster.Config
}

// jobEnc is a done job's terminal wire encoding. The GET body
// and the POST cache-hit body differ only by the "cached":true field,
// so both variants are spans over one shared buffer — get = pre+post,
// hit = pre+ins+post — rather than two full result-sized copies pinned
// in the unbounded jobs table. Beside the bodies it keeps the header
// values they are served with, so an answer assigns them instead of
// formatting them per request.
type jobEnc struct {
	get [][]byte
	hit [][]byte

	// etag is the job's strong entity tag: the content-addressed ID is
	// the SHA-256 of the request's canonical form and a done job's
	// encoding never changes, so the ID validates the representation
	// for free. getLen and hitLen are the variants' Content-Length.
	// These slices go into response header maps as they are, shared by
	// every response for the job; no code mutates them.
	etag           []string
	getLen, hitLen []string
}

// jsonType is the Content-Type value of every pre-encoded answer,
// shared like jobEnc's header values and likewise never mutated.
var jsonType = []string{"application/json"}

// buildJobEnc encodes a done job's final status with its result, as
// GET and as POST cache hit, and derives the shared-span form: only
// get's buffer plus the few insertion bytes stay resident. Should the
// bodies ever differ by anything other than a single insertion (they
// cannot — encoding/json emits fields in declaration order), it keeps
// both outright: correct, just twice the bytes.
func buildJobEnc(st JobStatus, result []byte) (*jobEnc, error) {
	st.Result = result
	get, err := encodeJSON(st)
	if err != nil {
		return nil, err
	}
	st.Cached = true
	hit, err := encodeJSON(st)
	if err != nil {
		return nil, err
	}
	enc := &jobEnc{
		get:    [][]byte{get},
		hit:    [][]byte{hit},
		etag:   []string{`"` + st.ID + `"`},
		getLen: []string{strconv.Itoa(len(get))},
		hitLen: []string{strconv.Itoa(len(hit))},
	}
	d := len(hit) - len(get)
	i := 0
	for i < len(get) && get[i] == hit[i] {
		i++
	}
	if d > 0 && bytes.Equal(hit[i+d:], get[i:]) {
		ins := append([]byte(nil), hit[i:i+d]...) // copy: don't pin hit's buffer
		pre, post := get[:i:i], get[i:]
		enc.get, enc.hit = [][]byte{pre, post}, [][]byte{pre, ins, post}
	}
	return enc, nil
}

// write serves the encoding's GET or, with hit, its POST cache-hit
// variant: 200 with the pre-built headers under their canonical keys,
// then the spans in order through the server's buffered writer.
func (e *jobEnc) write(w http.ResponseWriter, hit bool) {
	body, n := e.get, e.getLen
	if hit {
		body, n = e.hit, e.hitLen
	}
	h := w.Header()
	h["Content-Type"] = jsonType
	h["Content-Length"] = n
	h["Etag"] = e.etag
	w.WriteHeader(http.StatusOK)
	for _, b := range body {
		if _, err := w.Write(b); err != nil {
			return
		}
	}
}

// Server implements the serving API over http.Handler.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the request middleware
	cache   *resultCache
	m       *metrics
	log     *slog.Logger

	// jl is the journal, nil when durability is off. recover sets it
	// before any goroutine starts and nothing reassigns it; the journal
	// serializes appends and close itself.
	jl *journal.Journal
	// afterAppend is a test-only hook run after a record is durable,
	// for staging the races that live between an fsync and what follows
	// it. Nil in production.
	afterAppend func(journalRecord)

	mu        sync.Mutex
	jobs      map[string]*job
	minted    uint64 // jobs minted so far; the last one's job.seq
	failCount map[string]int
	queue     *jobQueue
	draining  bool
	workers   sync.WaitGroup

	// reqMemo maps sha256(raw POST body) → job ID: a resubmission whose
	// body bytes were seen before skips JSON decode and config
	// canonicalization entirely and goes straight to the memoized hit
	// response. Bounded FIFO; reqOrder/reqPos implement the eviction ring.
	reqMu    sync.Mutex
	reqMemo  map[[sha256.Size]byte]string
	reqOrder [][sha256.Size]byte
	reqPos   int

	// Pre-encoded bodies of the static listing endpoints, computed once
	// at startup — the design and combo tables cannot change at runtime.
	designsJSON []byte
	combosJSON  []byte

	// cl holds the peer-cluster state (router, peer client, relay
	// counters); nil when Options.Cluster is unset.
	cl *clusterState
}

// reqMemoMax bounds the body-hash memo; 4096 distinct request bodies
// cover any realistic sweep's working set at 32 bytes a key.
const reqMemoMax = 4096

// New builds a Server, replays its journal (when configured), and
// starts the worker pool. A replay error — an unreadable journal or a
// failed compaction — is returned rather than silently dropping the
// durable queue on the floor.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.QuarantineAfter <= 0 {
		opts.QuarantineAfter = 3
	}
	s := &Server{
		opts:      opts,
		mux:       http.NewServeMux(),
		jobs:      make(map[string]*job),
		failCount: make(map[string]int),
		queue:     newJobQueue(opts.QueueDepth),
		reqMemo:   make(map[[sha256.Size]byte]string),
	}
	var err error
	if s.designsJSON, err = encodeJSON(system.Designs()); err != nil {
		return nil, err
	}
	comboIDs := make([]string, len(workloads.Combos))
	for i, c := range workloads.Combos {
		comboIDs[i] = c.ID
	}
	if s.combosJSON, err = encodeJSON(comboIDs); err != nil {
		return nil, err
	}
	s.log = opts.Logger
	if s.log == nil {
		s.log = obs.Discard()
	}
	s.m = newMetrics(
		s.journalStat((*journal.Journal).Size),
		s.journalStat((*journal.Journal).Syncs),
	)
	s.cache = newResultCache(opts.CacheDir, s.m.cacheSpills, s.m.cacheCorrupt)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/telemetry", s.handleTelemetry)
	s.mux.HandleFunc("GET /v1/designs", s.handleDesigns)
	s.mux.HandleFunc("GET /v1/combos", s.handleCombos)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	mw := &obs.Middleware{Next: s.mux, Latency: s.m.httpSeconds}
	if opts.AccessLog {
		mw.Logger = s.log
	}
	s.handler = mw

	if err := s.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < opts.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	if opts.Cluster != nil {
		if err := s.initCluster(opts.Cluster); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// journalStat adapts a journal accessor into a scrape-time metric
// source that reads zero while no journal is attached.
func (s *Server) journalStat(read func(*journal.Journal) int64) func() int64 {
	return func() int64 {
		if s.jl == nil {
			return 0
		}
		return read(s.jl)
	}
}

// recover is the replay entry to the lifecycle: it reads the journal at
// Options.JournalPath and hands every job that was queued or running
// when the previous process died back to intake (unless its result
// already reached the cache — the content-addressed ID makes replay
// idempotent — or its ID is quarantined). Failure counts are restored,
// and the log is rewritten to the minimal equivalent state before it is
// opened for appends: the only time the journal shrinks.
func (s *Server) recover() error {
	if s.opts.JournalPath == "" {
		return nil
	}
	replayed, fails, torn, err := replayJournal(s.opts.JournalPath)
	if err != nil {
		return err
	}
	if torn {
		s.logf("journal: torn tail detected (crash mid-append); discarding it")
	}
	s.failCount = fails
	for _, r := range replayed {
		rec := r.submit
		design, err := system.ParseDesign(rec.Design, rec.Hydrogen)
		if err != nil {
			s.logj(rec.ID, "not replayed", "err", err)
			continue
		}
		sub := &submission{
			id: rec.ID, cfg: *rec.Config, design: design, spec: *rec.Combo,
			timeout: time.Duration(rec.Timeout), replayed: true,
		}
		if data, ok := s.cache.Get(rec.ID); ok {
			// The crash landed between the result reaching the cache
			// and the terminal record reaching the journal: the work is
			// done, so synthesize the finished job instead of re-running.
			s.synthesizeDone(sub, data)
			continue
		}
		if sub.spec, err = rec.Combo.resolve(); err != nil {
			s.logj(rec.ID, "not replayed", "err", err)
			continue
		}
		j, _, ref := s.intake(sub)
		if ref != nil {
			s.logj(rec.ID, "not replayed", "err", ref)
			continue
		}
		s.m.replayed.Add(1)
		s.logj(j.id, "re-enqueued from journal", "design", j.design.String(), "combo", j.spec.ID)
	}
	live, err := s.liveRecords()
	if err != nil {
		return err
	}
	if err := journal.Rewrite(s.opts.JournalPath, live); err != nil {
		return err
	}
	s.jl, err = journal.Open(s.opts.JournalPath)
	return err
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// logf logs a daemon-level message that has no job to correlate with.
func (s *Server) logf(format string, args ...any) {
	s.log.Info(fmt.Sprintf(format, args...))
}

// logj records one job lifecycle event as a structured record carrying
// the (short) job ID as an attribute.
func (s *Server) logj(id, event string, attrs ...any) {
	s.log.Info(event, append([]any{"job", short(id)}, attrs...)...)
}

// resolveRequest turns a JobRequest into the runnable core of a
// submission — config, design, combo, timeout — plus its cache key.
func (s *Server) resolveRequest(req *JobRequest) (submission, error) {
	sub := submission{timeout: time.Duration(req.Timeout)}
	switch {
	case req.Config != nil:
		sub.cfg = *req.Config
	case s.opts.DefaultConfig != nil:
		sub.cfg = *s.opts.DefaultConfig
	case req.Paper:
		sub.cfg = system.Paper()
	default:
		sub.cfg = system.Quick()
	}
	if req.Cycles > 0 {
		sub.cfg.Cycles = req.Cycles
	}
	if req.Seed != 0 {
		sub.cfg.Seed = req.Seed
	}
	if req.Design == "" {
		return sub, fmt.Errorf("missing design")
	}
	var err error
	if sub.design, err = system.ParseDesign(req.Design, req.Hydrogen); err != nil {
		return sub, err
	}
	if sub.spec, err = req.Combo.resolve(); err != nil {
		return sub, err
	}
	// Validate the machine the run will build, so a bad shape is a 400
	// here rather than a worker panic or a silently GPU-less run later.
	probe := sub.cfg
	probe.CPUProfiles = workloads.Combo(sub.spec).CPUAssignment(probe.Cores)
	probe.GPUProfile = sub.spec.GPU
	if _, err := sub.design.Apply(&probe); err != nil {
		return sub, err
	}
	if err := probe.Validate(); err != nil {
		return sub, err
	}
	sub.id = system.ContentAddress(system.ModelVersion, sub.cfg, sub.design, workloads.Combo(sub.spec))
	return sub, nil
}

// maxSubmitBody bounds a POST /v1/jobs body. The largest real request,
// a Paper() config with a 12-core inline combo, is about 1.3 KB.
const maxSubmitBody = 1 << 20

// submitBufs recycles the buffers submit bodies are read into, so a
// resubmission answered by the fast path reads its body without
// allocating. A buffer that grew past maxPooledBody is left to the
// garbage collector rather than pinned in the pool.
var submitBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	buf := submitBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "job payload over %d bytes", maxSubmitBody)
			return
		}
		httpError(w, http.StatusBadRequest, "bad job payload: %v", err)
		return
	}
	body := buf.Bytes()
	sum := sha256.Sum256(body)
	if s.fastHit(w, sum) {
		// Only the fast hit is done with the bytes here. Every other
		// path still decodes them, and the relay to an owner hands them
		// to a transport that may read them after the call returns, so
		// those paths leave the buffer to the garbage collector.
		if buf.Cap() <= maxPooledBody {
			submitBufs.Put(buf)
		}
		return
	}
	var req JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad job payload: %v", err)
		return
	}
	if req.Timeout < 0 {
		httpError(w, http.StatusBadRequest, "bad job payload: negative timeout")
		return
	}
	sub, err := s.resolveRequest(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job payload: %v", err)
		return
	}
	sub.reqID = w.Header().Get(obs.HeaderRequestID)
	s.rememberBody(sum, sub.id)
	s.m.submitted.Add(1)

	s.mu.Lock()
	j := s.reusableLocked(sub.id)
	s.mu.Unlock()
	if j == nil {
		if data, ok := s.cache.Get(sub.id); ok {
			// No usable job record (e.g. fresh daemon with a warm spill
			// directory) but the result exists: synthesize a done record.
			j = s.synthesizeDone(&sub, data)
		}
	}
	if j != nil {
		s.answerExisting(w, j)
		return
	}

	// Unknown here. In a cluster a job another member owns is relayed
	// to that owner, never accepted here.
	if owner, ok := s.relayOwner(r, sub.id); ok {
		s.relaySubmit(w, r, owner, body, &sub)
		return
	}
	s.acceptLocal(w, &sub)
}

// acceptLocal is the local-submit entry to the lifecycle: hand the
// submission to intake and translate the outcome into the 202, the
// dedup/hit answer, or the refusal's status.
func (s *Server) acceptLocal(w http.ResponseWriter, sub *submission) {
	j, fresh, ref := s.intake(sub)
	switch {
	case ref != nil:
		s.writeRefusal(w, ref)
	case !fresh:
		s.answerExisting(w, j)
	default:
		s.m.cacheMisses.Add(1)
		s.logj(j.id, "queued", "design", j.design.String(), "combo", j.spec.ID)
		writeJSON(w, http.StatusAccepted, j.snapshot())
	}
}

// writeRefusal answers a submission intake turned away: 422 for a
// quarantined ID, 429 + Retry-After: 1 for a full queue, 503 +
// Retry-After for everything transient.
func (s *Server) writeRefusal(w http.ResponseWriter, ref *refusal) {
	s.m.rejected.Add(1)
	code, retry := http.StatusServiceUnavailable, "5"
	switch ref.kind {
	case refusedQuarantined:
		code, retry = http.StatusUnprocessableEntity, ""
	case refusedQueueFull:
		code, retry = http.StatusTooManyRequests, "1"
	}
	if retry != "" {
		w.Header().Set("Retry-After", retry)
	}
	httpError(w, code, "%s", ref.Error())
}

// answerExisting answers a submission that found a record already
// standing for its ID: the memoized cache-hit body when the job is done,
// otherwise a singleflight attach — answered only once the primary
// submission's durability barrier resolves, so the dedup ack carries
// the same guarantee as the original 202, and a primary that intake
// abandoned yields the refusal the primary saw.
func (s *Server) answerExisting(w http.ResponseWriter, j *job) {
	<-j.durable // a done job is past its barrier: no wait
	j.mu.Lock()
	ref := j.refused
	j.mu.Unlock()
	if ref != nil {
		s.writeRefusal(w, ref)
		return
	}
	enc, st := j.answer()
	if enc != nil {
		s.m.cacheHits.Add(1)
		enc.write(w, true)
		return
	}
	s.m.deduped.Add(1)
	st.Deduped = true
	writeJSON(w, http.StatusOK, st)
}

// fastHit answers a POST whose raw body bytes hash (sum) to a known
// completed job: the dominant traffic of a warmed-up sweep skips JSON
// decode and config canonicalization entirely and is served from the
// memoized response — the sub-millisecond submit hit path.
func (s *Server) fastHit(w http.ResponseWriter, sum [sha256.Size]byte) bool {
	s.reqMu.Lock()
	id, ok := s.reqMemo[sum]
	s.reqMu.Unlock()
	if !ok {
		return false
	}
	j := s.lookup(id)
	if j == nil {
		return false
	}
	enc, _ := j.answer()
	if enc == nil {
		return false
	}
	s.m.submitted.Add(1)
	s.m.cacheHits.Add(1)
	s.m.fastPath.Add(1)
	enc.write(w, true)
	return true
}

// rememberBody memoizes a body's sha256 sum → job ID so an identical
// resubmission takes the fast path. FIFO-bounded at reqMemoMax.
func (s *Server) rememberBody(sum [sha256.Size]byte, id string) {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	if _, ok := s.reqMemo[sum]; ok {
		return // same bytes hash to the same key; nothing to update
	}
	if len(s.reqOrder) < reqMemoMax {
		s.reqOrder = append(s.reqOrder, sum)
	} else {
		delete(s.reqMemo, s.reqOrder[s.reqPos])
		s.reqOrder[s.reqPos] = sum
		s.reqPos = (s.reqPos + 1) % reqMemoMax
	}
	s.reqMemo[sum] = id
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookup(id)
	if j == nil {
		// In a cluster an unknown ID is relayed to its owner.
		if owner, ok := s.relayOwner(r, id); ok {
			s.relayGet(w, r, owner, id)
			return
		}
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	s.serveJob(w, r, j)
}

// serveJob answers a poll of j. Hit path: a done job serves its encoded
// wire bytes in one buffered write, and the content-addressed ID
// doubles as a free strong validator — a poll that already has the
// result is a 304.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, j *job) {
	enc, st := j.answer()
	if enc != nil {
		if etagMatches(r.Header.Get("If-None-Match"), enc.etag[0]) {
			s.m.notModified.Add(1)
			w.Header()["Etag"] = enc.etag
			w.WriteHeader(http.StatusNotModified)
			return
		}
		enc.write(w, false)
		return
	}
	// Not done yet: marshal the live status per request.
	writeJSON(w, http.StatusOK, st)
}

// handleList serves every job's status, without results, in mint order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	switch st := s.cancelJob(j, "canceled while queued"); st {
	case StateQueued:
		// The worker will skip it when it reaches the head of the queue.
		s.logj(j.id, "canceled while queued")
	case StateRunning:
		s.logj(j.id, "cancel requested")
	default:
		httpError(w, http.StatusConflict, "job already %s", st)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleDesigns and handleCombos serve bodies pre-encoded at startup:
// both tables are process-constant, so re-marshaling them per request
// bought nothing.
func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request) {
	writeRaw(w, http.StatusOK, s.designsJSON)
}

func (s *Server) handleCombos(w http.ResponseWriter, r *http.Request) {
	writeRaw(w, http.StatusOK, s.combosJSON)
}

// handleLivez reports process liveness: 200 as long as the handler can
// run at all. A deadlocked or dead process fails the probe by not
// answering, which is the only honest liveness signal.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleReadyz reports whether the daemon is accepting work: false
// (503, with Retry-After) while draining toward shutdown, so load
// balancers stop routing submissions before they start bouncing off
// 503s from the submit path itself. Journal replay finishes inside New,
// before the handler can be reached.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.m.write(w)
}

// worker pops jobs until the queue is closed by Drain and drained. A
// second recover barrier around the whole loop body means even a bug in
// the server's own bookkeeping cannot take the pool down.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					s.m.panics.Add(1)
					s.logj(j.id, "worker bookkeeping panic recovered", "panic", p)
				}
			}()
			s.runJob(j)
		}()
	}
}

// simulate runs the job behind a recover barrier: a panic anywhere in
// the simulation (or in its epoch observer) becomes a failed-job
// error carrying the stack, instead of a dead daemon.
func (s *Server) simulate(ctx context.Context, j *job, observe func(obs.EpochPoint)) (res system.Results, err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("worker panic: %v\n%s", p, debug.Stack())
			panicked = true
		}
	}()
	res, err = system.RunDesignObserved(ctx, j.cfg, j.design, workloads.Combo(j.spec), observe)
	return res, err, false
}

func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while waiting
		j.mu.Unlock()
		return
	}
	// The per-job timeout is measured from start and lands at the next
	// epoch boundary via the same context plumbing as cancellation.
	var ctx context.Context
	var cancel context.CancelFunc
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), j.timeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	wait := j.started.Sub(j.submitted)
	j.mu.Unlock()
	defer cancel()
	s.m.queued.Add(-1)
	s.m.running.Add(1)
	s.m.queueWaitSeconds.Observe(wait.Seconds())
	j.trace.AddInterval("queue", j.submitted, wait)
	s.logj(j.id, "running", "queue_wait", wait.Round(time.Millisecond))
	jspan := obs.StartSpan("journal.start")
	err := s.appendRecord(journalRecord{Type: recStart, ID: j.id})
	jspan.EndInto(j.trace)
	if err != nil {
		// Non-fatal: without the start record the job replays as
		// still-queued, which recovers identically.
		s.logj(j.id, "journal start failed", "err", err)
	}
	if ms, fired := faultinject.Hit(faultinject.SlowWorker); fired {
		if ms <= 0 {
			ms = 100
		}
		time.Sleep(time.Duration(ms) * time.Millisecond)
	}

	// The observer runs on the simulation goroutine, so the
	// epoch-duration bookkeeping needs no lock.
	lastEpoch := time.Now()
	observe := func(p obs.EpochPoint) {
		if _, fired := faultinject.Hit(faultinject.PanicOnEpoch); fired {
			panic("faultinject: panic-on-epoch")
		}
		now := time.Now()
		s.m.epochSeconds.Observe(now.Sub(lastEpoch).Seconds())
		lastEpoch = now
		j.telem.Append(p)
	}
	runSpan := obs.StartSpan("run")
	res, err, panicked := s.simulate(ctx, j, observe)
	runSpan.EndInto(j.trace)
	elapsed := time.Since(j.started)
	s.m.running.Add(-1)
	s.m.jobSeconds.Observe(elapsed.Seconds())

	var state, errMsg string
	var result []byte
	switch {
	case panicked:
		state, errMsg = StateFailed, err.Error()
		s.m.panics.Add(1)
		s.logj(j.id, "worker panic recovered", "err", firstLine(errMsg))
	case err == nil:
		data, merr := json.Marshal(res)
		if merr != nil {
			state, errMsg = StateFailed, "marshal results: "+merr.Error()
			s.logj(j.id, "failed", "err", errMsg)
		} else {
			// The write-through precedes the terminal journal record: if
			// the process dies between the two, or any time after, replay
			// finds the result under the job's content address and
			// synthesizes done instead of re-running. A failed write only
			// costs that: the job still ends done, served from memory.
			cspan := obs.StartSpan("cache.put")
			if err := s.cache.Put(j.id, data); err != nil {
				s.logj(j.id, "cache write-through failed", "err", err)
			}
			cspan.EndInto(j.trace)
			state, result = StateDone, data
			s.m.simCycles.Add(int64(res.Cycles))
		}
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		state = StateDeadline
		errMsg = fmt.Sprintf("deadline exceeded: ran %s of a %s budget", elapsed.Round(time.Millisecond), j.timeout)
		s.logj(j.id, "deadline exceeded", "budget", j.timeout)
	case ctx.Err() != nil:
		state, errMsg = StateCanceled, "canceled"
		s.logj(j.id, "canceled", "elapsed", elapsed.Round(time.Millisecond))
	default:
		state, errMsg = StateFailed, err.Error()
		s.logj(j.id, "failed", "err", err)
	}
	s.terminate(j, StateRunning, state, errMsg, result)
	if state == StateDone {
		s.logj(j.id, "done", "elapsed", elapsed.Round(time.Millisecond), "epochs", j.epochs())
	}
}

// beginShutdown refuses new work and closes the queue (workers keep
// draining what is already in it). Idempotent.
func (s *Server) beginShutdown() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.queue.Close()
	}
	s.mu.Unlock()
}

// Drain stops accepting submissions, lets queued and running jobs
// finish (canceling whatever is still unfinished when ctx expires),
// waits for the worker pool to exit, and closes the journal, returning
// the close error. Finished results are already in the spill directory.
// It is the SIGTERM path of cmd/hydroserved.
func (s *Server) Drain(ctx context.Context) error {
	s.beginShutdown()
	idle := make(chan struct{})
	go func() { s.workers.Wait(); close(idle) }()
	select {
	case <-idle:
	case <-ctx.Done():
		s.cancelAll()
		<-idle // cancellation lands at the next epoch boundary
	}
	return s.closeJournal()
}

// closeJournal closes the journal; later appends fail without
// writing. A second close returns the file's already-closed error and
// changes nothing.
func (s *Server) closeJournal() error {
	if s.jl == nil {
		return nil
	}
	return s.jl.Close()
}

// Close force-cancels everything and waits for the workers; for tests
// and defer-style cleanup.
func (s *Server) Close() error {
	s.beginShutdown()
	s.cancelAll()
	s.workers.Wait()
	s.closeJournal()
	return nil
}

// cancelAll cancels every unfinished job. Queued ones are journaled as
// canceled so a restart does not resurrect jobs the shutdown already
// reported as canceled; running ones write their own terminal records
// as their contexts land.
func (s *Server) cancelAll() {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		s.cancelJob(j, msgShutdown)
	}
}

// Stats used by tests: how many simulations actually ran (every
// non-deduped, non-cached submission costs exactly one).
func (s *Server) SimulationsStarted() int64 { return s.m.enqueued.Load() }

// ReplayedJobs reports how many jobs the startup journal replay
// re-enqueued — the daemon logs it, and chaos tests assert on it.
func (s *Server) ReplayedJobs() int64 { return s.m.replayed.Load() }

// TelemetrySnapshot is the GET /v1/jobs/{id}/telemetry JSON payload: the
// job's retained telemetry points plus how many older ones the bounded
// ring overwrote.
type TelemetrySnapshot struct {
	ID      string           `json:"id"`
	State   string           `json:"state"`
	Dropped uint64           `json:"dropped"`
	Points  []obs.EpochPoint `json:"points"`
}

// handleTelemetry serves a job's epoch telemetry: a JSON snapshot of
// the ring, or with ?format=csv the same points in the CSV format
// `hydroexp -telemetry DIR` writes. Progress is read by polling it.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		_ = obs.WriteCSV(w, j.telem.Snapshot())
		return
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, TelemetrySnapshot{
		ID:      j.id,
		State:   state,
		Dropped: j.telem.Dropped(),
		Points:  j.telem.Snapshot(),
	})
}

// --- small helpers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// encodeJSON renders v exactly as writeJSON puts it on the wire:
// json.Marshal plus the json.Encoder trailing newline. The byte-identity
// tests pin pre-encoded responses to this equivalence.
func encodeJSON(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// writeRaw serves a pre-encoded JSON body with its Content-Length; no
// per-request marshaling.
func writeRaw(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// etagMatches reports whether an If-None-Match header matches the given
// strong ETag: "*" or any listed entity tag, comparing weak tags by
// their opaque part (RFC 9110 §8.8.3.2). It walks the comma list in
// place.
func etagMatches(header, etag string) bool {
	for header != "" {
		var part string
		part, header, _ = strings.Cut(header, ",")
		part = strings.TrimSpace(part)
		if part == "*" || strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// firstLine trims a multi-line message (a panic with its stack) to its
// first line for log output; the full text stays on the job record.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
