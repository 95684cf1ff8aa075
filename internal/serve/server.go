package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	// CacheEntries bounds the in-memory result cache; <=0 selects 256.
	CacheEntries int
	// CacheDir, when set, receives evicted and drained results as
	// <key>.json files and is consulted on cache misses, so restarts
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
	// TelemetryPoints bounds each job's in-memory telemetry ring; <=0
	// selects obs.DefaultRingPoints. Older points are overwritten (and
	// counted as dropped) once a run outgrows the ring.
	TelemetryPoints int
	// Cluster, when set, joins this daemon to a static peer group:
	// content-addressed job IDs route to their rendezvous-hash owner,
	// non-owners proxy submissions and polls (filling their local cache
	// from peer responses), and a front whose owner dies promotes
	// forwarded jobs into its own journal-backed queue. Nil runs the
	// daemon standalone.
	Cluster *cluster.Config

	// MaxJournalBytes triggers live journal compaction: when the
	// journal file outgrows it, the log is rewritten in place to the
	// minimal equivalent state (one submit record per queued/running
	// job plus aggregated failure counts) without a restart. <=0
	// disables runtime compaction (startup compaction still runs).
	MaxJournalBytes int64
	// DiskLowBytes is the free-disk watermark. Below 2x, the spill
	// directory sheds its oldest entries each check; below 1x, the
	// daemon refuses new durable work with 503 rather than ack 202s
	// whose journal writes are about to hit ENOSPC. <=0 disables disk
	// watermarking.
	DiskLowBytes int64
	// WatermarkInterval is the disk/journal watermark check cadence;
	// <=0 selects 5s.
	WatermarkInterval time.Duration
}

// jobEnc is a done job's memoized terminal wire encoding. The GET body
// and the POST cache-hit body differ only by the "cached":true field,
// so both variants are spans over one shared buffer — get = pre+post,
// hit = pre+ins+post — rather than two full result-sized copies pinned
// in the unbounded jobs table.
type jobEnc struct {
	get [][]byte
	hit [][]byte
}

// buildJobEnc derives the shared-span form from the two fully encoded
// variants: only get's buffer plus the few insertion bytes stay
// resident. Should the bodies ever differ by anything other than a
// single insertion (they cannot — encoding/json emits fields in
// declaration order), it memoizes both outright: correct, just twice
// the bytes.
func buildJobEnc(get, hit []byte) *jobEnc {
	d := len(hit) - len(get)
	i := 0
	for i < len(get) && get[i] == hit[i] {
		i++
	}
	if d <= 0 || !bytes.Equal(hit[i+d:], get[i:]) {
		return &jobEnc{get: [][]byte{get}, hit: [][]byte{hit}}
	}
	ins := append([]byte(nil), hit[i:i+d]...) // copy: don't pin hit's buffer
	pre, post := get[:i:i], get[i:]
	return &jobEnc{get: [][]byte{pre, post}, hit: [][]byte{pre, ins, post}}
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
	// serializes appends, compaction and close itself.
	jl *journal.Journal
	// afterAppend is a test-only hook run after a record is durable,
	// for staging the races that live between an fsync and what follows
	// it. Nil in production.
	afterAppend func(journalRecord)

	// diskCritical flips when free disk falls under DiskLowBytes; the
	// submit path then refuses durable work with 503. diskFree mirrors
	// the last free-bytes sample for /metrics. wmStop ends the
	// watermark loop.
	diskCritical atomic.Bool
	diskFree     atomic.Int64
	wmStop       chan struct{}

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string // job IDs in first-submission order, for listing
	failCount map[string]int
	queue     *jobQueue
	draining  bool
	replaying bool
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

	// cl holds the peer-cluster state (router, prober, peer client,
	// forwarded-job ledger); nil when Options.Cluster is unset.
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
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 256
	}
	if opts.QuarantineAfter <= 0 {
		opts.QuarantineAfter = 3
	}
	if opts.TelemetryPoints <= 0 {
		opts.TelemetryPoints = obs.DefaultRingPoints
	}
	if opts.WatermarkInterval <= 0 {
		opts.WatermarkInterval = 5 * time.Second
	}
	s := &Server{
		opts:      opts,
		mux:       http.NewServeMux(),
		cache:     newResultCache(opts.CacheEntries, opts.CacheDir),
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
		func() int64 { return int64(s.cache.Len()) },
		s.cache.Bytes,
		s.journalStat((*journal.Journal).Size),
		s.journalStat((*journal.Journal).Syncs),
		s.diskFree.Load,
	)
	s.cache.onEvict = func(spilled bool) {
		s.m.cacheEvictions.Add(1)
		if spilled {
			s.m.cacheSpills.Add(1)
		}
	}
	s.cache.onCorrupt = func() { s.m.cacheCorrupt.Add(1) }
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
	s.handler = &obs.Middleware{
		Next:      s.mux,
		Latency:   s.m.httpSeconds,
		Logger:    s.log,
		AccessLog: opts.AccessLog,
	}

	if err := s.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < opts.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	// The watermark loop polices disk headroom and journal growth in the
	// background; it only starts when either knob is set.
	if opts.DiskLowBytes > 0 || opts.MaxJournalBytes > 0 {
		s.wmStop = make(chan struct{})
		go s.watermarkLoop()
	}
	// The cluster joins last: a promoted job feeds intake, so the workers
	// must exist before any peer traffic arrives.
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
// and the log is compacted to the minimal equivalent state, the same
// Compact the size watermark runs.
func (s *Server) recover() error {
	if s.opts.JournalPath == "" {
		return nil
	}
	s.replaying = true
	defer func() { s.replaying = false }()
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
			s.mu.Lock()
			s.synthesizeDoneLocked(sub, data)
			s.mu.Unlock()
			continue
		}
		if sub.combo, sub.spec, err = rec.Combo.resolve(); err != nil {
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
	jl, err := journal.Open(s.opts.JournalPath)
	if err != nil {
		return err
	}
	if err := jl.Compact(s.liveRecords); err != nil {
		jl.Close()
		return err
	}
	s.jl = jl
	return nil
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
	if sub.combo, sub.spec, err = req.Combo.resolve(); err != nil {
		return sub, err
	}
	// Validate the machine the run will build, so a bad shape is a 400
	// here rather than a worker panic or a silently GPU-less run later.
	probe := sub.cfg
	probe.CPUProfiles = sub.combo.CPUAssignment(probe.Cores)
	probe.GPUProfile = sub.combo.GPU
	if _, err := sub.design.Apply(&probe); err != nil {
		return sub, err
	}
	if err := probe.Validate(); err != nil {
		return sub, err
	}
	sub.id = specKey(system.ModelVersion, sub.cfg, sub.design, sub.spec)
	return sub, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job payload: %v", err)
		return
	}
	if s.fastHit(w, body) {
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
	sub.reqID = r.Header.Get(obs.HeaderRequestID)
	s.rememberBody(body, sub.id)
	s.m.submitted.Add(1)

	s.mu.Lock()
	j := s.reusableLocked(sub.id)
	if j == nil {
		if data, ok := s.cache.Get(sub.id); ok {
			// No usable job record (e.g. fresh daemon with a warm spill
			// directory) but the result exists: synthesize a done record.
			j = s.synthesizeDoneLocked(&sub, data)
		}
	}
	s.mu.Unlock()
	if j != nil {
		s.answerExisting(w, j)
		return
	}

	// Unknown here. In a cluster the job belongs to its rendezvous owner:
	// proxy unless this request was itself forwarded (the loop guard) or
	// this daemon is the owner. A false return means every live candidate
	// ranked above this daemon is gone — fail over and accept locally.
	if s.cl != nil && r.Header.Get(cluster.HeaderForwarded) == "" && !s.cl.router.Owns(s.cl.cfg.Self, sub.id) {
		if s.clusterProxySubmit(w, r, body, &sub) {
			return
		}
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
	if enc := s.encodedDone(j, true); enc != nil {
		s.m.cacheHits.Add(1)
		writeRaw(w, http.StatusOK, etagFor(j.id), enc...)
		return
	}
	<-j.durable
	j.mu.Lock()
	ref := j.refused
	j.mu.Unlock()
	if ref != nil {
		s.writeRefusal(w, ref)
		return
	}
	s.m.deduped.Add(1)
	st := j.snapshot()
	st.Deduped = true
	writeJSON(w, http.StatusOK, st)
}

// fastHit answers a POST whose raw body bytes hash to a known completed
// job: the dominant traffic of a warmed-up sweep skips JSON decode and
// config canonicalization entirely and is served from the memoized
// response — the sub-millisecond submit hit path.
func (s *Server) fastHit(w http.ResponseWriter, body []byte) bool {
	s.reqMu.Lock()
	id, ok := s.reqMemo[sha256.Sum256(body)]
	s.reqMu.Unlock()
	if !ok {
		return false
	}
	j := s.lookup(id)
	if j == nil {
		return false
	}
	enc := s.encodedDone(j, true)
	if enc == nil {
		return false
	}
	s.m.submitted.Add(1)
	s.m.cacheHits.Add(1)
	s.m.fastPath.Add(1)
	writeRaw(w, http.StatusOK, etagFor(id), enc...)
	return true
}

// rememberBody memoizes sha256(body) → job ID so an identical
// resubmission takes the fast path. FIFO-bounded at reqMemoMax.
func (s *Server) rememberBody(body []byte, id string) {
	sum := sha256.Sum256(body)
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
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		// In a cluster an unknown ID usually lives on another peer: chase
		// it down the rendezvous ranking (unless this request was itself
		// forwarded — a peer asking means the job should be here).
		if s.cl != nil && r.Header.Get(cluster.HeaderForwarded) == "" {
			s.clusterGet(w, r, r.PathValue("id"))
			return
		}
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	// Hit path: a done job serves its memoized wire bytes in one
	// buffered write, and the content-addressed ID doubles as a free
	// strong validator — a poll that already has the result is a 304.
	if enc := s.encodedDone(j, false); enc != nil {
		etag := etagFor(j.id)
		if etagMatches(r.Header.Get("If-None-Match"), etag) {
			s.m.notModified.Add(1)
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		writeRaw(w, http.StatusOK, etag, enc...)
		return
	}
	// Non-terminal (or done with the result evicted beyond recovery):
	// marshal the live snapshot per request, as before.
	st := j.snapshot()
	if st.State == StateDone && st.Result == nil {
		if data, ok := s.cache.Get(j.id); ok {
			st.Result = data
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// encodedDone returns the job's memoized terminal wire encoding as
// spans to write in order — concatenated, the exact bytes the
// marshal-per-request path produced (json.Marshal of the status plus
// the encoder's trailing newline) — building it on first use. hit
// selects the POST cache-hit variant (Cached=true). Nil when the job
// is not done, or its result bytes are gone from both cache and spill
// (the caller falls back to the slow path).
func (s *Server) encodedDone(j *job, hit bool) [][]byte {
	j.encMu.Lock()
	defer j.encMu.Unlock()
	if j.enc == nil {
		st := j.snapshot()
		if st.State != StateDone {
			return nil
		}
		if st.Result == nil {
			data, ok := s.cache.Get(j.id)
			if !ok {
				return nil
			}
			st.Result = data
		}
		get, err := encodeJSON(st)
		if err != nil {
			return nil
		}
		st.Cached = true
		hitEnc, err := encodeJSON(st)
		if err != nil {
			return nil
		}
		j.enc = buildJobEnc(get, hitEnc)
	}
	if hit {
		return j.enc.hit
	}
	return j.enc.get
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot() // statuses only; results stay in the cache
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
	writeRaw(w, http.StatusOK, "", s.designsJSON)
}

func (s *Server) handleCombos(w http.ResponseWriter, r *http.Request) {
	writeRaw(w, http.StatusOK, "", s.combosJSON)
}

// handleLivez reports process liveness: 200 as long as the handler can
// run at all. A deadlocked or dead process fails the probe by not
// answering, which is the only honest liveness signal.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleReadyz reports whether the daemon is accepting work: false
// (503, with Retry-After) while draining toward shutdown or replaying
// the journal at startup, so load balancers stop routing submissions
// before they start bouncing off 503s from the submit path itself.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining, replaying := s.draining, s.replaying
	s.mu.Unlock()
	if draining || replaying {
		reason := "draining"
		if replaying {
			reason = "replaying journal"
		}
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": reason})
		return
	}
	// Clustered readiness is still 200 with a dead peer — this daemon can
	// serve and fail over — but the degraded flag and per-peer state let
	// orchestrators and operators see the cluster is running short-handed.
	if s.cl != nil {
		peers := s.cl.prober.Snapshot()
		degraded := s.cl.prober.Degraded()
		writeJSON(w, http.StatusOK, map[string]any{
			"ready":    true,
			"degraded": degraded,
			"self":     s.cl.cfg.Self,
			"peers":    peers,
		})
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
// the simulation (or in the observation callbacks) becomes a failed-job
// error carrying the stack, instead of a dead daemon.
func (s *Server) simulate(ctx context.Context, j *job, hooks system.Hooks) (res system.Results, err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("worker panic: %v\n%s", p, debug.Stack())
			panicked = true
		}
	}()
	res, err = system.RunDesignObserved(ctx, j.cfg, j.design, j.combo, hooks)
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
	s.m.queueWaitNanos.Add(wait.Nanoseconds())
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

	lastEpoch := time.Now()
	hooks := system.Hooks{
		OnEpoch: func(system.EpochSample) {
			if _, fired := faultinject.Hit(faultinject.PanicOnEpoch); fired {
				panic("faultinject: panic-on-epoch")
			}
			// Both hooks run on the simulation goroutine, so the
			// epoch-duration bookkeeping needs no lock.
			now := time.Now()
			s.m.epochSeconds.Observe(now.Sub(lastEpoch).Seconds())
			lastEpoch = now
			s.m.epochsStreamed.Add(1)
			j.countEpoch()
		},
		OnTelemetry: j.telem.Append,
	}
	runSpan := obs.StartSpan("run")
	res, err, panicked := s.simulate(ctx, j, hooks)
	runSpan.EndInto(j.trace)
	elapsed := time.Since(j.started)
	s.m.running.Add(-1)
	s.m.simNanos.Add(elapsed.Nanoseconds())
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
			// The cache write precedes the terminal journal record: if
			// the process dies between the two, replay finds the result
			// under the job's content address and synthesizes done
			// instead of re-running.
			cspan := obs.StartSpan("cache.put")
			s.cache.Put(j.id, data)
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
		j.mu.Lock()
		epochs := j.epochs
		j.mu.Unlock()
		s.logj(j.id, "done", "elapsed", elapsed.Round(time.Millisecond), "epochs", epochs)
	}
}

// beginShutdown stops the cluster loops, refuses new work, closes the
// queue (workers keep draining what is already in it) and ends the
// watermark loop. Idempotent.
func (s *Server) beginShutdown() {
	s.stopCluster()
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.queue.Close()
		if s.wmStop != nil {
			close(s.wmStop)
		}
	}
	s.mu.Unlock()
}

// Drain stops accepting submissions, lets queued and running jobs
// finish (canceling whatever is still unfinished when ctx expires),
// waits for the worker pool to exit, and spills the in-memory cache to
// the spill directory. It is the SIGTERM path of cmd/hydroserved and is
// idempotent.
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
	err := s.cache.SpillAll()
	s.closeJournal()
	return err
}

// closeJournal closes the journal; later appends fail without
// writing. Idempotent.
func (s *Server) closeJournal() {
	if s.jl != nil {
		s.jl.Close()
	}
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

// writeRaw serves a pre-encoded JSON body — given as one or more spans
// written in order through the server's buffered writer — with
// Content-Length (and a strong ETag when one applies); no per-request
// marshaling or reassembly.
func writeRaw(w http.ResponseWriter, code int, etag string, body ...[]byte) {
	n := 0
	for _, b := range body {
		n += len(b)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
	w.WriteHeader(code)
	for _, b := range body {
		if _, err := w.Write(b); err != nil {
			return
		}
	}
}

// etagFor is a job's strong entity tag: the content-addressed ID is the
// SHA-256 of the request's canonical form and a done job's encoding
// never changes, so the ID validates the representation for free.
func etagFor(id string) string { return `"` + id + `"` }

// etagMatches reports whether an If-None-Match header matches the given
// strong ETag: "*" or any listed entity tag, comparing weak tags by
// their opaque part (RFC 9110 §8.8.3.2).
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" {
			return true
		}
		if strings.TrimPrefix(part, "W/") == etag {
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
