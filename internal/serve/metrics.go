package serve

import (
	"io"

	"github.com/hydrogen-sim/hydrogen/internal/obs"
)

// metrics are the daemon's counters, gauges, and histograms, registered
// on an obs.Registry and rendered in Prometheus text format by
// /metrics. Updates are plain atomics; the registry snapshots every
// series in one pass before rendering, so a scrape observes one
// coherent instant rather than values read piecemeal while fmt I/O
// interleaves with updates.
type metrics struct {
	reg *obs.Registry

	submitted *obs.Counter // POST /v1/jobs accepted (incl. hits/dedups)
	enqueued  *obs.Counter // jobs that entered the queue
	completed *obs.Counter
	failed    *obs.Counter
	canceled  *obs.Counter
	deadlined *obs.Counter // jobs stopped by their own timeout
	deduped   *obs.Counter // submissions coalesced onto in-flight jobs
	rejected  *obs.Counter // queue-full, draining, or quarantine rejections
	replayed  *obs.Counter // jobs re-enqueued from the journal at startup

	panics      *obs.Counter // worker panics recovered into failed jobs
	quarantined *obs.Counter // job IDs quarantined after repeated failures

	journalAppends *obs.Counter
	journalErrors  *obs.Counter

	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	cacheSpills  *obs.Counter // results written through to the spill directory
	cacheCorrupt *obs.Counter // corrupt spill files rejected (and removed)

	notModified *obs.Counter // conditional GETs answered 304 Not Modified
	fastPath    *obs.Counter // submits served via the body-hash fast path

	queued  *obs.Gauge
	running *obs.Gauge

	simCycles *obs.Counter // simulated cycles completed

	jobSeconds       *obs.Histogram // wall time per finished job
	queueWaitSeconds *obs.Histogram // queue wait per started job
	epochSeconds     *obs.Histogram // wall time between epoch samples
	httpSeconds      *obs.Histogram // HTTP request latency
	jobLatency       *obs.Histogram // submit to terminal state, per job
}

// newMetrics builds the daemon's registry. The function arguments feed
// scrape-time series for state owned elsewhere (journal file length and
// fsync count).
func newMetrics(journalBytes, journalSyncs func() int64) *metrics {
	r := obs.NewRegistry()
	m := &metrics{reg: r}
	m.submitted = r.Counter("hydroserved_jobs_submitted_total", "Job submissions accepted.")
	m.enqueued = r.Counter("hydroserved_jobs_enqueued_total", "Jobs that entered the run queue.")
	m.completed = r.Counter("hydroserved_jobs_completed_total", "Jobs finished successfully.")
	m.failed = r.Counter("hydroserved_jobs_failed_total", "Jobs that ended in error.")
	m.canceled = r.Counter("hydroserved_jobs_canceled_total", "Jobs canceled by clients or shutdown.")
	m.deadlined = r.Counter("hydroserved_jobs_deadline_exceeded_total", "Jobs stopped by their per-job timeout.")
	m.deduped = r.Counter("hydroserved_jobs_deduped_total", "Submissions coalesced onto identical in-flight jobs.")
	m.rejected = r.Counter("hydroserved_jobs_rejected_total", "Submissions rejected (queue full, draining, or quarantined).")
	m.replayed = r.Counter("hydroserved_jobs_replayed_total", "Jobs re-enqueued from the journal at startup.")
	m.panics = r.Counter("hydroserved_worker_panics_total", "Worker panics recovered into failed jobs.")
	m.quarantined = r.Counter("hydroserved_jobs_quarantined_total", "Job IDs quarantined after repeated failures.")
	m.journalAppends = r.Counter("hydroserved_journal_appends_total", "Journal records made durable.")
	m.journalErrors = r.Counter("hydroserved_journal_errors_total", "Journal append failures.")
	m.cacheHits = r.Counter("hydroserved_cache_hits_total", "Submissions answered from the result cache.")
	m.cacheMisses = r.Counter("hydroserved_cache_misses_total", "Submissions that required a simulation.")
	m.cacheSpills = r.Counter("hydroserved_cache_spills_total", "Finished results written through to the spill directory.")
	m.cacheCorrupt = r.Counter("hydroserved_cache_corrupt_total", "Corrupt spill files rejected and removed.")
	m.notModified = r.Counter("hydroserved_http_not_modified_total", "Conditional requests answered 304 Not Modified.")
	m.fastPath = r.Counter("hydroserved_submit_fastpath_total", "Submissions served from the body-hash fast path without JSON decode.")
	r.GaugeFunc("hydroserved_journal_bytes", "Length of the job journal file.", journalBytes)
	// One fsync per append, so this equals
	// hydroserved_journal_appends_total. It remains only because the
	// repository benchmark (bench/cold.go) still divides by it for
	// journal.appends_per_sync; it goes when that metric does.
	r.CounterFunc("hydroserved_journal_syncs_total", "Journal fsyncs, one per durable append.", journalSyncs)
	m.queued = r.Gauge("hydroserved_jobs_queued", "Jobs waiting in the queue.")
	m.running = r.Gauge("hydroserved_jobs_running", "Jobs currently simulating.")
	m.simCycles = r.Counter("hydroserved_sim_cycles_total", "Simulated cycles completed.")
	// Cache hit ratio in millionths, so scrapers need no float parsing.
	r.GaugeFunc("hydroserved_cache_hit_ratio_ppm", "Cache hit ratio in parts per million.", func() int64 {
		hits := m.cacheHits.Load()
		total := hits + m.cacheMisses.Load()
		if total == 0 {
			return 0
		}
		return hits * 1_000_000 / total
	})
	m.jobSeconds = r.Histogram("hydroserved_job_seconds",
		"Wall-clock duration of finished jobs.", obs.DurationBuckets)
	// Derived throughput gauge: simulated cycles per wall second spent
	// running jobs.
	r.GaugeFunc("hydroserved_sim_cycles_per_second", "Aggregate simulation throughput.", func() int64 {
		secs := m.jobSeconds.Sum()
		if secs <= 0 {
			return 0
		}
		return int64(float64(m.simCycles.Load()) / secs)
	})
	m.queueWaitSeconds = r.Histogram("hydroserved_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up.", obs.DurationBuckets)
	m.epochSeconds = r.Histogram("hydroserved_epoch_seconds",
		"Wall-clock duration of simulation epochs.", obs.DurationBuckets)
	m.httpSeconds = r.Histogram("hydroserved_http_request_seconds",
		"HTTP request handling latency.", obs.DurationBuckets)
	m.jobLatency = r.Histogram("hydroserved_job_latency_seconds",
		"End-to-end latency (submit to terminal) of jobs.", obs.DurationBuckets)
	return m
}

// write renders the Prometheus text exposition format.
func (m *metrics) write(w io.Writer) error { return m.reg.WritePrometheus(w) }
