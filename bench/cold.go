package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/journal"
	"github.com/hydrogen-sim/hydrogen/internal/serve"
)

// coldRate is the open-loop arrival rate in jobs per second. One job
// is ~25 ms of one worker, so two workers run at roughly a quarter of
// capacity: queueing is rare and latency is the write path's own.
const coldRate = 20

// coldShareOpen is the part of -seconds spent in the open-loop phase;
// the rest is the closed-loop capacity phase.
const coldShareOpen = 0.6

// coldBatch is how many jobs a closed-loop client submits before it
// waits for them.
const coldBatch = 4

// lateLimit is how far behind its schedule the open-loop generator may
// run (at the tail percentile) before the phase is measured again: past
// it, the generator and not the daemon shaped the arrivals.
const lateLimit = 5 * time.Millisecond

// coldAttempts bounds how often a run measures before it reports the
// best phase it has, with a warning.
const coldAttempts = 3

// coldJob is what one submitted job reported.
type coldJob struct {
	due, sent, ack time.Time
	st             serve.JobStatus
	err            error
}

// coldPhase is one open-loop plus one closed-loop phase.
type coldPhase struct {
	open       []coldJob
	late       []float64 // generator lateness per arrival, seconds
	closedJobs int
	closedSecs float64
	allocKB    float64 // per job, both phases
	cpuUS      float64 // per job, both phases
}

func runServeCold(e *env) error {
	e.params["workers"], e.params["job_cycles"] = 2, jobCycles
	e.params["open_loop_jobs_per_s"], e.params["open_share"] = coldRate, coldShareOpen
	// Open-loop jobs overlap, so the pool is wider than the closed
	// loop's two connections.
	hc := newHTTPClient(32)

	next := 0 // every job of the run is distinct: index into the seed's job set
	body := func() []byte {
		b, _ := json.Marshal(jobRequest(e.seed, next))
		next++
		return b
	}

	setups := 0
	n, err := setupMedian(e, 3, func() (*node, error) {
		setups++
		n, err := bootNode(serve.Options{
			Workers:     2,
			JournalPath: filepath.Join(e.dir, fmt.Sprintf("cold-%d.journal", setups)),
		})
		if err != nil {
			return nil, err
		}
		// Eight jobs through the whole write path, so lazy set-up (first
		// journal batch, connection pool, worker start) is behind us.
		for i := 0; i < 8; i++ {
			if _, _, err := submitAndWait(e, hc, n.url, body(), 2*time.Millisecond, 0, -1); err != nil {
				n.close()
				return nil, err
			}
		}
		return n, nil
	}, (*node).close)
	if err != nil {
		return err
	}
	defer n.close()

	before, _, err := scrape(hc, n.url)
	if err != nil {
		return err
	}
	// A phase whose generator fell behind its schedule measured the
	// host's stall, not the daemon: measure again, at most coldAttempts
	// times, and keep the phase that kept its schedule best. Lateness is
	// read at the percentile the arrival count supports, like every other
	// tail here: one short host stall delays a handful of arrivals (and
	// the daemon with them, which the due-time latencies already charge);
	// a generator that cannot keep its schedule is late on far more than
	// ten.
	var plain coldPhase
	var late, latePct float64
	for attempt := 1; ; attempt++ {
		ph := coldMeasure(e, hc, n.url, body)
		l, pct := ph.lateness()
		if attempt == 1 || l < late {
			plain, late, latePct = ph, l, pct
		}
		if late <= lateLimit.Seconds() {
			break
		}
		if attempt == coldAttempts {
			e.note("WARNING: open-loop generator ran %.2f ms or more behind its schedule at p%.3g (limit %v) in each of %d attempts: the host, not the daemon, shaped these latencies; do not compare them",
				late*1e3, latePct, lateLimit, coldAttempts)
			break
		}
		e.note("attempt %d: open-loop generator ran %.2f ms behind its schedule at p%.3g (limit %v); measuring again", attempt, l*1e3, pct, lateLimit)
	}
	doneS, ackS := plain.latencies()
	if len(doneS) == 0 || plain.closedJobs == 0 {
		return fmt.Errorf("no job completed: %v", e.tally.messages)
	}
	pct, ok := tailPercentile(len(doneS), 99)
	if !ok {
		return fmt.Errorf("only %d open-loop jobs: too few for a tail percentile", len(doneS))
	}
	e.e2e["work_per_s"] = float64(plain.closedJobs) / plain.closedSecs
	e.e2e["lat_p50_us"] = percentile(doneS, 50) * 1e6
	e.e2e["lat_tail_us"] = percentile(doneS, pct) * 1e6
	e.e2e["alloc_kb_per_op"] = plain.allocKB
	e.e2e["cpu_us_per_op"] = plain.cpuUS
	e.note("work_per_s: jobs done per second, closed loop of %d-job batches, %d jobs in %.2f s", coldBatch, plain.closedJobs, plain.closedSecs)
	e.note("lat_p50_us/lat_tail_us: due time to finished_at, open loop at %d jobs/s; p50 and p%.3g of %d jobs", coldRate, pct, len(doneS))
	e.note("bench.gen_late_tail_us: %.1f at p%.3g of %d arrivals, worst %.1f", late*1e6, latePct, len(plain.late), percentile(sortedCopy(plain.late), 100)*1e6)
	if !e.traced {
		return nil
	}

	e.rec = newRecorder()
	traced := coldMeasure(e, hc, n.url, body)
	after, _, err := scrape(hc, n.url)
	if err != nil {
		return err
	}
	tracedDone, _ := traced.latencies()
	l := e.layer
	l["bench.gen_late_tail_us"] = late * 1e6
	l["bench.trace_overhead_pct"] = 100 * (percentile(tracedDone, 50) - percentile(doneS, 50)) / percentile(doneS, 50)

	// Where a job's time went, from the timestamps and spans its final
	// status carries (both phases' open-loop jobs).
	var queue, run, cachePut, jStart, jTerm []float64
	for _, j := range append(plain.open, traced.open...) {
		if j.err != nil {
			continue
		}
		queue = append(queue, j.st.StartedAt.Sub(j.st.SubmittedAt).Seconds())
		run = append(run, j.st.FinishedAt.Sub(j.st.StartedAt).Seconds())
		for _, s := range j.st.Spans {
			switch s.Name {
			case "cache.put":
				cachePut = append(cachePut, s.Duration.Seconds())
			case "journal.start":
				jStart = append(jStart, s.Duration.Seconds())
			case "journal.terminal":
				jTerm = append(jTerm, s.Duration.Seconds())
			}
		}
	}
	ack := percentile(ackS, 50)
	l["serve.ack_p50_us"] = ack * 1e6
	l["serve.queue_wait_ms"] = median(queue) * 1e3
	l["serve.run_ms"] = median(run) * 1e3
	l["serve.cache_put_us"] = median(cachePut) * 1e6
	l["journal.start_us"] = median(jStart) * 1e6
	l["journal.terminal_us"] = median(jTerm) * 1e6
	// The status has no span for the submit record's own append; the
	// start record is the same journal, a similar size, in situ.
	l["serve.decode_admit_us"] = (ack - median(jStart)) * 1e6

	delta := promDelta(before, after)
	l["journal.appends_per_sync"] = ratio(delta["hydroserved_journal_appends_total"], delta["hydroserved_journal_syncs_total"])
	l["serve.shed"] = delta["hydroserved_admission_shed_total"]
	l["serve.deduped"] = delta["hydroserved_jobs_deduped_total"]
	return journalKernels(e)
}

// coldMeasure runs the two phases. Every open-loop job is its own
// goroutine: submit, then poll until done. With a recorder set, each
// job's spans — the benchmark's own around submit, plus the ones the
// daemon already returns in the status — hang under one root that
// runs from the due time to finished_at.
func coldMeasure(e *env, hc *http.Client, url string, body func() []byte) coldPhase {
	var ph coldPhase
	m := startMeter()
	n := int(e.measureFor(coldShareOpen).Seconds() * coldRate)
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = body()
	}
	ph.open = make([]coldJob, n)
	var wg sync.WaitGroup
	gen := openLoop{now: time.Now, sleep: time.Sleep}
	ph.late = gen.run(time.Now().Add(10*time.Millisecond), time.Second/coldRate, n, func(i int, due time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := &ph.open[i]
			j.due, j.sent = due, time.Now()
			op := e.rec.op()
			root := e.rec.beginAt("job", op, -1, due)
			j.ack, j.st, j.err = submitAndWait(e, hc, url, bodies[i], 3*time.Millisecond, op, root)
			e.tally.note(j.err)
			if j.err != nil {
				e.rec.end(root)
				return
			}
			e.rec.endAt(root, j.st.FinishedAt)
			for _, s := range j.st.Spans {
				name := s.Name
				switch name {
				case "queue":
					name = "serve.queue_wait"
				case "run":
					name = "serve.run"
				}
				e.rec.endAt(e.rec.beginAt(name, op, root, s.Start), s.Start.Add(s.Duration))
			}
		}()
	})
	wg.Wait()

	// Capacity: two clients, each a sweep driver that submits a batch
	// of new jobs, waits for all of them, and only then submits the
	// next batch. Up to eight jobs are outstanding, so both workers
	// stay busy and the rate is the daemon's, not the poll interval's.
	var mu sync.Mutex
	d := e.measureFor(1 - coldShareOpen)
	t0 := time.Now()
	batches := closedLoop(d, func(c, seq int) uint8 {
		mu.Lock()
		var bodies [coldBatch][]byte
		for i := range bodies {
			bodies[i] = body()
		}
		mu.Unlock()
		op := e.rec.op()
		root := e.rec.begin("batch.closed", op, -1)
		defer e.rec.end(root)
		var ids [coldBatch]string
		for i, b := range bodies {
			_, st, err := submit(e, hc, url, b, op, root)
			if err != nil {
				e.tally.note(err)
				continue
			}
			ids[i] = st.ID
		}
		for _, id := range ids {
			if id == "" {
				continue
			}
			_, err := waitDone(e, hc, url, id, 2*time.Millisecond, op, root)
			e.tally.note(err)
		}
		return 0
	})
	ph.closedSecs = time.Since(t0).Seconds()
	ph.closedJobs = coldBatch * len(batches)
	ph.allocKB, ph.cpuUS = m.perOp(len(ph.open) + ph.closedJobs)
	return ph
}

// lateness is how far behind its schedule the generator ran, in
// seconds, at the highest percentile the arrival count supports.
func (ph coldPhase) lateness() (late, pct float64) {
	pct, _ = tailPercentile(len(ph.late), 99)
	return percentile(sortedCopy(ph.late), pct), pct
}

// latencies returns the open-loop phase's sorted completion latencies
// (due time → finished_at) and ack latencies (POST sent → 202), in
// seconds, over the jobs that succeeded.
func (ph coldPhase) latencies() (done, ack []float64) {
	for _, j := range ph.open {
		if j.err != nil {
			continue
		}
		done = append(done, j.st.FinishedAt.Sub(j.due).Seconds())
		ack = append(ack, j.ack.Sub(j.sent).Seconds())
	}
	return sortedCopy(done), sortedCopy(ack)
}

// journalKernels times the journal alone: durable appends of a
// job-record-sized payload with and without group commit, and replay.
func journalKernels(e *env) error {
	l := e.layer
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	appendKernel := func(name string, open func(string) (*journal.Journal, error), appenders, each int) (float64, error) {
		j, err := open(filepath.Join(e.dir, name+".wal"))
		if err != nil {
			return 0, err
		}
		defer j.Close()
		errs := make(chan error, appenders)
		var wg sync.WaitGroup
		op := e.rec.op()
		id := e.rec.begin("journal."+name+".kernel", op, -1)
		t0 := time.Now()
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < each; k++ {
					if err := j.Append(payload); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		d := time.Since(t0)
		e.rec.end(id)
		select {
		case err := <-errs:
			return 0, err
		default:
		}
		return d.Seconds() * 1e6 / float64(appenders*each), nil
	}
	var err error
	if l["journal.append_us_group"], err = appendKernel("group", journal.Open, clients, 150); err != nil {
		return err
	}
	if l["journal.append_us_serial"], err = appendKernel("serial", journal.OpenUnbatched, clients, 150); err != nil {
		return err
	}

	const records = 10_000
	recs := make([][]byte, records)
	for i := range recs {
		recs[i] = payload
	}
	path := filepath.Join(e.dir, "replay.wal")
	if err := journal.Rewrite(path, recs); err != nil {
		return err
	}
	defer os.Remove(path)
	seen := 0
	op := e.rec.op()
	id := e.rec.begin("journal.replay.kernel", op, -1)
	t0 := time.Now()
	_, _, err = journal.Replay(path, func([]byte) error { seen++; return nil })
	d := time.Since(t0)
	e.rec.end(id)
	if err != nil {
		return err
	}
	if seen != records {
		e.tally.fail("journal replay saw %d of %d records", seen, records)
	} else {
		e.tally.ok()
	}
	l["journal.replay_ms_per_10k"] = d.Seconds() * 1e3
	return nil
}
