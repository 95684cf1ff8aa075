package serve

import "sync"

// jobQueue is the bounded FIFO run queue behind the worker pool. Push
// refuses at cap — the submit path turns that into a 429 — while
// ForcePush ignores the cap for work the daemon already owes an answer
// for (journal replays).
//
// After Close, Pop keeps draining whatever is queued (mirroring a
// closed buffered channel, which the drain path relied on) and reports
// !ok only once the queue is empty.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*job
	cap    int
	closed bool
}

func newJobQueue(capacity int) *jobQueue {
	q := &jobQueue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends j; false when the queue is at capacity or closed.
func (q *jobQueue) Push(j *job) bool { return q.push(j, false) }

// ForcePush appends j regardless of capacity — for jobs that MUST be
// queued (journal replay): an accepted job is never dropped because
// the queue happens to be full. Only a closed queue refuses.
func (q *jobQueue) ForcePush(j *job) bool { return q.push(j, true) }

func (q *jobQueue) push(j *job, force bool) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || (!force && len(q.jobs) >= q.cap) {
		return false
	}
	q.jobs = append(q.jobs, j)
	q.cond.Signal()
	return true
}

// Pop blocks until a job is available or the queue is closed AND empty,
// and takes the oldest job.
func (q *jobQueue) Pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.jobs) == 0 {
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
	j := q.jobs[0]
	q.jobs[0] = nil // release the reference for GC
	q.jobs = q.jobs[1:]
	return j, true
}

// Close wakes every blocked Pop; queued jobs continue to drain.
func (q *jobQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Len reports the queued count.
func (q *jobQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}
