package serve

import "sync"

// Priority classes. The zero value ("") is interactive: the pre-class
// wire format carried no priority field, so absent means the lane every
// job used to share.
const (
	classInteractive = "interactive"
	classBatch       = "batch"
)

// batchEvery is the batch lane's pop share under contention: while
// interactive work is waiting, batch gets at most one pop in every
// batchEvery — a strict cap (25%) that keeps a saturating sweep from
// starving figure runs, while never starving the sweep outright.
const batchEvery = 4

// laneOf maps a priority class to its lane index.
func laneOf(class string) int {
	if class == classBatch {
		return 1
	}
	return 0
}

// normalizeClass validates a submitted priority string; ok is false for
// anything other than "", "interactive", or "batch".
func normalizeClass(p string) (string, bool) {
	switch p {
	case "", classInteractive:
		return classInteractive, true
	case classBatch:
		return classBatch, true
	}
	return "", false
}

// jobQueue is the two-lane weighted priority queue behind the worker
// pool: lane 0 holds interactive jobs, lane 1 batch. Pop prefers
// interactive; when both lanes hold work, batch receives exactly one of
// every batchEvery pops. Each lane is independently bounded at cap for
// Push — so a batch flood cannot consume the interactive lane's
// admission slots — while ForcePush ignores the cap for work the daemon
// already owes an answer for (journal replays, reclaimed steals).
//
// After Close, Pop keeps draining whatever is queued (mirroring a
// closed buffered channel, which the drain path relied on) and reports
// !ok only once both lanes are empty.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	lanes  [2][]*job
	cap    int
	closed bool
	pops   uint64 // total pops; drives the batch-share rotation
}

func newJobQueue(capacity int) *jobQueue {
	q := &jobQueue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends j to its class lane; false when the lane is at capacity
// or the queue is closed.
func (q *jobQueue) Push(j *job) bool { return q.push(j, false) }

// ForcePush appends j regardless of capacity — for jobs that MUST be
// queued (journal replay, a stolen job reclaimed from a dead thief):
// an accepted job is never dropped because the lane happens to be full.
// Only a closed queue refuses.
func (q *jobQueue) ForcePush(j *job) bool { return q.push(j, true) }

func (q *jobQueue) push(j *job, force bool) bool {
	lane := laneOf(j.class)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || (!force && len(q.lanes[lane]) >= q.cap) {
		return false
	}
	q.lanes[lane] = append(q.lanes[lane], j)
	q.cond.Signal()
	return true
}

// Pop blocks until a job is available or the queue is closed AND empty.
// Policy: interactive first; when both lanes are non-empty the batch
// lane gets one pop in every batchEvery.
func (q *jobQueue) Pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.lanes[0]) == 0 && len(q.lanes[1]) == 0 {
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
	return q.popLocked(), true
}

// TryPop takes one job without blocking — the work-stealing surface.
// It hands out batch work first: interactive jobs are short and about
// to run locally anyway, while batch backlog is what's worth shipping
// to an idle peer.
func (q *jobQueue) TryPop() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.lanes[1]) > 0 {
		return q.takeLocked(1)
	}
	if len(q.lanes[0]) > 0 {
		return q.takeLocked(0)
	}
	return nil
}

// popLocked implements the weighted pop policy; q.mu must be held and
// at least one lane must be non-empty.
func (q *jobQueue) popLocked() *job {
	q.pops++
	lane := 0
	switch {
	case len(q.lanes[0]) == 0:
		lane = 1
	case len(q.lanes[1]) == 0:
		lane = 0
	case q.pops%batchEvery == 0:
		lane = 1 // batch's guaranteed slice under contention
	}
	return q.takeLocked(lane)
}

func (q *jobQueue) takeLocked(lane int) *job {
	j := q.lanes[lane][0]
	q.lanes[lane][0] = nil // release the reference for GC
	q.lanes[lane] = q.lanes[lane][1:]
	return j
}

// Close wakes every blocked Pop; queued jobs continue to drain.
func (q *jobQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Len reports the total queued count across both lanes.
func (q *jobQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.lanes[0]) + len(q.lanes[1])
}

// LaneLen reports one lane's depth.
func (q *jobQueue) LaneLen(lane int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.lanes[lane])
}

// pending snapshots both lanes for the admission projector. The slices
// are copies; the jobs are shared (the projector only reads immutable
// submit-time fields).
func (q *jobQueue) pending() (interactive, batch []*job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	interactive = append([]*job(nil), q.lanes[0]...)
	batch = append([]*job(nil), q.lanes[1]...)
	return interactive, batch
}
