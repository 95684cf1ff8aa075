package serve

// Adaptive admission control: the contention-aware discipline the
// simulator applies to HBM bandwidth, applied to the daemon's own
// queue. A fixed-depth queue answers "is there room?"; admission
// answers the question the caller actually has — "will my job finish
// in time?" — using two signals:
//
//   - A cost model: an EWMA of observed seconds-per-simulated-cycle,
//     keyed by config family (design|combo), fed by every completed
//     job. Family estimates fall back to a global EWMA for families
//     the daemon has not run yet, and to zero (no opinion) on a cold
//     daemon — admission never rejects on a guess it has no data for.
//   - A CoDel-style queue-delay window: when the measured queue wait of
//     starting jobs stays above the target for a full interval, the
//     queue is standing, not bursting, and batch work is shed until it
//     drains. This catches overload even when the cost model is cold.
//
// Shedding rules, applied at submit (shedSubmission, called by
// acceptLocal):
//
//   - Any job whose projected completion (projected queue wait + its
//     own estimated cost) lands past its propagated deadline is shed:
//     running it would burn a worker on an answer nobody will read.
//   - Batch jobs are shed while the queue-delay window is overloaded,
//     or when their projected wait alone exceeds the CoDel target.
//     Interactive jobs are never CoDel-shed — bounding THEIR latency
//     is the point — they are only turned away by lane capacity or an
//     unmeetable deadline.
//
// Every rejection carries an honest Retry-After derived from the
// projected wait, so a paced client converges on the real drain rate
// instead of hot-retrying against a wall.

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/faultinject"
)

// costEWMAAlpha weights the newest observation: high enough to track a
// config change within a few jobs, low enough that one noisy run does
// not whipsaw the estimate.
const costEWMAAlpha = 0.3

// codelInterval floors the standing-queue confirmation window: the
// queue wait must stay above target for max(target, codelInterval)
// before batch shedding starts, so one slow pop is not "overload".
const codelInterval = 100 * time.Millisecond

// admission is the server's admission-control state. All methods are
// safe for concurrent use.
type admission struct {
	target time.Duration // CoDel queue-delay target; 0 disables overload shedding

	mu       sync.Mutex
	byFamily map[string]float64 // EWMA seconds per simulated cycle
	global   float64            // same, across every family
	above    time.Time          // since when queue waits have exceeded target; zero = below
}

func newAdmission(target time.Duration) *admission {
	return &admission{target: target, byFamily: make(map[string]float64)}
}

// familyKey groups jobs that cost alike: same design, same workload
// combo. Cycle count then scales the estimate within the family.
func familyKey(design, comboID string) string { return design + "|" + comboID }

// observe feeds one completed job into the cost model.
func (a *admission) observe(design, comboID string, cycles uint64, elapsed time.Duration) {
	if cycles == 0 || elapsed <= 0 {
		return
	}
	rate := elapsed.Seconds() / float64(cycles)
	key := familyKey(design, comboID)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.byFamily[key] = ewma(a.byFamily[key], rate)
	a.global = ewma(a.global, rate)
}

func ewma(prev, sample float64) float64 {
	if prev == 0 {
		return sample
	}
	return (1-costEWMAAlpha)*prev + costEWMAAlpha*sample
}

// estimate projects one job's simulation cost; zero when the model has
// no data at all (cold daemon), in which case admission stays open.
func (a *admission) estimate(design, comboID string, cycles uint64) time.Duration {
	a.mu.Lock()
	rate, ok := a.byFamily[familyKey(design, comboID)]
	if !ok || rate == 0 {
		rate = a.global
	}
	a.mu.Unlock()
	if rate == 0 || cycles == 0 {
		return 0
	}
	return time.Duration(rate * float64(cycles) * float64(time.Second))
}

// noteWait feeds the measured queue wait of a starting job into the
// CoDel window: waits above target arm it, one wait below disarms it.
func (a *admission) noteWait(wait time.Duration, now time.Time) {
	if a.target <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if wait <= a.target {
		a.above = time.Time{}
		return
	}
	if a.above.IsZero() {
		a.above = now
	}
}

// overloaded reports whether queue waits have exceeded the target for a
// full confirmation interval — a standing queue, not a burst.
func (a *admission) overloaded(now time.Time) bool {
	if a.target <= 0 {
		return false
	}
	interval := a.target
	if interval < codelInterval {
		interval = codelInterval
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return !a.above.IsZero() && now.Sub(a.above) >= interval
}

// projectedWait estimates how long a newly admitted job of the given
// class would sit queued: the summed cost estimates of the work popped
// ahead of it, divided by the worker pool. Interactive jobs wait only
// behind the interactive lane (batch is capped to a 1/batchEvery
// share, folded in as its fractional slice); batch jobs wait behind
// everything. Running jobs' residual time is not modeled — the
// projection is a floor, which is the safe direction for shedding.
func (s *Server) projectedWait(class string) time.Duration {
	interactive, batch := s.queue.pending()
	var ic, bc float64
	for _, j := range interactive {
		ic += s.adm.estimate(j.design, j.spec.ID, j.cfg.Cycles).Seconds()
	}
	for _, j := range batch {
		bc += s.adm.estimate(j.design, j.spec.ID, j.cfg.Cycles).Seconds()
	}
	var ahead float64
	if laneOf(class) == 0 {
		// Batch steals at most one pop in batchEvery while interactive
		// waits, so only that fraction of the batch backlog can get ahead.
		ahead = ic + bc/float64(batchEvery)
		if frac := ic / float64(batchEvery-1); bc > frac {
			// ...and never more than interleaving with the whole
			// interactive lane allows.
			ahead = ic + frac
		}
	} else {
		ahead = ic + bc
	}
	workers := float64(s.opts.Workers)
	if workers < 1 {
		workers = 1
	}
	return time.Duration(ahead / workers * float64(time.Second))
}

// shedSubmission applies the shedding rules to a submission intake
// would otherwise accept, and answers it when it is shed: 429, an
// honest Retry-After derived from the projected wait, and the
// shed-cause counter bumped alongside the aggregate.
func (s *Server) shedSubmission(w http.ResponseWriter, sub *submission) bool {
	now := time.Now()
	wait := s.projectedWait(sub.class)
	est := s.adm.estimate(sub.design, sub.spec.ID, sub.cfg.Cycles)
	cause, msg := s.m.shedOverload, ""
	if _, fired := faultinject.Hit(faultinject.AdmissionShed); fired {
		msg = "admission: shed by failpoint"
	} else if !sub.deadline.IsZero() && now.Add(wait+est).After(sub.deadline) {
		// On a cold cost model wait and est are both zero, so this arm
		// only fires for a deadline already in the past — admission
		// never sheds on a guess it has no data for.
		cause = s.m.shedDeadline
		msg = fmt.Sprintf("admission: projected completion in %s exceeds deadline in %s",
			(wait + est).Round(time.Millisecond), time.Until(sub.deadline).Round(time.Millisecond))
	} else if sub.class == classBatch && s.adm.target > 0 && (s.adm.overloaded(now) || wait > s.adm.target) {
		msg = fmt.Sprintf("admission: queue overloaded (projected wait %s, target %s); batch work shed",
			wait.Round(time.Millisecond), s.adm.target)
	} else {
		return false
	}
	s.m.rejected.Add(1)
	s.m.shedTotal.Add(1)
	cause.Add(1)
	w.Header().Set("Retry-After", retryAfterSecs(wait))
	httpError(w, http.StatusTooManyRequests, "%s", msg)
	return true
}

// parseDeadlineHeader decodes X-Hydro-Deadline: the remaining budget in
// milliseconds, converted to an absolute deadline on arrival. An absent
// or unparseable header means no deadline; a zero or negative budget is
// already expired (deadline = now), so admission sheds it honestly.
func parseDeadlineHeader(v string) time.Time {
	if v == "" {
		return time.Time{}
	}
	ms, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil {
		return time.Time{}
	}
	if ms <= 0 {
		return time.Now()
	}
	return time.Now().Add(time.Duration(ms) * time.Millisecond)
}

// retryAfterSecs renders a projected wait as an honest Retry-After:
// whole seconds, rounded up, floored at 1 (the protocol minimum that
// still means "back off").
func retryAfterSecs(wait time.Duration) string {
	secs := int64(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 3600 {
		secs = 3600 // an hour of honesty is enough; beyond it, re-probe
	}
	return strconv.FormatInt(secs, 10)
}
