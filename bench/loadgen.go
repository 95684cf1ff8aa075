package main

import (
	"fmt"
	"sync"
	"time"
)

// clients is the fixed load-generator width: this host has 2 CPUs, so
// every closed loop runs 2 client goroutines over 2 connections.
const clients = 2

// tally counts operations attempted and failed across a run and keeps
// the first few failure messages for the report.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	messages  []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if len(t.messages) < 5 {
		t.messages = append(t.messages, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// note records err (nil counts as a success).
func (t *tally) note(err error) {
	if err != nil {
		t.fail("%v", err)
		return
	}
	t.ok()
}

// closedLoop runs `clients` goroutines for d; each sends its next
// operation only once the previous one has completed. op performs and
// checks one operation (tallying it) and returns its kind; every
// operation is timed, failed or not. The samples' end offsets count
// from the loop's start.
func closedLoop(d time.Duration, op func(client, seq int) (kind uint8)) []sample {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; ; seq++ {
				t0 := time.Now()
				if t0.Sub(start) >= d {
					return
				}
				kind := op(c, seq)
				t1 := time.Now()
				per[c] = append(per[c], sample{end: t1.Sub(start).Seconds(), dur: t1.Sub(t0).Seconds(), kind: kind})
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// openLoop sends on a schedule regardless of how the system keeps up:
// operation i is due at t0 + i*interval. launch receives the due time
// — latency is counted from it, so the wait a stall imposes on later
// arrivals is charged to the system — and must not block. The returned
// lateness (seconds per operation, never negative) is how far behind
// its own schedule the generator ran.
type openLoop struct {
	now   func() time.Time
	sleep func(time.Duration)
}

func (o openLoop) run(t0 time.Time, interval time.Duration, n int, launch func(i int, due time.Time)) (late []float64) {
	late = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if wait := due.Sub(o.now()); wait > 0 {
			o.sleep(wait)
		}
		behind := o.now().Sub(due).Seconds()
		if behind < 0 {
			behind = 0
		}
		late = append(late, behind)
		launch(i, due)
	}
	return late
}
