package cluster

import (
	"context"
	"sync"
	"time"
)

// Prober maintains a live view of every peer by polling /v1/peerz on a
// fixed cadence. The view drives two decisions in the serving layer:
// whether /readyz reports degraded, and which peers get the full proxy
// deadline.
//
// Liveness here is advisory, not authoritative: a proxy attempt to a
// "dead" peer is allowed (it may have just come back), and a proxy
// failure to an "alive" peer immediately marks it dead without waiting
// for the next probe round.
type Prober struct {
	peers    []Member
	pc       *PeerClient
	interval time.Duration

	mu    sync.Mutex
	state map[string]PeerView

	// onProbeErr, when set, is invoked once per failed probe (metrics).
	onProbeErr func()

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewProber builds a prober over peers (self excluded) using pc for
// probes. Until the first round completes every peer is presumed alive,
// so a daemon that boots into a healthy cluster never reports a
// degraded window it didn't observe.
func NewProber(peers []Member, pc *PeerClient, interval time.Duration, onProbeErr func()) *Prober {
	state := make(map[string]PeerView, len(peers))
	for _, m := range peers {
		state[m.ID] = PeerView{Alive: true}
	}
	return &Prober{
		peers:      peers,
		pc:         pc,
		interval:   interval,
		state:      state,
		onProbeErr: onProbeErr,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
}

// Start launches the probe loop: one immediate round, then one per
// interval until Stop.
func (p *Prober) Start() {
	go func() {
		defer close(p.done)
		p.probeAll()
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.probeAll()
			}
		}
	}()
}

// Stop halts the probe loop and waits for it to exit.
func (p *Prober) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// probeAll probes every peer concurrently and folds the results into
// the state map. One slow peer must not delay the verdict on the rest.
func (p *Prober) probeAll() {
	var wg sync.WaitGroup
	for _, m := range p.peers {
		wg.Add(1)
		go func(m Member) {
			defer wg.Done()
			_, err := p.pc.Peerz(context.Background(), m)
			if err != nil {
				p.MarkDead(m.ID, err)
				if p.onProbeErr != nil {
					p.onProbeErr()
				}
				return
			}
			p.MarkSeen(m.ID)
		}(m)
	}
	wg.Wait()
}

// MarkSeen records a successful contact with peer id: a probe, or a
// proxied request, so recovery is noticed at traffic speed, not probe
// speed.
func (p *Prober) MarkSeen(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, known := p.state[id]; known {
		p.state[id] = PeerView{Alive: true, LastSeen: time.Now().UTC()}
	}
}

// MarkDead records a failed contact with peer id, preserving LastSeen
// from the previous view so operators can see how stale the peer is.
func (p *Prober) MarkDead(id string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	prev, known := p.state[id]
	if !known {
		return
	}
	msg := "unreachable"
	if err != nil {
		msg = err.Error()
	}
	p.state[id] = PeerView{Alive: false, Error: msg, LastSeen: prev.LastSeen}
}

// Alive reports the current verdict on peer id; unknown IDs are
// presumed alive (optimism is safe — the proxy path handles failure).
func (p *Prober) Alive(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, known := p.state[id]
	return !known || v.Alive
}

// Snapshot returns a copy of the current per-peer view.
func (p *Prober) Snapshot() map[string]PeerView {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]PeerView, len(p.state))
	for id, v := range p.state {
		out[id] = v
	}
	return out
}

// AliveCount returns how many peers are currently considered alive.
func (p *Prober) AliveCount() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, v := range p.state {
		if v.Alive {
			n++
		}
	}
	return n
}

// Degraded reports whether any configured peer is currently
// unreachable.
func (p *Prober) Degraded() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, v := range p.state {
		if !v.Alive {
			return true
		}
	}
	return false
}
