package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/chash"
	"github.com/hydrogen-sim/hydrogen/internal/cluster"
	"github.com/hydrogen-sim/hydrogen/internal/serve"
)

// tier is three in-process daemons joined into one peer group, and
// the done jobs preloaded at their rendezvous owners.
type tier struct {
	ids   []string
	nodes []*node
	jobs  []doneJob
	owner []int // owner[j]: index of the member that owns jobs[j]
}

func (t *tier) close() {
	for _, n := range t.nodes {
		n.close()
	}
}

// bootTier reserves the listeners first — every member needs the full
// URL list before it starts — then preloads each job at its owner, so
// no other member has ever seen or forwarded it.
func bootTier(e *env, hc *http.Client, reqs []serve.JobRequest, tag string) (*tier, error) {
	const members = 3
	t := &tier{}
	listeners := make([]*httptest.Server, members)
	ms := make([]cluster.Member, members)
	for i := range listeners {
		listeners[i] = httptest.NewUnstartedServer(http.NotFoundHandler())
		t.ids = append(t.ids, fmt.Sprintf("n%d", i))
		ms[i] = cluster.Member{ID: t.ids[i], URL: "http://" + listeners[i].Listener.Addr().String()}
	}
	for i := range listeners {
		srv, err := serve.New(serve.Options{
			Workers:     1,
			QueueDepth:  2 * len(reqs),
			JournalPath: filepath.Join(e.dir, fmt.Sprintf("tier-%s-%d.journal", tag, i)),
			Cluster: &cluster.Config{
				Self:          t.ids[i],
				Members:       append([]cluster.Member(nil), ms...),
				StealInterval: -1, // stealing off: jobs stay where they were submitted
			},
		})
		if err != nil {
			for _, l := range listeners[i:] {
				l.Close()
			}
			t.close()
			return nil, err
		}
		listeners[i].Config.Handler = srv
		listeners[i].Start()
		t.nodes = append(t.nodes, &node{srv: srv, ts: listeners[i], url: ms[i].URL})
	}

	byOwner := make([][]int, members)
	t.owner = make([]int, len(reqs))
	for j, req := range reqs {
		key, err := jobKey(req)
		if err != nil {
			t.close()
			return nil, err
		}
		id, _ := chash.OwnerString(key, t.ids)
		for i := range t.ids {
			if t.ids[i] == id {
				t.owner[j] = i
				byOwner[i] = append(byOwner[i], j)
			}
		}
	}
	t.jobs = make([]doneJob, len(reqs))
	for i, idx := range byOwner {
		sub := make([]serve.JobRequest, len(idx))
		for k, j := range idx {
			sub[k] = reqs[j]
		}
		done, err := preload(e, hc, t.nodes[i].url, sub)
		if err != nil {
			t.close()
			return nil, err
		}
		for k, j := range idx {
			t.jobs[j] = done[k]
		}
	}
	return t, nil
}

func runClusterProxy(e *env) error {
	const preloaded = 32
	e.params["members"], e.params["workers_per_member"], e.params["jobs"] = 3, 1, preloaded
	e.params["job_cycles"], e.params["mix"], e.params["warmup_s"] = jobCycles, "get:304 = 1:1, always via a non-owner", warmup.Seconds()
	reqs := make([]serve.JobRequest, preloaded)
	for i := range reqs {
		reqs[i] = jobRequest(e.seed, i)
	}
	hc := newHTTPClient(2 * clients)
	setups := 0
	t, err := setupMedian(e, 3, func() (*tier, error) {
		setups++
		return bootTier(e, hc, reqs, fmt.Sprint(setups))
	}, (*tier).close)
	if err != nil {
		return err
	}
	defer t.close()

	// Every request goes to one of the job's two non-owners, in turn:
	// the front finds no local record, ranks the members and relays the
	// owner's answer. The reference ETag and bytes are the owner's own,
	// so hitRequest's comparison is front-equals-owner.
	viaFront := func(idx, j int) string {
		return t.nodes[(t.owner[j]+1+(idx/len(t.jobs))%2)%len(t.nodes)].url
	}
	direct := func(_, j int) string { return t.nodes[t.owner[j]].url }
	kinds := []uint8{kindGet, kind304}

	hitLoad(e, &tally{}, hc, warmup, t.jobs, kinds, viaFront)
	before, err := t.scrapeAll(hc)
	if err != nil {
		return err
	}
	plain := hitLoad(e, &e.tally, hc, e.measureFor(1), t.jobs, kinds, viaFront)
	plain.intoE2E(e, "proxied requests")
	if !e.traced {
		return nil
	}

	e.rec = newRecorder()
	traced := hitLoad(e, &e.tally, hc, e.measureFor(1), t.jobs, kinds, viaFront)
	after, err := t.scrapeAll(hc)
	if err != nil {
		return err
	}
	l := e.layer
	l["bench.trace_overhead_pct"] = 100 * (plain.win.rate - traced.win.rate) / plain.win.rate
	delta := promDelta(before, after)
	l["cluster.proxied_gets"] = delta["hydro_cluster_proxied_gets_total"]
	l["cluster.failovers"] = delta["hydro_cluster_failovers_total"]
	l["cluster.breaker_short_circuits"] = delta["hydro_cluster_breaker_short_circuits_total"]
	if got, want := delta["hydro_cluster_proxied_gets_total"], float64(len(plain.samples)+len(traced.samples)); got != want {
		e.tally.fail("members proxied %v GETs for %v requests: not every request was a peer hop", got, want)
	} else {
		e.tally.ok()
	}

	// The same keys and kinds straight at the owners: the difference is
	// the hop.
	own := hitLoad(e, &e.tally, hc, time.Second, t.jobs, kinds, direct)
	l["cluster.hop_us"] = (plain.win.p50 - own.win.p50) * 1e6
	e.note("cluster.hop_us: via a non-owner p50 %.1f us, owner-direct p50 %.1f us", plain.win.p50*1e6, own.win.p50*1e6)

	router := cluster.NewRouter(t.members())
	l["cluster.rank_ns"] = timeKernel(e, "cluster.rank", kernelOps, func() {
		for i := 0; i < kernelOps; i++ {
			kernelSink += uint64(len(router.Rank(t.jobs[i%len(t.jobs)].id)))
		}
	})
	l["chash.owner_ns"] = timeKernel(e, "chash.owner", kernelOps, func() {
		for i := 0; i < kernelOps; i++ {
			id, _ := chash.OwnerString(t.jobs[i%len(t.jobs)].id, t.ids)
			kernelSink += uint64(len(id))
		}
	})
	return nil
}

func (t *tier) members() []cluster.Member {
	ms := make([]cluster.Member, len(t.nodes))
	for i, n := range t.nodes {
		ms[i] = cluster.Member{ID: t.ids[i], URL: n.url}
	}
	return ms
}

// scrapeAll sums every member's /metrics.
func (t *tier) scrapeAll(hc *http.Client) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, n := range t.nodes {
		m, _, err := scrape(hc, n.url)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}
