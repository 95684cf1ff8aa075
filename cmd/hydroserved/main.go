// Command hydroserved is the simulation-as-a-service daemon: it exposes
// the simulator over an HTTP/JSON API with a bounded job queue, a
// worker pool, a content-addressed result cache with singleflight
// dedupe, per-epoch telemetry snapshots, and Prometheus-text metrics.
//
// Usage:
//
//	hydroserved [flags]
//
// Examples:
//
//	hydroserved                               # listen on :8077
//	hydroserved -addr 127.0.0.1:0             # random port (printed)
//	hydroserved -cache-dir /var/tmp/hydro     # persistent warm cache
//	hydroserved -journal /var/tmp/hydro/jobs.wal \
//	            -cache-dir /var/tmp/hydro     # crash-safe job queue
//	hydroserved -access-log -log-json         # structured request logs
//	hydroserved -debug-addr 127.0.0.1:6060    # pprof + runtime metrics
//	hydroserved -self a -journal a.wal \
//	            -peers a=http://h1:8077,b=http://h2:8077,c=http://h3:8077
//	                                          # one member of a 3-node cluster
//
//	curl -s localhost:8077/v1/jobs -d '{"design":"Hydrogen","combo":"C1"}'
//	curl -s localhost:8077/v1/jobs/<id>
//	curl -s  localhost:8077/v1/jobs/<id>/telemetry?format=csv
//	curl -s  localhost:8077/metrics
//
// On SIGINT/SIGTERM the daemon stops accepting jobs (503 with
// Retry-After; /readyz goes unready), drains queued and running work
// (up to -drain-timeout, then cancels), spills the result cache to
// -cache-dir, and exits 0. A second signal kills it the default way.
//
// With -journal set, every accepted job is fsynced to an append-only
// CRC-framed log, one write and fsync per record, before the submitter
// sees 202: after a crash (kill -9, OOM) the restarted daemon replays
// the log, re-enqueues the jobs that were queued or running, and
// compacts it. Job IDs are
// content addresses, so replayed work that already reached the result
// cache is not re-run. A job that keeps failing (e.g. a config that
// panics the simulator) is quarantined after -quarantine failures
// instead of crash-looping the daemon.
//
// With -peers set (a static "id=url,..." member list including this
// daemon, named by -self), N daemons form one deduplicating simulation
// tier: content-addressed job IDs route to a rendezvous-hash owner,
// non-owners proxy submissions and polls to it and fill their local
// caches from peer responses (a hit anywhere is a hit everywhere, with
// identical result bytes and ETag), a job runs only on its owner, and
// when a member dies mid-job the daemon that forwarded the submission
// promotes it into its own journal-backed queue. Any member can answer
// any request.
//
// A request's X-Request-ID (client-minted, or minted here) rides every
// proxy and failover hop, so one grep over the members' access
// logs (-access-log) follows it; a job's status lists its timing spans
// (queue, journal, run, cache put).
//
// Exit codes: 0 clean drain, 1 runtime error (bind failure, journal
// replay failure), 2 flag error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/cluster"
	"github.com/hydrogen-sim/hydrogen/internal/obs"
	"github.com/hydrogen-sim/hydrogen/internal/serve"
	"github.com/hydrogen-sim/hydrogen/internal/system"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the SIGTERM drain path
// is testable in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hydroserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8077", "listen address (use :0 for a random port)")
		workers      = fs.Int("workers", 0, "simulation workers; 0 = GOMAXPROCS")
		queueDepth   = fs.Int("queue", 64, "job queue depth; submissions beyond it get 429")
		cacheEntries = fs.Int("cache", 256, "in-memory result cache entries")
		cacheDir     = fs.String("cache-dir", "", "spill directory for evicted/drained results (optional)")
		journalPath  = fs.String("journal", "", "durable job journal file; enables crash-safe replay of queued/running jobs (optional)")
		quarantine   = fs.Int("quarantine", 3, "failures after which a job ID is quarantined")
		paper        = fs.Bool("paper", false, "default jobs to the full Table I scale instead of quick")
		drainTO      = fs.Duration("drain-timeout", 10*time.Minute, "max time to let jobs finish on shutdown before canceling")
		quiet        = fs.Bool("q", false, "suppress per-job logging")
		logJSON      = fs.Bool("log-json", false, "emit structured logs as JSON instead of text")
		accessLog    = fs.Bool("access-log", false, "log one structured line per HTTP request")
		debugAddr    = fs.String("debug-addr", "", "separate listener for /debug/pprof and /debug/runtimez (e.g. 127.0.0.1:6060); empty disables")
		telemPoints  = fs.Int("telemetry-points", 0, "per-job telemetry ring size; 0 = default")
		peers        = fs.String("peers", "", `static cluster member list as "id=url,id=url,..." including this daemon; empty runs standalone`)
		self         = fs.String("self", "", "this daemon's member ID within -peers (required with -peers)")
		peerProbe    = fs.Duration("peer-probe", 2*time.Second, "peer health probe interval")
		maxJournal   = fs.Int64("max-journal-bytes", 0, "compact the journal in place once it grows past this many bytes (0 disables)")
		diskLow      = fs.Int64("disk-low-watermark", 0, "free-bytes floor on the journal/cache filesystem: below 2x prune spills, below 1x reject durable submits with 503 (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	debug.SetGCPercent(800)

	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "hydroserved: %v\n", err)
			return 1
		}
	}
	if *journalPath != "" {
		if err := os.MkdirAll(filepath.Dir(*journalPath), 0o755); err != nil {
			fmt.Fprintf(stderr, "hydroserved: %v\n", err)
			return 1
		}
	}
	logger := log.New(stderr, "hydroserved: ", log.LstdFlags)
	opts := serve.Options{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CacheEntries:    *cacheEntries,
		CacheDir:        *cacheDir,
		JournalPath:     *journalPath,
		QuarantineAfter: *quarantine,
		AccessLog:       *accessLog,
		TelemetryPoints: *telemPoints,
		MaxJournalBytes: *maxJournal,
		DiskLowBytes:    *diskLow,
	}
	if *paper {
		cfg := system.Paper()
		opts.DefaultConfig = &cfg
	}
	if *peers != "" {
		ccfg, err := cluster.ParsePeers(*peers, *self)
		if err != nil {
			fmt.Fprintf(stderr, "hydroserved: %v\n", err)
			return 2
		}
		ccfg.ProbeInterval = *peerProbe
		opts.Cluster = ccfg
	} else if *self != "" {
		fmt.Fprintf(stderr, "hydroserved: -self requires -peers\n")
		return 2
	}
	if !*quiet {
		// Lifecycle events go out as structured records (text or JSON).
		opts.Logger = obs.NewLogger(stderr, *logJSON, slog.LevelInfo)
	}
	srv, err := serve.New(opts)
	if err != nil {
		fmt.Fprintf(stderr, "hydroserved: %v\n", err)
		return 1
	}
	if n := srv.ReplayedJobs(); n > 0 {
		logger.Printf("journal replay re-enqueued %d interrupted job(s)", n)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "hydroserved: %v\n", err)
		return 1
	}
	// The parseable listen line is the contract TestSIGTERMDrainsRunningJobs
	// and TestSIGKILLReplay read the address from; keep its format stable.
	fmt.Fprintf(stdout, "hydroserved: listening on %s\n", ln.Addr())

	if *debugAddr != "" {
		// pprof and runtime metrics live on their own listener: profiles
		// expose internals and profiling costs CPU, so the serving port
		// never carries them.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "hydroserved: debug listener: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "hydroserved: debug listening on %s\n", dln.Addr())
		dbg := &http.Server{Handler: obs.DebugMux()}
		go func() {
			if err := dbg.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("debug serve: %v", err)
			}
		}()
		defer dbg.Close()
	}

	hs := &http.Server{Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		fmt.Fprintf(stderr, "hydroserved: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	logger.Printf("signal received: draining (timeout %s)", *drainTO)

	dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	if err := srv.Drain(dctx); err != nil {
		logger.Printf("drain: %v", err)
	}
	cancel()

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	<-errCh // Serve has returned http.ErrServerClosed
	logger.Printf("drained; bye")
	return 0
}
