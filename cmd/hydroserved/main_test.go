package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	hydrogen "github.com/hydrogen-sim/hydrogen"
	"github.com/hydrogen-sim/hydrogen/client"
	"github.com/hydrogen-sim/hydrogen/internal/serve"
)

// childEnv, when set to "1", makes the test binary run as the daemon
// instead of as tests: TestSIGKILLReplay re-executes itself with it, so
// the daemon under test is a real process built exactly like the tests
// (race-instrumented under go test -race) with no separate build step.
const childEnv = "HYDROSERVED_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smallJob is a C1 request on a shrunken machine (4 MB fast tier),
// with epochs short enough to report progress early in the run.
func smallJob(design string, cycles uint64) client.JobRequest {
	cfg := hydrogen.QuickConfig()
	cfg.Hybrid.FastCapacityBytes = 4 << 20
	cfg.Hybrid.RemapCacheBytes = 16 << 10
	cfg.LLC.SizeBytes = 256 << 10
	cfg.EpochLen = 100_000
	cfg.Cycles = cycles
	return client.JobRequest{Config: &cfg, Design: design, Combo: client.ComboSpec{ID: "C1"}}
}

// waitRunning polls until job id is running with at least one progress
// epoch recorded, failing if it reaches any other state first.
func waitRunning(ctx context.Context, t *testing.T, cl *client.Client, id string) {
	t.Helper()
	for {
		cur, err := cl.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == "running" && cur.Epochs >= 1 {
			return
		}
		if cur.State != "queued" && cur.State != "running" {
			t.Fatalf("job reached %q before it could be interrupted", cur.State)
		}
		select {
		case <-ctx.Done():
			t.Fatal("job never started making progress")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestSIGTERMDrainsRunningJobs boots the daemon in-process on a random
// port, submits a job, waits for it to make progress, sends the process
// SIGTERM, and asserts that run() exits cleanly only after the job has
// finished and its result has been spilled to the cache directory —
// the acceptance criterion that shutdown drains rather than drops work.
func TestSIGTERMDrainsRunningJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon and runs a multi-second simulation")
	}
	dir := t.TempDir()

	pr, pw := io.Pipe()
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{
			"-addr", "127.0.0.1:0", "-cache-dir", dir,
			"-journal", filepath.Join(dir, "jobs.wal"),
			"-workers", "1", "-q",
		}, pw, io.Discard)
	}()

	lines := bufio.NewScanner(pr)
	if !lines.Scan() {
		t.Fatal("daemon produced no output")
	}
	line := lines.Text()
	const prefix = "hydroserved: listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected first line %q", line)
	}
	addr := strings.TrimPrefix(line, prefix)

	cl := client.New("http://" + addr)
	// Generous, as in TestSIGKILLReplay: under -race the 2 M-cycle job
	// takes tens of seconds, and the drain waits for all of it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	req := smallJob("Baseline", 2_000_000) // 20 epochs; waitRunning returns after the first
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(ctx, t, cl, st.ID)

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("run() exited %d after SIGTERM", code)
		}
	case <-ctx.Done():
		t.Fatal("daemon did not exit after SIGTERM")
	}

	// The drain must have let the job finish and spilled its result: the
	// spill file is the proof the simulation completed before exit.
	data, err := os.ReadFile(filepath.Join(dir, st.ID+".json"))
	if err != nil {
		t.Fatalf("no spilled result after drain: %v", err)
	}
	var res hydrogen.Results
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("spilled result corrupt: %v", err)
	}
	if res.Cycles != req.Config.Cycles {
		t.Fatalf("drained job simulated %d of %d cycles — drain dropped work", res.Cycles, req.Config.Cycles)
	}
	// The journal was in play for the whole run (submit/start/done
	// records); a clean drain must leave it closed but present.
	if _, err := os.Stat(filepath.Join(dir, "jobs.wal")); err != nil {
		t.Fatalf("journal missing after drain: %v", err)
	}
}

// TestSIGKILLReplay checks that 202 means durable and replayable when
// the daemon dies the hard way: a real process is SIGKILLed mid-job —
// no journal close, no waiting for in-flight flushes or workers — and
// a daemon restarted on the same journal and cache directory re-runs
// the job with no resubmission, has its result on disk as soon as the
// job is done — byte-identical to a clean run of the same request —
// and drains on SIGTERM with exit 0.
func TestSIGKILLReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("boots three daemons and runs two multi-second simulations")
	}
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	args := []string{"-cache-dir", cacheDir, "-journal", filepath.Join(dir, "jobs.wal"), "-workers", "1", "-q"}
	// Generous: under -race each 2 M-cycle run takes tens of seconds.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	req := smallJob("Hydrogen", 2_000_000)

	first, base, _ := startDaemon(t, args...)
	cl := client.New(base)
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(ctx, t, cl, st.ID)
	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := first.Wait(); err == nil || first.ProcessState.Success() {
		t.Fatalf("SIGKILLed daemon exited cleanly (%v)", err)
	}

	second, base, stderr := startDaemon(t, args...)
	logs, err := os.ReadFile(stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(logs, []byte("journal replay re-enqueued 1 interrupted job")) {
		t.Fatalf("restarted daemon logged no replay of the killed job:\n%s", logs)
	}

	// Reference: the same request on a clean in-process daemon, run
	// alongside the replay and written through the same way.
	refDir := t.TempDir()
	srv, err := serve.New(serve.Options{Workers: 1, CacheDir: refDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	ref := client.New(ts.URL)
	if rst, err := ref.Submit(ctx, req); err != nil || rst.ID != st.ID {
		t.Fatalf("clean submit: %v, err %v; want job %s", rst, err, st.ID)
	}

	cl = client.New(base)
	cur, err := cl.Job(ctx, st.ID) // a poll, not a resubmission
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Replayed {
		t.Fatalf("job %s not marked replayed after restart: %+v", st.ID, cur)
	}
	if done, err := cl.Wait(ctx, st.ID); err != nil || done.State != "done" {
		t.Fatalf("replayed job: state %v, err %v; want done", done, err)
	}
	got, err := os.ReadFile(filepath.Join(cacheDir, st.ID+".json"))
	if err != nil {
		t.Fatalf("no result on disk once the job is done: %v", err)
	}
	if err := second.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := second.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v, want 0", err)
	}

	if _, err := ref.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(refDir, st.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("result replayed after SIGKILL differs from a clean run")
	}
}

// startDaemon re-executes the test binary as a hydroserved child with
// args on a random port and waits for its listen line. It returns the
// child, its base URL and the file holding its stderr, which is checked
// for race reports once the child has exited.
func startDaemon(t *testing.T, args ...string) (*exec.Cmd, string, string) {
	t.Helper()
	stderr, err := os.CreateTemp(t.TempDir(), "stderr-")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close() // the child holds its own descriptor
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill() // fails harmlessly once the test has reaped it
		cmd.Wait()
		if logs, _ := os.ReadFile(stderr.Name()); bytes.Contains(logs, []byte("WARNING: DATA RACE")) {
			t.Errorf("race detector fired in daemon %v:\n%s", cmd.Args, logs)
		}
	})
	const prefix = "hydroserved: listening on "
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if !strings.HasPrefix(line, prefix) {
		logs, _ := os.ReadFile(stderr.Name())
		t.Fatalf("daemon's first line %q (%v); stderr:\n%s", line, err, logs)
	}
	return cmd, "http://" + strings.TrimSpace(strings.TrimPrefix(line, prefix)), stderr.Name()
}
