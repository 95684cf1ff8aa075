#!/bin/sh
# End-to-end smoke test of the hydroserved daemon, as run in CI: boot it
# on a random port, submit a QuickConfig C1 job over HTTP, poll it to
# completion, resubmit and require a cache hit, check /metrics (and its
# exposition well-formedness via promcheck), and pull the job's epoch
# telemetry through scripts/epoch_plot.sh. Needs only curl, grep, and
# awk. Exits nonzero on any failed expectation.
set -eu
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pid=""
trap 'if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; fi; rm -rf "$workdir"' EXIT

go build -o "$workdir/hydroserved" ./cmd/hydroserved
go build -o "$workdir/promcheck" ./cmd/promcheck
"$workdir/hydroserved" -addr 127.0.0.1:0 -cache-dir "$workdir/cache" >"$workdir/out" 2>"$workdir/log" &
pid=$!

# The daemon prints "hydroserved: listening on 127.0.0.1:PORT" once the
# socket is bound; that line is the script's contract with the binary.
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^hydroserved: listening on //p' "$workdir/out")
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "daemon died:"; cat "$workdir/log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "daemon never printed its listen address"; exit 1; }
base="http://$addr"
echo "daemon up at $base"

job=$(curl -sf "$base/v1/jobs" -d '{"design":"Hydrogen","combo":"C1"}')
echo "submitted: $job"
id=$(printf '%s' "$job" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "$id" ] || { echo "no job id in response"; exit 1; }

state=""
for _ in $(seq 1 600); do
    status=$(curl -sf "$base/v1/jobs/$id")
    state=$(printf '%s' "$status" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
    case "$state" in
        done) break ;;
        failed|canceled) echo "job $state: $status"; exit 1 ;;
    esac
    sleep 0.5
done
[ "$state" = done ] || { echo "job never finished (state=$state)"; exit 1; }
printf '%s' "$status" | grep -q '"CPUIPC"' || { echo "done job has no result"; exit 1; }
echo "job done"

resubmit=$(curl -sf "$base/v1/jobs" -d '{"design":"Hydrogen","combo":"C1"}')
printf '%s' "$resubmit" | grep -q '"cached":true' || { echo "resubmission was not a cache hit: $resubmit"; exit 1; }
echo "resubmission served from cache"

# Conditional GET: a done job's content-addressed ID is its strong
# ETag, and a matching If-None-Match revalidates body-free as 304.
etag=$(curl -sfi "$base/v1/jobs/$id" -o /dev/null -D - | sed -n 's/^[Ee][Tt][Aa][Gg]: //p' | tr -d '\r')
[ "$etag" = "\"$id\"" ] || { echo "missing or wrong ETag: $etag"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $etag" "$base/v1/jobs/$id")
[ "$code" = "304" ] || { echo "conditional GET returned $code, want 304"; exit 1; }
echo "ETag revalidation OK"

metrics=$(curl -sf "$base/metrics")
printf '%s' "$metrics" | grep -q '^hydroserved_jobs_completed_total 1$' || { echo "bad metrics:"; printf '%s\n' "$metrics"; exit 1; }
printf '%s' "$metrics" | grep -q '^hydroserved_cache_hits_total 1$' || { echo "bad metrics:"; printf '%s\n' "$metrics"; exit 1; }
printf '%s\n' "$metrics" | "$workdir/promcheck" || { echo "metrics exposition is malformed"; exit 1; }
printf '%s' "$metrics" | grep -q '^# TYPE hydroserved_job_seconds histogram$' || { echo "job_seconds histogram missing"; exit 1; }
echo "metrics exposition valid"
curl -sf "$base/livez" | grep -q '"ok":true' || { echo "livez failed"; exit 1; }
curl -sf "$base/readyz" | grep -q '"ready":true' || { echo "readyz failed"; exit 1; }

# Epoch telemetry: the CSV endpoint must yield rows, and the plot script
# must digest them into a knob-trajectory table with a convergence line.
curl -sf "$base/v1/jobs/$id/telemetry?format=csv" >"$workdir/telem.csv"
[ "$(wc -l <"$workdir/telem.csv")" -gt 1 ] || { echo "telemetry CSV is empty"; exit 1; }
./scripts/epoch_plot.sh "$workdir/telem.csv" | grep -q 'converged at (cap=' || { echo "epoch_plot failed on served telemetry"; exit 1; }
echo "telemetry + epoch_plot OK"

# Graceful shutdown: SIGTERM must drain and exit 0, leaving the result
# spilled in the cache directory.
kill -TERM "$pid"
wait "$pid" || { echo "daemon exited nonzero on SIGTERM"; exit 1; }
pid="" # already reaped; disarm the trap's kill
[ -f "$workdir/cache/$id.json" ] || { echo "no spilled result after drain"; exit 1; }

echo "serve smoke OK"
