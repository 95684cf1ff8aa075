#!/bin/sh
# Cluster smoke test of hydroserved's peer tier, as run in CI.
#
# Boots a 3-member cluster (binaries built with -race), then:
#
# Leg 1 (dedup): submits the same job through all three members and
# requires exactly ONE simulation cluster-wide, the same strong ETag
# from every member, and byte-identical result bytes everywhere.
#
# Leg 2 (failover): submits a long job so that it is proxied to its
# rendezvous owner, kill -9s the owner mid-job, and requires the
# forwarding front to promote the job into its own journal-backed queue
# and finish it — with the surviving members agreeing on the result
# bytes, /readyz reporting degraded (but 200), and
# hydro_cluster_promoted_jobs_total confirming the promote path ran.
#
# Every /metrics scrape is piped through promcheck, so the
# hydro_cluster_* series must be well-formed Prometheus text.
#
# Needs only curl, grep, sed. Exits nonzero on any failed expectation.
set -eu
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=""
trap 'for p in $pids; do kill -9 "$p" 2>/dev/null || true; done; wait 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "== build (-race)"
go build -race -o "$workdir/hydroserved" ./cmd/hydroserved
go build -o "$workdir/promcheck" ./cmd/promcheck

# Three ports derived from the PID keep parallel CI jobs apart; the
# boot check below catches a clash.
p0=$((18000 + $$ % 10000)); p1=$((p0 + 1)); p2=$((p0 + 2))
peers="n0=http://127.0.0.1:$p0,n1=http://127.0.0.1:$p1,n2=http://127.0.0.1:$p2"

# start_member <idx> <port>: boots member n<idx> with its own journal
# and appends its PID to $pids.
start_member() {
    _i=$1; _port=$2
    "$workdir/hydroserved" -addr "127.0.0.1:$_port" -workers 2 \
        -journal "$workdir/n$_i.wal" -self "n$_i" -peers "$peers" \
        -peer-probe 250ms \
        >"$workdir/n$_i.out" 2>"$workdir/n$_i.log" &
    pids="$pids $!"
    eval "pid$_i=$!"
}

start_member 0 "$p0"
start_member 1 "$p1"
start_member 2 "$p2"

base0="http://127.0.0.1:$p0"; base1="http://127.0.0.1:$p1"; base2="http://127.0.0.1:$p2"

for b in "$base0" "$base1" "$base2"; do
    up=""
    for _ in $(seq 1 100); do
        curl -sf "$b/livez" >/dev/null 2>&1 && { up=1; break; }
        sleep 0.1
    done
    [ -n "$up" ] || { echo "member at $b never came up"; cat "$workdir"/n*.log; exit 1; }
done
echo "3 members up: $peers"

base_for() {
    case "$1" in
        n0) echo "$base0" ;;
        n1) echo "$base1" ;;
        n2) echo "$base2" ;;
        *) echo "unknown member id: $1" >&2; return 1 ;;
    esac
}

# enqueued_total <base>: this member's own simulation count.
enqueued_total() {
    curl -sf "$1/metrics" | sed -n 's/^hydroserved_jobs_enqueued_total \([0-9]*\)$/\1/p'
}

# wait_done <base> <id> [tries]: polls until the job is done.
wait_done() {
    _base=$1; _id=$2
    for _ in $(seq 1 "${3:-600}"); do
        _state=$(curl -sf "$_base/v1/jobs/$_id" | sed -n 's/.*"state":"\([a-z_]*\)".*/\1/p')
        [ "$_state" = done ] && return 0
        case "$_state" in
            failed|canceled|deadline_exceeded) echo "job $_id reached $_state"; return 1 ;;
        esac
        sleep 0.2
    done
    echo "job $_id never finished (last state: ${_state:-none})"; return 1
}

echo "== leg 1: one submission through each member, ONE simulation total"
job='{"design":"Hydrogen","combo":"C1","cycles":2000000}'
id=""
for b in "$base0" "$base1" "$base2"; do
    resp=$(curl -sf "$b/v1/jobs" -d "$job")
    _id=$(printf '%s' "$resp" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
    [ -n "$_id" ] || { echo "no job id from $b: $resp"; exit 1; }
    [ -z "$id" ] || [ "$id" = "$_id" ] || { echo "members minted different ids: $id vs $_id"; exit 1; }
    id=$_id
done
wait_done "$base0" "$id"

total=0
for b in "$base0" "$base1" "$base2"; do
    n=$(enqueued_total "$b"); total=$((total + ${n:-0}))
done
[ "$total" = 1 ] || { echo "cluster ran $total simulations, want 1"; exit 1; }
echo "single simulation confirmed ($total enqueue cluster-wide)"

# Same strong validator and identical result bytes from every member.
etag=""; result=""
for b in "$base0" "$base1" "$base2"; do
    curl -sf -D "$workdir/hdr" "$b/v1/jobs/$id" -o "$workdir/body"
    _etag=$(sed -n 's/^[Ee][Tt]ag: *//p' "$workdir/hdr" | tr -d '\r')
    _result=$(sed -n 's/.*"result"://p' "$workdir/body")
    [ "$_etag" = "\"$id\"" ] || { echo "$b served ETag $_etag, want \"$id\""; exit 1; }
    [ -n "$_result" ] || { echo "$b served no result bytes"; exit 1; }
    [ -z "$result" ] || [ "$result" = "$_result" ] || { echo "result bytes differ between members"; exit 1; }
    etag=$_etag; result=$_result
done
echo "all members serve ETag $etag with identical result bytes"

echo "== leg 2: kill -9 the owner mid-job; the front promotes and finishes"
# Big enough that the job is reliably still running when the kill
# lands, small enough that the promoted re-run (under -race) finishes
# inside the poll window.
long='{"design":"Hydrogen","combo":"C2","cycles":10000000}'
curl -sf -D "$workdir/hdr" "$base0/v1/jobs" -d "$long" -o "$workdir/body"
lid=$(sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p' "$workdir/body")
[ -n "$lid" ] || { echo "no job id: $(cat "$workdir/body")"; exit 1; }
owner=$(sed -n 's/^[Xx]-[Hh]ydro-[Pp]eer: *//p' "$workdir/hdr" | tr -d '\r')
front=n0
if [ -z "$owner" ]; then
    # n0 owns the job itself; resubmit through n1 so a FRONT with a
    # forwarded-job ledger entry exists, then kill n0.
    owner=n0; front=n1
    curl -sf "$base1/v1/jobs" -d "$long" >/dev/null
else
    echo "submission was proxied: n0 -> $owner"
fi
fbase=$(base_for "$front")

# Wait until the owner actually runs it, so the kill lands mid-job.
obase=$(base_for "$owner")
for _ in $(seq 1 100); do
    state=$(curl -sf "$obase/v1/jobs/$lid" | sed -n 's/.*"state":"\([a-z_]*\)".*/\1/p')
    [ "$state" = running ] && break
    sleep 0.1
done
[ "$state" = running ] || { echo "job $lid never started on owner $owner (state: $state)"; exit 1; }

case "$owner" in n0) opid=$pid0 ;; n1) opid=$pid1 ;; n2) opid=$pid2 ;; esac
echo "owner $owner (pid $opid) running job $lid; kill -9"
kill -9 "$opid"
wait "$opid" 2>/dev/null || true

wait_done "$fbase" "$lid" 1200
promoted=$(curl -sf "$fbase/metrics" | sed -n 's/^hydro_cluster_promoted_jobs_total \([0-9]*\)$/\1/p')
[ "$promoted" = 1 ] || { echo "front $front promoted $promoted jobs, want 1"; exit 1; }
echo "front $front promoted the orphaned job and finished it"

# Both survivors agree on the failover result bytes and validator.
fresult=""
for m in n0 n1 n2; do
    [ "$m" = "$owner" ] && continue
    mb=$(base_for "$m")
    curl -sf -D "$workdir/hdr" "$mb/v1/jobs/$lid" -o "$workdir/body"
    _etag=$(sed -n 's/^[Ee][Tt]ag: *//p' "$workdir/hdr" | tr -d '\r')
    _result=$(sed -n 's/.*"result"://p' "$workdir/body")
    [ "$_etag" = "\"$lid\"" ] || { echo "$m served ETag $_etag after failover, want \"$lid\""; exit 1; }
    [ -n "$_result" ] || { echo "$m served no failover result"; exit 1; }
    [ -z "$fresult" ] || [ "$fresult" = "$_result" ] || { echo "survivors disagree on result bytes"; exit 1; }
    fresult=$_result
done
echo "survivors serve byte-identical failover results"

# Degraded-but-200 readiness with the dead member named.
code=$(curl -s -o "$workdir/readyz" -w '%{http_code}' "$fbase/readyz")
[ "$code" = 200 ] || { echo "/readyz HTTP $code, want 200: $(cat "$workdir/readyz")"; exit 1; }
grep -q '"degraded":true' "$workdir/readyz" || { echo "/readyz not degraded: $(cat "$workdir/readyz")"; exit 1; }
grep -q "\"$owner\":{\"alive\":false" "$workdir/readyz" \
    || { echo "/readyz does not name dead member $owner: $(cat "$workdir/readyz")"; exit 1; }
echo "/readyz is 200 + degraded, naming $owner as down"

echo "== metrics: hydro_cluster_* present and exposition well-formed"
metrics=$(curl -sf "$fbase/metrics")
printf '%s\n' "$metrics" | "$workdir/promcheck" || { echo "metrics exposition malformed"; exit 1; }
for series in hydro_cluster_peers hydro_cluster_peers_alive \
    hydro_cluster_proxied_submits_total hydro_cluster_proxied_gets_total \
    hydro_cluster_peer_fills_total hydro_cluster_failovers_total \
    hydro_cluster_promoted_jobs_total hydro_cluster_probe_errors_total; do
    printf '%s\n' "$metrics" | grep -q "^$series " \
        || { echo "series $series missing from $front's exposition"; exit 1; }
done
echo "all hydro_cluster_* series present"

# Race detector: a data race aborts the daemon (exit 66) and would have
# surfaced above as a dead member; make the absence explicit.
if grep -l "WARNING: DATA RACE" "$workdir"/n*.log 2>/dev/null; then
    echo "race detector fired:"; grep -A5 "DATA RACE" "$workdir"/n*.log; exit 1
fi

echo "cluster smoke OK"
