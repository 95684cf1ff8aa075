#!/bin/sh
# Observability-plane smoke test of hydroserved's cluster tracing, as
# run in CI.
#
# Boots a 2-member cluster (binaries built with -race), mints a client
# trace context, and submits one job through BOTH members under that
# context — so whichever member owns the job, the other proxies and
# stamps a proxy span into the same trace. Then requires:
#
#   - GET /v1/traces/{id} from EITHER member returns the merged tree:
#     spans from both node names, "partial": false;
#   - GET /v1/clusterz from one member federates both members' health
#     and metrics ("partial": false, both IDs present), and its
#     ?format=prometheus rendering passes promcheck with node labels;
#   - /metrics passes promcheck with at least one exemplar-annotated
#     histogram bucket (the traced job's trace ID);
#   - the 1ms -slow-request threshold fired, leaving a forensic log
#     record with the span tree inline;
#   - /debug/tracez lists the trace on the owning node.
#
# Needs only curl, grep, sed, od. Exits nonzero on any failed
# expectation.
set -eu
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=""
trap 'for p in $pids; do kill -9 "$p" 2>/dev/null || true; done; wait 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "== build (-race)"
go build -race -o "$workdir/hydroserved" ./cmd/hydroserved
go build -o "$workdir/promcheck" ./cmd/promcheck

# Two ports derived from the PID keep parallel CI jobs apart.
p0=$((20000 + $$ % 10000)); p1=$((p0 + 1))
peers="n0=http://127.0.0.1:$p0,n1=http://127.0.0.1:$p1"

start_member() {
    _i=$1; _port=$2
    "$workdir/hydroserved" -addr "127.0.0.1:$_port" -workers 2 \
        -journal "$workdir/n$_i.wal" -self "n$_i" -peers "$peers" \
        -peer-probe 250ms -slow-request 1ms -access-log \
        >"$workdir/n$_i.out" 2>"$workdir/n$_i.log" &
    pids="$pids $!"
}

start_member 0 "$p0"
start_member 1 "$p1"
base0="http://127.0.0.1:$p0"; base1="http://127.0.0.1:$p1"

for b in "$base0" "$base1"; do
    up=""
    for _ in $(seq 1 100); do
        curl -sf "$b/livez" >/dev/null 2>&1 && { up=1; break; }
        sleep 0.1
    done
    [ -n "$up" ] || { echo "member at $b never came up"; cat "$workdir"/n*.log; exit 1; }
done
echo "2 members up: $peers"

echo "== traced submit through both members (one proxies to the owner)"
# Client-minted trace context: 32-hex trace ID, 16-hex span ID, sampled.
tid=$(od -An -N16 -tx1 /dev/urandom | tr -d ' \n')
sid=$(od -An -N8 -tx1 /dev/urandom | tr -d ' \n')
trace="$tid-$sid-01"
job='{"design":"Hydrogen","combo":"C1","cycles":2000000}'

id=""
for b in "$base0" "$base1"; do
    resp=$(curl -sf "$b/v1/jobs" -H "X-Hydro-Trace: $trace" -d "$job")
    _id=$(printf '%s' "$resp" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
    [ -n "$_id" ] || { echo "no job id from $b: $resp"; exit 1; }
    [ -z "$id" ] || [ "$id" = "$_id" ] || { echo "members minted different ids: $id vs $_id"; exit 1; }
    id=$_id
done

state=""
for _ in $(seq 1 600); do
    state=$(curl -sf "$base0/v1/jobs/$id" | sed -n 's/.*"state":"\([a-z_]*\)".*/\1/p')
    [ "$state" = done ] && break
    case "$state" in
        failed|canceled|deadline_exceeded) echo "job $id reached $state"; exit 1 ;;
    esac
    sleep 0.2
done
[ "$state" = done ] || { echo "job $id never finished (last state: ${state:-none})"; exit 1; }
echo "traced job $id done under trace $tid"

echo "== merged trace tree from both members"
# The owner deposits its spans moments after the status flips done;
# poll until the fan-out covers both nodes.
for b in "$base0" "$base1"; do
    merged=""
    for _ in $(seq 1 50); do
        payload=$(curl -sf "$b/v1/traces/$tid" || true)
        # "partial" is omitted when false; its presence means degraded.
        if printf '%s' "$payload" | grep -q '"n0"' \
            && printf '%s' "$payload" | grep -q '"n1"' \
            && ! printf '%s' "$payload" | grep -q '"partial":true'; then
            merged=1; break
        fi
        sleep 0.2
    done
    [ -n "$merged" ] || { echo "$b never served the merged trace: $payload"; exit 1; }
    printf '%s' "$payload" | grep -q '"name":"proxy"' || { echo "merged trace has no proxy span: $payload"; exit 1; }
done
echo "both members serve the merged tree (n0 + n1 spans, proxy hop visible)"

echo "== clusterz federation"
cz=$(curl -sf "$base0/v1/clusterz")
printf '%s' "$cz" | grep -q '"self":"n0"' || { echo "clusterz self wrong: $cz"; exit 1; }
printf '%s' "$cz" | grep -q '"partial":false' || { echo "clusterz partial with both members up: $cz"; exit 1; }
for m in n0 n1; do
    printf '%s' "$cz" | grep -q "\"id\":\"$m\"" || { echo "clusterz missing member $m: $cz"; exit 1; }
done
curl -sf "$base0/v1/clusterz?format=prometheus" >"$workdir/clusterprom"
"$workdir/promcheck" <"$workdir/clusterprom" || { echo "clusterz prometheus rendering malformed"; exit 1; }
grep -q 'node="n1"' "$workdir/clusterprom" || { echo "clusterz prometheus rendering lacks node labels"; exit 1; }
echo "clusterz merges both members; prometheus rendering well-formed"

echo "== metrics: exemplars present, exposition well-formed"
exemplar=""
for b in "$base0" "$base1"; do
    curl -sf "$b/metrics" >"$workdir/metrics"
    "$workdir/promcheck" <"$workdir/metrics" || { echo "$b metrics exposition malformed"; exit 1; }
    grep -q "trace_id=\"$tid\"" "$workdir/metrics" && exemplar=1
done
[ -n "$exemplar" ] || { echo "no histogram bucket carries the trace's exemplar"; exit 1; }
echo "exemplar-annotated exposition valid on both members"

echo "== slow-request forensics and tracez"
grep -q 'slow request' "$workdir"/n0.log "$workdir"/n1.log \
    || { echo "no slow-request forensic record despite 1ms threshold"; exit 1; }
tracez=""
for b in "$base0" "$base1"; do
    curl -sf "$b/debug/tracez" | grep -q "$tid" && tracez=1
done
[ -n "$tracez" ] || { echo "trace $tid missing from every /debug/tracez"; exit 1; }
echo "slow-request record and tracez listing present"

if grep -l "WARNING: DATA RACE" "$workdir"/n*.log 2>/dev/null; then
    echo "race detector fired:"; grep -A5 "DATA RACE" "$workdir"/n*.log; exit 1
fi

echo "trace smoke OK"
