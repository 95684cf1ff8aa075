#!/bin/sh
# Breaker smoke test of hydroserved's peer routing, as run in CI.
# Binaries are built with -race.
#
# A 3-member cluster with one member SIGSTOPped: submissions through a
# live front must keep succeeding (failover), the front's per-peer
# circuit breaker must trip open (and short-circuit later calls), and
# after SIGCONT the half-open probe must close it again.
#
# Every /metrics scrape is piped through promcheck, so the
# hydro_cluster_breaker_* series must be well-formed Prometheus text.
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

p1=$((19000 + $$ % 10000)); p2=$((p1 + 1)); p3=$((p1 + 2))

# metric <base> <series>: one un-labeled series value (empty if absent).
metric() {
    curl -sf "$1/metrics" | sed -n "s/^$2 \\([0-9][0-9]*\\)\$/\\1/p"
}

wait_up() {
    for _ in $(seq 1 100); do
        curl -sf "$1/livez" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "daemon at $1 never came up"; cat "$workdir"/*.log; return 1
}

echo "== SIGSTOP'd peer trips its breaker; submits keep succeeding"
peers="n1=http://127.0.0.1:$p1,n2=http://127.0.0.1:$p2,n3=http://127.0.0.1:$p3"
i=1
for port in "$p1" "$p2" "$p3"; do
    "$workdir/hydroserved" -addr "127.0.0.1:$port" -workers 2 \
        -journal "$workdir/n$i.wal" -self "n$i" -peers "$peers" \
        -peer-probe 250ms \
        >"$workdir/n$i.out" 2>"$workdir/n$i.log" &
    pids="$pids $!"
    eval "cpid$i=$!"
    i=$((i + 1))
done
base1="http://127.0.0.1:$p1"
for port in "$p1" "$p2" "$p3"; do wait_up "http://127.0.0.1:$port"; done
echo "3 members up"

kill -STOP "$cpid3"
echo "n3 (pid $cpid3) SIGSTOPped"

# Wait for n1's prober to notice, so proxy attempts at the frozen peer
# carry the short probe fuse instead of the full proxy timeout.
for _ in $(seq 1 100); do
    curl -s "$base1/readyz" | grep -q '"n3":{"alive":false' && break
    sleep 0.1
done
curl -s "$base1/readyz" | grep -q '"n3":{"alive":false' \
    || { echo "n1 never marked n3 dead"; exit 1; }

# Submit distinct quick jobs through n1 until the n3 breaker has both
# tripped open and short-circuited a later call. Roughly a third of the
# keys rendezvous onto n3; every submission must succeed regardless.
opens=0; shorts=0
for s in $(seq 101 160); do
    code=$(curl -s -o "$workdir/body" -w '%{http_code}' "$base1/v1/jobs" \
        -d "{\"design\":\"Hydrogen\",\"combo\":\"C1\",\"cycles\":200000,\"seed\":$s}")
    [ "$code" = 202 ] || [ "$code" = 200 ] || { echo "submit seed=$s with frozen peer: HTTP $code: $(cat "$workdir/body")"; exit 1; }
    opens=$(metric "$base1" hydro_cluster_breaker_opens_total)
    shorts=$(metric "$base1" hydro_cluster_breaker_short_circuits_total)
    [ "${opens:-0}" -ge 1 ] && [ "${shorts:-0}" -ge 1 ] && break
done
[ "${opens:-0}" -ge 1 ] || { echo "breaker never opened (opens=$opens)"; exit 1; }
[ "${shorts:-0}" -ge 1 ] || { echo "open breaker never short-circuited (shorts=$shorts)"; exit 1; }
gauge=$(metric "$base1" hydro_cluster_breakers_open)
[ "${gauge:-0}" -ge 1 ] || { echo "hydro_cluster_breakers_open=$gauge, want >=1"; exit 1; }
echo "breaker open (opens=$opens, short-circuits=$shorts) and submits kept succeeding"

curl -sf "$base1/metrics" | "$workdir/promcheck" || { echo "cluster metrics exposition malformed"; exit 1; }

kill -CONT "$cpid3"
echo "n3 resumed; waiting for the half-open probe to close the breaker"
# Breaker state only advances on routed calls: keep submitting until a
# probe lands on n3 and closes it (OpenFor is 5s).
closed=""
for s in $(seq 201 260); do
    curl -s -o /dev/null "$base1/v1/jobs" \
        -d "{\"design\":\"Hydrogen\",\"combo\":\"C1\",\"cycles\":200000,\"seed\":$s}" || true
    gauge=$(metric "$base1" hydro_cluster_breakers_open)
    [ "${gauge:-1}" = 0 ] && { closed=1; break; }
    sleep 0.5
done
[ -n "$closed" ] || { echo "breaker never closed after SIGCONT"; exit 1; }
echo "breaker closed after recovery probe"

if grep -l "WARNING: DATA RACE" "$workdir"/*.log 2>/dev/null; then
    echo "race detector fired:"; grep -A5 "DATA RACE" "$workdir"/*.log; exit 1
fi

echo "breaker smoke OK"
