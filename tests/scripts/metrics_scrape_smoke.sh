#!/bin/sh
# Scrape-endpoint acceptance: one hhh-collectord serving --metrics on a
# kernel-assigned TCP port, two hhh-live vantages streaming epoch frames
# over a Unix socket. The /metrics exposition (Prometheus text) and
# /metrics.json document are scraped mid-run and again after the fleet
# drains; the smoke asserts the scrape protocol works end to end and the
# counters behave like counters:
#
#   * both scrapes parse and carry the hhh_collector_* series;
#   * every sampled counter is monotone non-decreasing across scrapes;
#   * the final frames_received matches the fleet's delivery (>= 2);
#   * an unknown path returns 404.
#
# Usage: metrics_scrape_smoke.sh COLLECTORD LIVE FIXTURE_DIR
set -eu

COLLECTORD=$1
LIVE=$2
MV=$3

WORK=$(mktemp -d)
# On failure, stop what still runs and show the daemon's and the
# vantages' side before cleanup: several failure paths below print only
# their own message.
on_exit() {
    status=$?
    if [ "$status" -ne 0 ]; then
        kill ${CPID:-} ${VPIDS:-} 2>/dev/null || true
        for log in collectord.err collectord.out vantage0.err vantage1.err; do
            [ -f "$WORK/$log" ] || continue
            echo "--- $log" >&2
            sed "s/^/  /" "$WORK/$log" >&2
        done
    fi
    rm -rf "$WORK"
    exit "$status"
}
trap on_exit EXIT
trap 'exit 1' INT TERM
SOCK=$WORK/c.sock

"$COLLECTORD" --listen=unix:"$SOCK" --metrics=tcp:127.0.0.1:0 --print-port \
    --window=60 --grace=10 --expected-vantages=2 --threshold-bytes=1000000 \
    --idle-exit=2 --stats-interval=1 \
    > "$WORK/collectord.out" 2> "$WORK/collectord.err" &
CPID=$!

i=0
while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ $i -le 100 ] || { echo "FAIL: collector socket never appeared" >&2; exit 1; }
    sleep 0.1
done
i=0
while ! grep -q '^metrics_port=' "$WORK/collectord.out"; do
    i=$((i + 1))
    [ $i -le 100 ] || { echo "FAIL: metrics_port= never printed" >&2; exit 1; }
    sleep 0.1
done
MPORT=$(sed -n 's/^metrics_port=//p' "$WORK/collectord.out")

# Minimal HTTP GET without assuming curl exists on the CI host.
scrape() {
    python3 - "$MPORT" "$1" <<'EOF'
import sys, urllib.request
port, path = sys.argv[1], sys.argv[2]
with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as r:
    sys.stdout.write(r.read().decode())
EOF
}

# First scrape: mid-run (vantages not yet started — the daemon must serve
# while idle, and again while busy below).
scrape /metrics > "$WORK/scrape1.prom"
grep -q '^# TYPE hhh_collector_frames_received_total counter' "$WORK/scrape1.prom" \
    || { echo "FAIL: first scrape missing collector series" >&2
         cat "$WORK/scrape1.prom" >&2; exit 1; }

# Unknown paths are 404, not a wedge.
if python3 -c '
import sys, urllib.request, urllib.error
try:
    urllib.request.urlopen(f"http://127.0.0.1:{sys.argv[1]}/nope", timeout=10)
except urllib.error.HTTPError as e:
    sys.exit(0 if e.code == 404 else 1)
sys.exit(1)' "$MPORT"; then :; else
    echo "FAIL: unknown path did not return 404" >&2; exit 1
fi

VPIDS=""
for v in 0 1; do
    "$LIVE" --trace="$MV/vantage$v.hht" --window=60 --pps=100000 \
        --connect=unix:"$SOCK" --vantage="v4-$v" --retry=30 \
        2> "$WORK/vantage$v.err" &
    VPIDS="$VPIDS $!"
done
for pid in $VPIDS; do
    wait "$pid" || { echo "FAIL: a vantage replay exited nonzero" >&2; exit 1; }
done

# Second scrape: after the fleet delivered its frames (daemon still up
# inside its idle-exit window). Also take the JSON document.
scrape /metrics > "$WORK/scrape2.prom"
scrape /metrics.json > "$WORK/scrape2.json"

# Monotonicity + final-value assertions over both scrapes.
python3 - "$WORK/scrape1.prom" "$WORK/scrape2.prom" "$WORK/scrape2.json" <<'EOF'
import json, sys

def counters(path):
    out = {}
    kind = {}
    for line in open(path):
        if line.startswith("# TYPE "):
            _, _, name, k = line.split()
            kind[name] = k
        elif line and not line.startswith("#"):
            key, value = line.rsplit(" ", 1)
            base = key.split("{")[0]
            if kind.get(base) == "counter":
                out[key] = int(value)
    return out

first, second = counters(sys.argv[1]), counters(sys.argv[2])
assert first, "no counter samples in first scrape"
for key, v1 in first.items():
    v2 = second.get(key)
    assert v2 is not None, f"counter {key} disappeared between scrapes"
    assert v2 >= v1, f"counter {key} went backwards: {v1} -> {v2}"

frames = second.get("hhh_collector_frames_received_total")
assert frames is not None and frames >= 2, \
    f"expected >= 2 frames received from 2 vantages, got {frames}"
conns = second.get("hhh_collector_connections_accepted_total")
assert conns is not None and conns >= 2, f"expected >= 2 connections, got {conns}"

doc = json.load(open(sys.argv[3]))
by_name = {}
for m in doc["metrics"]:
    by_name.setdefault(m["name"], []).append(m)
assert "hhh_collector_frames_received_total" in by_name, "JSON missing collector series"
json_frames = sum(m["value"] for m in by_name["hhh_collector_frames_received_total"])
assert json_frames == frames, \
    f"JSON frames_received {json_frames} != Prometheus {frames} (same scrape window)"
print(f"scrape assertions OK: {len(first)} counters monotone, "
      f"frames_received={frames}")
EOF

wait "$CPID" || { echo "FAIL: collectord exited nonzero" >&2
                  sed 's/^/  collectord: /' "$WORK/collectord.err" >&2; exit 1; }

# --stats-interval must have emitted at least one structured stats line.
grep -q 'collector: stats ' "$WORK/collectord.err" \
    || { echo "FAIL: no periodic stats line on stderr" >&2
         sed 's/^/  collectord: /' "$WORK/collectord.err" >&2; exit 1; }

echo "PASS: metrics endpoint served monotone counters across scrapes"
