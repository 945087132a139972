#!/bin/sh
# hhh-collector must refuse to mix disjoint-engine and sliding-window
# snapshots: an exact replay and a Memento replay of the same synthetic
# day, fed together in either order, exit 3 with a pointed error instead
# of merging and reporting each family as its own group.
#
# Usage: collector_mixed_families.sh LIVE COLLECTOR
set -eu

LIVE=$1
COLLECTOR=$2

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

"$LIVE" --synthetic=3 --seconds=20 --engine=exact --window=10 \
    --out="$WORK/e.snap" 2> "$WORK/exact.err" \
    || { echo "FAIL: exact replay exited nonzero" >&2
         sed 's/^/  hhh-live: /' "$WORK/exact.err" >&2; exit 1; }
"$LIVE" --synthetic=3 --seconds=20 --engine=memento --window=10 --step=1 \
    --out="$WORK/m.snap" 2> "$WORK/memento.err" \
    || { echo "FAIL: memento replay exited nonzero" >&2
         sed 's/^/  hhh-live: /' "$WORK/memento.err" >&2; exit 1; }

for order in "e.snap m.snap" "m.snap e.snap"; do
    set -- $order
    status=0
    "$COLLECTOR" "$WORK/$1" "$WORK/$2" > /dev/null 2> "$WORK/collector.err" || status=$?
    [ "$status" -eq 3 ] \
        || { echo "FAIL: collector $order exited $status, want 3" >&2
             sed 's/^/  hhh-collector: /' "$WORK/collector.err" >&2; exit 1; }
    grep -q 'cannot mix engine and sliding-window snapshots' "$WORK/collector.err" \
        || { echo "FAIL: collector $order did not name the mix" >&2
             sed 's/^/  hhh-collector: /' "$WORK/collector.err" >&2; exit 1; }
done

# Each family on its own still merges.
"$COLLECTOR" "$WORK/m.snap" "$WORK/m.snap" > /dev/null 2> "$WORK/collector.err" \
    || { echo "FAIL: memento-only collector run exited nonzero" >&2
         sed 's/^/  hhh-collector: /' "$WORK/collector.err" >&2; exit 1; }

echo "PASS: hhh-collector refuses engine + sliding-window snapshot mixes"
