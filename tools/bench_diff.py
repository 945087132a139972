#!/usr/bin/env python3
"""Summarize a BENCH_throughput.json run against a baseline.

Usage: bench_diff.py BASELINE.json CURRENT.json

Prints per-engine throughput and snapshot-size deltas (current vs
baseline) as a markdown-ish table — CI runs it with the committed
BENCH_throughput.json (the main-branch baseline) against the JSON the job
just produced, so every PR shows its perf delta inline in the log.

Informational only: exits 0 regardless of deltas (CI runners are noisy;
the trajectory artifacts are the durable record), but flags every change
beyond the noise band so regressions are visible at a glance.
"""
import json
import sys

NOISE_BAND = 0.10  # |delta| beyond 10% gets flagged
OVERHEAD_GATE_PCT = 2.0  # instrumentation_overhead.overhead_pct above this gets flagged
SLIDING_SPEEDUP_GATE = 3.0  # sliding.memento_vs_exact_sliding_speedup below this gets flagged


def load(path):
    with open(path) as f:
        return json.load(f)


def fmt_delta(cur, base, higher_is_better=True, known=True):
    if not known:
        return "new"  # row exists only in the current run
    if not base:
        return "n/a"
    delta = (cur - base) / base
    flag = ""
    if abs(delta) > NOISE_BAND:
        good = (delta > 0) == higher_is_better
        flag = " ✓" if good else " ⚠"
    return f"{delta:+.1%}{flag}"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    base, cur = load(sys.argv[1]), load(sys.argv[2])

    base_engines = {e["engine"]: e for e in base.get("engines", [])}
    print(f"baseline: {sys.argv[1]} ({base.get('packets', '?')} packets, "
          f"{base.get('hardware_threads', '?')} hw threads)")
    print(f"current:  {sys.argv[2]} ({cur.get('packets', '?')} packets, "
          f"{cur.get('hardware_threads', '?')} hw threads)")
    print()
    print(f"{'engine':<22} {'batch_pps':>12} {'Δ':>9}")
    for e in cur.get("engines", []):
        known = e["engine"] in base_engines
        b = base_engines.get(e["engine"], {})
        print(f"{e['engine']:<22} {e['add_batch_pps']:>12,.0f} "
              f"{fmt_delta(e['add_batch_pps'], b.get('add_batch_pps', 0), known=known):>9}")
    cur_engines = {e["engine"] for e in cur.get("engines", [])}
    for name in base_engines:
        if name not in cur_engines:
            print(f"{name:<22} gone (in baseline, not in current run)")

    # The obs-layer A/B row: PipelineConfig::metrics on vs off over the
    # exact-engine pipeline. The gate is on the *current* run's overhead,
    # not a delta against the baseline — instrumentation must stay cheap
    # in absolute terms every run.
    oh = cur.get("instrumentation_overhead")
    if oh is not None:
        flag = " ⚠ exceeds %.1f%% gate" % OVERHEAD_GATE_PCT \
            if oh["overhead_pct"] > OVERHEAD_GATE_PCT else " ✓"
        base_oh = base.get("instrumentation_overhead", {})
        base_pct = base_oh.get("overhead_pct")
        base_note = f" (baseline {base_pct:+.2f}%)" if base_pct is not None else ""
        print()
        print(f"instrumentation overhead: metrics off {oh['metrics_off_pps']:,.0f} pps, "
              f"on {oh['metrics_on_pps']:,.0f} pps -> {oh['overhead_pct']:+.2f}%"
              f"{flag}{base_note}")

    # Shard-scaling trajectory: pps per shard count for exact and rhhh,
    # reported as speedup over the family's single-thread baseline
    # (shards = 0). Regressions here are only flagged when the *current*
    # run had real cores to scale on — a 1-core container serializes the
    # workers, so its ratios say nothing about the dispatch path and
    # flagging them would just teach everyone to ignore the flags.
    scaling = cur.get("scaling")
    if scaling is not None:
        multicore = scaling.get("hardware_threads", 1) > 1
        base_rows = {(r["engine"], r["shards"]): r
                     for r in base.get("scaling", {}).get("rows", [])}
        note = "" if multicore else \
            " (1 hw thread: informational only, regressions not flagged)"
        print()
        print(f"shard scaling ({scaling.get('hardware_threads', '?')} hw threads){note}")
        print(f"{'engine':<10} {'shards':>6} {'batch_pps':>12} {'Δ':>9} {'vs x0':>8}")
        baselines = {r["engine"]: r["add_batch_pps"]
                     for r in scaling.get("rows", []) if r["shards"] == 0}
        for r in scaling.get("rows", []):
            key = (r["engine"], r["shards"])
            b = base_rows.get(key, {})
            delta = fmt_delta(r["add_batch_pps"], b.get("add_batch_pps", 0),
                              known=key in base_rows) if multicore else "-"
            single = baselines.get(r["engine"], 0.0)
            ratio = f"{r['add_batch_pps'] / single:>7.2f}x" if single else "     n/a"
            print(f"{r['engine']:<10} {r['shards']:>6} {r['add_batch_pps']:>12,.0f} "
                  f"{delta:>9} {ratio}")
        sat = scaling.get("saturation")
        if sat is not None:
            base_sat = base.get("scaling", {}).get("saturation", {})
            delta = fmt_delta(sat["pps"], base_sat.get("pps", 0),
                              known=bool(base_sat)) if multicore else "-"
            print(f"hhh-live saturation ({sat['engine']}, {sat['window_s']:.0f}s windows, "
                  f"{sat.get('windows', '?')} closes): {sat['pps']:,.0f} pps {delta}")

    # Sliding-window rows: exact-sliding vs Memento over the same
    # window/trace, with precision/recall against the exact trailing
    # window so throughput is never read in isolation. The speedup gate is
    # on the *current* run, like the overhead gate — the tentpole claim
    # ("sliding windows at production cost") must hold every run, not just
    # relative to a baseline.
    sliding = cur.get("sliding")
    if sliding is not None:
        base_rows = {r["engine"]: r
                     for r in base.get("sliding", {}).get("rows", [])}
        print()
        print(f"sliding window (W={sliding.get('window_s', '?')}s, "
              f"phi={sliding.get('phi', '?')})")
        print(f"{'engine':<15} {'batch_pps':>12} {'Δ':>9} {'prec':>5} {'recall':>6}")
        for r in sliding.get("rows", []):
            known = r["engine"] in base_rows
            b = base_rows.get(r["engine"], {})
            print(f"{r['engine']:<15} {r['add_batch_pps']:>12,.0f} "
                  f"{fmt_delta(r['add_batch_pps'], b.get('add_batch_pps', 0), known=known):>9} "
                  f"{r['precision']:>5.2f} {r['recall']:>6.2f}")
        speedup = sliding.get("memento_vs_exact_sliding_speedup")
        if speedup is not None:
            flag = " ✓" if speedup >= SLIDING_SPEEDUP_GATE else \
                " ⚠ below %.0fx gate" % SLIDING_SPEEDUP_GATE
            base_speedup = base.get("sliding", {}).get("memento_vs_exact_sliding_speedup")
            base_note = f" (baseline {base_speedup:.2f}x)" if base_speedup else ""
            print(f"memento vs exact_sliding: {speedup:.2f}x add_batch pps{flag}{base_note}")

    base_snaps = {s["engine"]: s for s in base.get("snapshot_roundtrip", [])}
    print()
    print(f"{'engine':<22} {'snapshot_B':>12} {'Δ':>9} {'ser_MB/s':>9} {'deser_MB/s':>11}")
    for s in cur.get("snapshot_roundtrip", []):
        known = s["engine"] in base_snaps
        b = base_snaps.get(s["engine"], {})
        print(f"{s['engine']:<22} {s['snapshot_bytes']:>12,} "
              f"{fmt_delta(s['snapshot_bytes'], b.get('snapshot_bytes', 0), higher_is_better=False, known=known):>9} "
              f"{s['serialize_mbps']:>9.1f} {s['deserialize_mbps']:>11.1f}")
    cur_snaps = {s["engine"] for s in cur.get("snapshot_roundtrip", [])}
    for name in base_snaps:
        if name not in cur_snaps:
            print(f"{name:<22} gone (in baseline, not in current run)")

    # The frame checksum kernel: every snapshot build and parse above runs
    # wire::crc32 once over the whole frame. An epoch frame on the
    # vantage -> collector path is checked twice on each side: the inner
    # engine frame, and the envelope that carries it.
    crc = cur.get("wire_crc32")
    if crc is not None:
        base_crc = base.get("wire_crc32")
        delta = fmt_delta(crc["mbps"], (base_crc or {}).get("mbps", 0),
                          known=base_crc is not None)
        print()
        print(f"{'wire_crc32':<22} {crc['buffer_bytes']:>12,} B {crc['mbps']:>9.1f} MB/s "
              f"{delta:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
