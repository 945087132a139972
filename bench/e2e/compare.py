#!/usr/bin/env python3
"""Compare sets of bench/e2e result files (written by `run.sh --out=FILE`).

    compare.py A.json... [-- B.json...] [--bench BENCHMARK.json] [--json OUT]

With one set, print each workload x metric's median and quartiles over the
files, the relative spread (IQR / median), and for each end-to-end metric
the bound the calibration rule suggests: max(5%, 2 x the largest relative
IQR over workloads), rounded up to a multiple of 5%. --json writes that
summary (bench/e2e/BASELINE.json is one).

With two sets, A is the base and B the candidate. For each workload and
end-to-end metric the verdict is "better" or "worse" when the medians
differ by more than the metric's BENCHMARK.json bound, "same" inside it,
and "unresolved" when either set's spread exceeds the bound, unless every
run of B beats (or loses to) every run of A. Per-layer metrics are shown
without a verdict. The failure share (failed / attempted epochs) of each
workload is printed for both sets. Exits 1 when a metric is worse beyond
its bound or B's failure share is higher than A's, 2 on usage errors.
"""

import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def usage(message):
    print(f"compare.py: {message}", file=sys.stderr)
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    sets, bench, out = [[]], os.path.join(HERE, "..", "..", "BENCHMARK.json"), None
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--":
            sets.append([])
        elif arg in ("--bench", "--json"):
            if i + 1 >= len(argv):
                usage(f"{arg} needs a value")
            i += 1
            if arg == "--bench":
                bench = argv[i]
            else:
                out = argv[i]
        elif arg.startswith("--bench="):
            bench = arg.split("=", 1)[1]
        elif arg.startswith("--json="):
            out = arg.split("=", 1)[1]
        elif arg.startswith("-"):
            usage(f"unknown option {arg}")
        else:
            sets[-1].append(arg)
        i += 1
    if len(sets) > 2 or not sets[0] or (len(sets) == 2 and not sets[1]):
        usage("give one or two non-empty sets of result files")
    return sets, bench, out


def load_set(paths):
    """{workload: {"values": {metric: [..]}, "units": {...}, "failed": n, "attempted": n}}"""
    result = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for name, w in doc["workloads"].items():
            entry = result.setdefault(
                name, {"values": {}, "units": {}, "failed": 0, "attempted": 0})
            info = w.get("info", {})
            entry["failed"] += int(info.get("epochs_failed", {}).get("value", 0))
            entry["attempted"] += int(info.get("epochs_attempted", {}).get("value", 0))
            for group in ("metrics", "layers"):
                for metric, m in w.get(group, {}).items():
                    if m["value"] is None:
                        continue
                    entry["values"].setdefault(metric, []).append(float(m["value"]))
                    entry["units"][metric] = m["unit"]
    return result


def summary(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    if med:
        rel_iqr = (q3 - q1) / abs(med)
    else:
        rel_iqr = 0.0 if q3 == q1 else math.inf
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "rel_iqr": rel_iqr}


def round_up_5(x):
    return math.ceil(x * 20 - 1e-9) / 20


def failure_share(entry):
    return entry["failed"] / entry["attempted"] if entry["attempted"] else 1.0


def fmt(v):
    return f"{v:.6g}"


def describe(sets, bench, out):
    data = load_set(sets[0])
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    doc = {}
    worst = {}
    print(f"{'workload':<22} {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr%':>6} n")
    for workload in sorted(data):
        entry = data[workload]
        doc[workload] = {"failure_share": failure_share(entry), "metrics": {}}
        for metric in sorted(entry["values"]):
            s = summary(entry["values"][metric])
            s["unit"] = entry["units"][metric]
            doc[workload]["metrics"][metric] = s
            if metric in e2e:
                worst[metric] = max(worst.get(metric, 0.0), s["rel_iqr"])
            print(f"{workload:<22} {metric:<34} {fmt(s['median']):>12} {fmt(s['q1']):>12} "
                  f"{fmt(s['q3']):>12} {100 * s['rel_iqr']:>6.1f} {s['n']}")
        print(f"{workload:<22} {'failure_share':<34} {fmt(failure_share(entry)):>12}")
    print("\nend-to-end bounds: current, and max(5%, 2 x worst relative IQR) rounded up to 5%")
    for metric, m in e2e.items():
        spread = worst.get(metric)
        if spread is None:
            continue
        suggested = round_up_5(max(0.05, 2 * spread))
        print(f"  {metric:<20} bound {m['bound']:.2f}  worst iqr {100 * spread:5.1f}%  "
              f"suggested {suggested:.2f}")
    if out:
        with open(out, "w") as f:
            json.dump({"files": len(sets[0]), "workloads": doc}, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


def verdict(a, b, better, bound):
    """better / worse / same / unresolved for one metric; worse is a share."""
    sa, sb = summary(a), summary(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (sb["median"] - sa["median"]) / abs(sa["median"]) if sa["median"] else 0.0
    if max(sa["rel_iqr"], sb["rel_iqr"]) > bound:
        if all(sign * (x - y) < 0 for x in b for y in a):
            return "better", worse
        if all(sign * (x - y) > 0 for x in b for y in a) and worse > bound:
            return "worse", worse
        return "unresolved", worse
    if worse > bound:
        return "worse", worse
    if worse < -bound:
        return "better", worse
    return "same", worse


def compare(sets, bench):
    a, b = load_set(sets[0]), load_set(sets[1])
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    regressions = 0
    print(f"{'workload':<22} {'metric':<34} {'A median':>12} {'B median':>12} {'worse%':>8} "
          f"{'bound%':>7}  verdict")
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            print(f"{workload:<22} (only in {'A' if workload in a else 'B'})")
            continue
        ea, eb = a[workload], b[workload]
        for metric in list(e2e) + [m for m in layers if m not in e2e]:
            if metric not in ea["values"] or metric not in eb["values"]:
                continue
            va, vb = ea["values"][metric], eb["values"][metric]
            ma, mb = statistics.median(va), statistics.median(vb)
            if metric in e2e:
                v, worse = verdict(va, vb, e2e[metric]["better"], e2e[metric]["bound"])
                regressions += v == "worse"
                print(f"{workload:<22} {metric:<34} {fmt(ma):>12} {fmt(mb):>12} "
                      f"{100 * worse:>8.1f} {100 * e2e[metric]['bound']:>7.0f}  {v}")
            else:
                change = (mb - ma) / abs(ma) if ma else 0.0
                print(f"{workload:<22} {metric:<34} {fmt(ma):>12} {fmt(mb):>12} "
                      f"{100 * change:>+8.1f} {'':>7}  (layer)")
        fa, fb = failure_share(ea), failure_share(eb)
        flag = "worse" if fb > fa else "same" if fb == fa else "better"
        regressions += fb > fa
        print(f"{workload:<22} {'failure_share':<34} {fmt(fa):>12} {fmt(fb):>12} "
              f"{'':>8} {'':>7}  {flag}")
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


def main():
    sets, bench_path, out = parse_args(sys.argv[1:])
    with open(bench_path) as f:
        bench = json.load(f)
    sys.exit(describe(sets, bench, out) if len(sets) == 1 else compare(sets, bench))


if __name__ == "__main__":
    main()
