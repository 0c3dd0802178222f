#!/usr/bin/env python3
"""Summarise or compare bsp-bench result files (run.sh --out).

  compare.py A.jsonl              median, quartiles and n per (workload, metric)
  compare.py A.jsonl B.jsonl      B (a change) against A (its parent)
  compare.py --same A.jsonl B.jsonl
                                  two sets of runs of the same code

Rows are (workload, end-to-end metric); the bounds and directions come from
BENCHMARK.json. Verdicts for A vs B:
  worse       B's median is worse than A's by more than the bound
  improved    B wins at least 9 of every 10 runs paired in file order, over
              at least 10 pairs, and the medians differ by more than A's
              interquartile range
  unresolved  A's interquartile range exceeds the bound, and not every B run
              beats every A run
  same        none of the above
--same marks a row "outside" when the medians differ by more than the bound
in either direction, and flags a set whose spread (IQR / median) exceeds a
third of the bound (setup_s excepted). Exit status 1 when a row is worse or
outside. Quartiles are statistics.quantiles(values, n=4).
"""
import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """(workload, metric) -> values in file order; metric -> unit."""
    values, units = defaultdict(list), {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            result = rec["result"]
            if not result["correct"]:
                print(f"{path}: {rec['workload']} rep {rec['rep']} failed its "
                      "output checks", file=sys.stderr)
            for name, m in result["metrics"].items():
                values[(rec["workload"], name)].append(float(m["value"]))
                units[name] = m["unit"]
    return values, units


def summary(v):
    """(median, q1, q3, n)."""
    if len(v) < 2:
        return v[0], v[0], v[0], len(v)
    q1, _, q3 = statistics.quantiles(v, n=4)
    return statistics.median(v), q1, q3, len(v)


def spread(v):
    med, q1, q3, _ = summary(v)
    return (q3 - q1) / med if med else 0.0


def verdict(a, b, bound, lower_is_better):
    def better(x, y):  # x better than y
        return x < y if lower_is_better else x > y

    ma, q1a, q3a, _ = summary(a)
    mb = statistics.median(b)
    worse_by = (mb - ma) / ma if lower_is_better else (ma - mb) / ma
    if worse_by > bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(y, x))
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and better(mb, ma)
            and abs(mb - ma) > q3a - q1a):
        return "improved"
    if spread(a) > bound and not all(better(y, x) for x in a for y in b):
        return "unresolved"
    return "same"


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("files", nargs="+", metavar="FILE")
    ap.add_argument("--same", action="store_true",
                    help="A and B are two sets of runs of the same code")
    ap.add_argument("--benchmark", default=str(BENCHMARK),
                    help="BENCHMARK.json with the bounds (default: the repo's)")
    args = ap.parse_args()
    if len(args.files) > 2 or (args.same and len(args.files) != 2):
        ap.error("give one file, or two to compare")

    metrics = {m["name"]: m for m in json.load(open(args.benchmark))["end_to_end"]}
    a, units = load(args.files[0])

    if len(args.files) == 1:
        print(f"{'workload':<14} {'metric':<32} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'n':>3} unit")
        for (w, name), v in sorted(a.items()):
            med, q1, q3, n = summary(v)
            print(f"{w:<14} {name:<32} {fmt(med):>12} {fmt(q1):>12} "
                  f"{fmt(q3):>12} {n:>3} {units[name]}")
        return 0

    b, _ = load(args.files[1])
    bad = 0
    print(f"{'workload':<14} {'metric':<14} {'A median [q1, q3] n':>36} "
          f"{'B median [q1, q3] n':>36} {'delta':>8} {'bound':>6}  verdict")
    for key in sorted(set(a) & set(b)):
        w, name = key
        if name not in metrics:
            continue
        m = metrics[name]
        lower = m["better"] == "lower"
        va, vb = a[key], b[key]
        sa, sb = summary(va), summary(vb)
        delta = (sb[0] - sa[0]) / sa[0] if sa[0] else 0.0
        if args.same:
            v = "outside" if abs(delta) > m["bound"] else "ok"
            if name != "setup_s":
                for side, vals in (("A", va), ("B", vb)):
                    if spread(vals) > m["bound"] / 3:
                        v += f" ({side} spread {spread(vals):.1%})"
            bad += v.startswith("outside")
        else:
            v = verdict(va, vb, m["bound"], lower)
            bad += v == "worse"
        cols = [f"{fmt(s[0])} [{fmt(s[1])}, {fmt(s[2])}] {s[3]}" for s in (sa, sb)]
        print(f"{w:<14} {name:<14} {cols[0]:>36} {cols[1]:>36} "
              f"{delta:>+8.1%} {m['bound']:>6.0%}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
