#!/usr/bin/env python3
"""Field-by-field comparison of two bsp-sweep JSONL result stores.

Checks that two runs of the same campaign produced the same records: the
same task ids, and for every task the same fields with the same values,
apart from host measurements — wall-clock and CPU times, rusage and the
host-phase timings (host_phases keeps its key set and loop_cycles, which
are simulated quantities). The last record per task id wins, as in the
store's own resume path.

Run the same sweep under --isolate thread and --isolate process and
compare: any per-task knob a process worker failed to receive shows up as
a field that is missing or different.

    python3 scripts/compare_stores.py thread.jsonl process.jsonl \
        [--require KEY]...

--require KEY additionally fails unless every record of the first store
carries KEY (top level or inside "stats"), so a knob that silently did
nothing in both runs cannot pass. Exits 0 when the stores match, 1 with
one line per difference otherwise.
"""

import argparse
import json
import sys

# Host measurements: differ run to run and between isolation modes.
HOST_FIELDS = {"duration_ms", "host_seconds", "rusage", "ffwd_sec"}


def load(path):
    records = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn line: the store ignores it too
            records[rec["task"]] = rec
    return records


def comparable(rec):
    out = {k: v for k, v in rec.items() if k not in HOST_FIELDS}
    if "host_phases" in out:
        phases = out["host_phases"]
        out["host_phases"] = {
            k: (v if k == "loop_cycles" else None) for k, v in phases.items()
        }
    return out


def has_key(rec, key):
    return key in rec or key in rec.get("stats", {})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--require", action="append", default=[])
    args = ap.parse_args()

    a, b = load(args.a), load(args.b)
    problems = []
    if not a:
        problems.append(f"{args.a}: no records")
    for task in sorted(set(a) | set(b)):
        if task not in a or task not in b:
            missing = args.a if task not in a else args.b
            problems.append(f"{task}: no record in {missing}")
            continue
        ra, rb = comparable(a[task]), comparable(b[task])
        for key in sorted(set(ra) | set(rb)):
            if ra.get(key) != rb.get(key):
                problems.append(
                    f"{task}: {key} differs: {ra.get(key)!r} vs {rb.get(key)!r}"
                )
        for key in args.require:
            if not has_key(a[task], key):
                problems.append(f"{task}: {args.a} record lacks {key}")

    for p in problems:
        print(p)
    if problems:
        print(f"stores differ: {len(problems)} problem(s)")
        return 1
    print(f"stores match: {len(a)} records, field for field")
    return 0


if __name__ == "__main__":
    sys.exit(main())
