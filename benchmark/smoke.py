#!/usr/bin/env python3
"""bench.smoke: every workload at --scale 0.02, untraced and traced.

  smoke.py BSP_BENCH BENCHMARK_JSON OUT_DIR

Checks that each run passes its output checks and prints exactly the metric
names and units BENCHMARK.json declares (end_to_end untraced, per_layer
traced); that each trace file parses, every span's parent resolves and every
self time is >= 0; and that run.sh, given no simulator sources, exits
non-zero without printing a result.
"""
import json
import pathlib
import shutil
import subprocess
import sys


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_trace(path):
    events = json.load(open(path))["traceEvents"]
    spans = {e["args"]["id"]: e for e in events}
    for e in events:
        parent = e["args"]["parent"]
        if parent != 0 and parent not in spans:
            fail(f"{path}: span {e['args']['id']} has unknown parent {parent}")
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        cover = sorted((max(c["ts"], start), min(c["ts"] + c["dur"], end))
                       for c in children.get(e["args"]["id"], []))
        covered, reach = 0.0, start
        for a, b in cover:
            if b > max(a, reach):
                covered += b - max(a, reach)
            reach = max(reach, b)
        if e["dur"] - covered < -1e-3:
            fail(f"{path}: span {e['args']['id']} has negative self time")
    return len(events)


def main():
    bench, spec_path, out = sys.argv[1], pathlib.Path(sys.argv[2]), pathlib.Path(sys.argv[3])
    spec = json.load(open(spec_path))
    shutil.rmtree(out, ignore_errors=True)
    for w in (x["name"] for x in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            p = subprocess.run(
                [bench, "--workload", w, "--seed", "0x5eed", "--seconds", "1",
                 "--trace", str(trace), "--scale", "0.02",
                 "--trace-dir", str(out / "trace"), "--work-dir", str(out / "work")],
                capture_output=True, text=True, timeout=180)
            if p.returncode != 0:
                fail(f"{w} trace={trace} exited {p.returncode}: {p.stderr[-2000:]}")
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{w} trace={trace}: {result['attempted']} attempted, "
                     f"{result['failed']} failed, correct={result['correct']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                fail(f"{w} trace={trace}: metrics differ from {spec_path.name}: "
                     f"missing {sorted(set(want) - set(got))}, "
                     f"extra {sorted(set(got) - set(want))}, units "
                     f"{sorted(k for k in want if k in got and want[k] != got[k])}")
            if trace:
                if any(v["value"] < 0 for k, v in result["metrics"].items()
                       if k.endswith(".self_s")):
                    fail(f"{w}: negative self time metric")
                n = check_trace(out / "trace" / f"{w}.json")
                print(f"ok {w} traced ({n} spans)")
            else:
                print(f"ok {w}")

    # Without the simulator sources next to it, run.sh must refuse quickly.
    bare = out / "bare"
    shutil.copytree(spec_path.parent / "benchmark", bare / "benchmark",
                    ignore=shutil.ignore_patterns(".bench_build"))
    shutil.copy(spec_path, bare / "BENCHMARK.json")
    p = subprocess.run(["bash", "benchmark/run.sh", "--workload", "detail",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    if p.returncode == 0 or p.stdout.strip():
        fail("run.sh without sources: exit 0 or printed a result")
    print("ok run.sh refuses a tree without sources")


if __name__ == "__main__":
    main()
