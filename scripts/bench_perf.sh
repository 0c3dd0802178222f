#!/bin/sh
# Simulator-throughput baseline: builds Release (-O2) and runs the
# engineering microbenchmarks, recording machine-readable results in
# BENCH_simcore.json at the repo root so throughput regressions are
# diffable across commits.
#
#   scripts/bench_perf.sh [build-dir] [output-json] [--allow-debug-library]
#                         [--sampling]
#   scripts/bench_perf.sh --check [build-dir] [baseline-json]
#   scripts/bench_perf.sh --paired OLD_BIN NEW_BIN [output-json]
#
# --check is the regression gate: instead of recording a new baseline it
# re-measures the BM_SimulatorThroughput configs, the scheduler
# microbenches (BM_WakeupSelect / BM_DispatchOnly / BM_SelectSort /
# BM_CommitOnly) and the set-up benches (BM_SimulatorConstruct: mcf from a
# checkpoint on x2; BM_BuildWorkload: gcc) and compares them against the
# committed baseline JSON,
# exiting non-zero if any tracked benchmark lost more than 15% of its
# items_per_second. The same library_build_type gate applies (Release
# builds only unless --allow-debug-library): a debug-library measurement
# would fail the threshold for reasons that have nothing to do with the
# code under test.
#
# --paired is the honest A/B protocol for before/after claims: it takes
# two already-built bench_microarch binaries (old first) and interleaves
# BM_SimulatorThroughput/0, /2 and /4 runs (base, slice-2, slice-4) and
# BM_WakeupSelect (the base machine's wakeup/select path alone) in one
# window so host drift (thermal, cron, page cache) lands on both sides
# equally. Within-pair run order alternates (old/new, then new/old, ...)
# because the first run of a pair systematically sees a different
# frequency/cache state than the second; each measurement also runs
# >= 2s (--benchmark_min_time) so per-run jitter amortizes. Per-pair
# ratios and one median ratio per benchmark are merged under "paired" in
# the output JSON (default BENCH_simcore.json). PAIRED_REPS overrides the
# pair count (default 7). Both sides run under the same co-simulation
# cadence, BSP_BENCH_COSIM=$PAIRED_COSIM (default full), so the ratio
# measures the code change alone; a binary that predates the variable
# always runs full, so only compare such a binary at the default.
#
# With --sampling the script also records BENCH_sampling.json (only then:
# the file is a committed record, not a by-product of every baseline run):
# monolithic vs sampled-simulation (K=8) wall clock
# and IPC-estimate error on long bzip/mcf runs. Sampled wall clock is
# parallelism-bound — on an H-core host the K intervals overlap at most
# H-wide — so the file records both the measured wall seconds *and* the
# critical path (prewarm + slowest interval, the wall clock an >= K-core
# host approaches), plus host_cores so the context of the measurement is
# in the artifact, mirroring the honest library_build_type tagging above.
#
# The tracked benchmarks are the whole-program simulator throughput runs
# (BM_SimulatorThroughput: gzip, 20k commits, base/slice-2/slice-4 machines;
# BM_TechniqueStackThroughput: the slice-4 cumulative technique stacks) plus
# the emulator step rate and the fast-forward interpreter rate
# (BM_EmulatorFastRunThroughput — the run_fast path campaigns use to reach
# checkpoint regions; the acceptance floor is 3x the step rate). The script
# also times a small fast-forwarding sweep twice against one checkpoint
# cache directory and records the cold/warm wall-clock seconds under
# "ckpt_cache_sweep" in the output JSON. Wall-clock numbers are host- and
# load-sensitive: compare runs from the same machine, and prefer the best
# of a few repeats.
#
# A baseline is only recorded when the benchmark context reports
# "library_build_type": "release" — a debug-built Google Benchmark library
# (its measurement loop carries assertion overhead) silently skews the
# numbers, which is how a debug-library baseline once got checked in. On
# hosts whose only libbenchmark is a debug build (some distro packages),
# pass --allow-debug-library to record anyway; the context keeps the
# honest "debug" tag so the provenance stays visible in the diff.
set -eu

if [ "${1:-}" = "--paired" ]; then
  OLD_BIN="${2:?--paired needs OLD_BIN NEW_BIN}"
  NEW_BIN="${3:?--paired needs OLD_BIN NEW_BIN}"
  OUT="${4:-BENCH_simcore.json}"
  REPS="${PAIRED_REPS:-7}"
  COSIM="${PAIRED_COSIM:-full}"
  PFILTER='BM_SimulatorThroughput/[024]$|BM_WakeupSelect$'
  TMPD=$(mktemp -d)
  trap 'rm -rf "$TMPD"' EXIT
  run_side() {  # run_side BIN old|new PAIR
    BSP_BENCH_COSIM="$COSIM" \
      "$1" --benchmark_filter="$PFILTER" --benchmark_min_time=2 \
      --benchmark_format=json \
      --benchmark_out="$TMPD/$2.$3.json" --benchmark_out_format=json \
      > /dev/null
  }
  i=1
  while [ "$i" -le "$REPS" ]; do
    if [ $((i % 2)) -eq 1 ]; then
      run_side "$OLD_BIN" old "$i"; run_side "$NEW_BIN" new "$i"
    else
      run_side "$NEW_BIN" new "$i"; run_side "$OLD_BIN" old "$i"
    fi
    echo "pair $i/$REPS done" >&2
    i=$((i + 1))
  done
  python3 - "$TMPD" "$REPS" "$OUT" "$COSIM" <<'EOF'
import json, os, statistics, sys
tmpd, reps, out, cosim = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
def rates(side, i):
    doc = json.load(open(f"{tmpd}/{side}.{i}.json"))
    return {b["name"]: b["items_per_second"]
            for b in doc["benchmarks"] if "items_per_second" in b}
old = [rates("old", i) for i in range(1, reps + 1)]
new = [rates("new", i) for i in range(1, reps + 1)]
paired = {}
for name in sorted(old[0]):
    o = [r[name] for r in old]
    n = [r[name] for r in new]
    ratios = [b / a for a, b in zip(o, n)]
    for i, (a, b, q) in enumerate(zip(o, n, ratios), 1):
        print(f"{name} pair {i}: old {a/1e6:.3f}M/s  new {b/1e6:.3f}M/s  "
              f"({q:.3f}x)")
    median = statistics.median(ratios)
    wins = sum(q > 1 for q in ratios)
    print(f"{name}: median speedup {median:.3f}x over {reps} interleaved "
          f"pairs (new faster in {wins})")
    paired[name] = {
        "old_items_per_second": o,
        "new_items_per_second": n,
        "ratios": ratios,
        "median_speedup": median,
    }
data = json.load(open(out)) if os.path.exists(out) else {}
data["paired"] = {"cosim": cosim, "pairs": reps, "benchmarks": paired}
json.dump(data, open(out, "w"), indent=1)
print(f"merged paired result into {out}")
EOF
  exit 0
fi

BUILD="build-perf"
OUT="BENCH_simcore.json"
ALLOW_DEBUG=0
CHECK=0
SAMPLING=0
i=0
for arg in "$@"; do
  case "$arg" in
    --allow-debug-library) ALLOW_DEBUG=1 ;;
    --check) CHECK=1 ;;
    --sampling) SAMPLING=1 ;;
    *)
      i=$((i + 1))
      if [ "$i" -eq 1 ]; then BUILD="$arg"; else OUT="$arg"; fi
      ;;
  esac
done

cmake -S . -B "$BUILD" -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$BUILD" --target bench_microarch -j "$(nproc)" > /dev/null

TMP="$OUT.tmp"
trap 'rm -f "$TMP"' EXIT

FILTER='SimulatorThroughput|TechniqueStackThroughput|EmulatorStep|EmulatorFastRun|WakeupSelect|DispatchOnly|SelectSort|CommitOnly|SimulatorConstruct|BuildWorkload'
if [ "$CHECK" -eq 1 ]; then
  # The gate re-measures only the benchmarks it compares.
  FILTER='SimulatorThroughput/|WakeupSelect|DispatchOnly|SelectSort|CommitOnly|SimulatorConstruct|BuildWorkload'
fi

"$BUILD/bench/bench_microarch" \
  --benchmark_filter="$FILTER" \
  --benchmark_format=json \
  --benchmark_out="$TMP" \
  --benchmark_out_format=json

LIB_BUILD=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['context'].get('library_build_type','unknown'))" "$TMP")
if [ "$LIB_BUILD" != "release" ] && [ "$ALLOW_DEBUG" -ne 1 ]; then
  echo "error: benchmark library_build_type is '$LIB_BUILD', not 'release';" >&2
  echo "       refusing to record a baseline measured through a debug-built" >&2
  echo "       Google Benchmark library (rerun with --allow-debug-library" >&2
  echo "       to record anyway, e.g. where the distro package is debug)." >&2
  exit 1
fi
if [ "$LIB_BUILD" != "release" ]; then
  echo "warning: recording baseline against a '$LIB_BUILD' benchmark library" >&2
fi

if [ "$CHECK" -eq 1 ]; then
  if [ ! -f "$OUT" ]; then
    echo "error: --check needs a committed baseline at $OUT" >&2
    exit 1
  fi
  python3 - "$TMP" "$OUT" <<'EOF'
import json, sys
fresh_doc, base_doc = (json.load(open(p)) for p in sys.argv[1:3])
rate = lambda doc: {b["name"]: b["items_per_second"]
                    for b in doc["benchmarks"] if "items_per_second" in b}
fresh, base = rate(fresh_doc), rate(base_doc)
tracked = sorted(set(fresh) & set(base))
if not tracked:
    sys.exit("error: no tracked benchmarks shared with the baseline "
             "(regenerate it with scripts/bench_perf.sh)")
failed = False
for name in tracked:
    ratio = fresh[name] / base[name]
    tag = "ok" if ratio >= 0.85 else "REGRESSION"
    if ratio < 0.85:
        failed = True
    print(f"{tag:>10}  {name}: {fresh[name]/1e6:.3f}M/s "
          f"vs baseline {base[name]/1e6:.3f}M/s ({ratio:.2f}x)")
if failed:
    sys.exit("error: >15% throughput regression against the committed "
             "baseline")
EOF
  echo "throughput check passed (within 15% of $OUT)"
  exit 0
fi

# Cold/warm checkpoint-cache sweep: the same small fast-forwarding
# campaign twice against one cache directory. Cold pays the fast-forwards
# and materialises the cache; warm restores everything from it, so
# warm_sec < cold_sec is the end-to-end win the cache exists for.
cmake --build "$BUILD" --target bsp-sweep -j "$(nproc)" > /dev/null
CKPT_DIR=$(mktemp -d)
SWEEP_OUT=$(mktemp -u)
trap 'rm -f "$TMP"; rm -rf "$CKPT_DIR" "$SWEEP_OUT".*' EXIT
sweep_secs() {
  start=$(date +%s.%N)
  "$BUILD/tools/bsp-sweep" --campaign fig11 -w gzip -n 5000 --warmup 1000 \
    --fast-forward 2000000 --ckpt-cache "$CKPT_DIR" \
    --out "$1" --fresh --no-progress > /dev/null
  end=$(date +%s.%N)
  echo "$start $end" | awk '{ printf "%.3f", $2 - $1 }'
}
COLD_SEC=$(sweep_secs "$SWEEP_OUT.cold.jsonl")
WARM_SEC=$(sweep_secs "$SWEEP_OUT.warm.jsonl")
python3 - "$TMP" "$COLD_SEC" "$WARM_SEC" <<'EOF'
import json, sys
path, cold, warm = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
data = json.load(open(path))
data["ckpt_cache_sweep"] = {
    "campaign": "fig11 -w gzip -n 5000 --warmup 1000 --fast-forward 2000000",
    "cold_sec": cold,
    "warm_sec": warm,
}
# CPI-stack accounting overhead: enabled vs plain base-machine throughput
# from this same benchmark process (acceptance < 10%; the disabled path is
# pinned bit-identical by the golden tests, so only the enabled delta
# costs anything).
rate = {b["name"]: b["items_per_second"]
        for b in data["benchmarks"] if "items_per_second" in b}
base = rate.get("BM_SimulatorThroughput/0")
cpi = rate.get("BM_SimulatorThroughputCpiStack")
if base and cpi:
    data["cpi_stack_overhead"] = {
        "base_items_per_second": base,
        "cpi_stack_items_per_second": cpi,
        "overhead_frac": 1.0 - cpi / base,
    }
json.dump(data, open(path, "w"), indent=1)
EOF

mv "$TMP" "$OUT"
echo "wrote $OUT (ckpt cache sweep: cold ${COLD_SEC}s, warm ${WARM_SEC}s)"
[ "$SAMPLING" -eq 1 ] || exit 0

# Sampled-simulation baseline: monolithic vs K=8 sampled on long runs.
# Deterministic modulo host timing; IPC figures are exact re-run to re-run.
cmake --build "$BUILD" --target bsp-sim -j "$(nproc)" > /dev/null
SAMPLE_OUT="BENCH_sampling.json"
SAMPLE_N=4000000
SAMPLE_WARM=200000
SAMPLE_K=8
SAMPLE_KW=100000
SAMPLE_DIR=$(mktemp -d)
SAMPLE_TMP=$(mktemp -d)
trap 'rm -f "$TMP"; rm -rf "$CKPT_DIR" "$SWEEP_OUT".* "$SAMPLE_DIR" "$SAMPLE_TMP"' EXIT
for w in bzip mcf li parser; do
  start=$(date +%s.%N)
  "$BUILD/tools/bsp-sim" "$w" -n "$SAMPLE_N" --warmup "$SAMPLE_WARM" \
    > "$SAMPLE_TMP/$w.mono.txt"
  end=$(date +%s.%N)
  echo "$start $end" | awk '{ printf "%.3f", $2 - $1 }' \
    > "$SAMPLE_TMP/$w.mono.sec"
  start=$(date +%s.%N)
  "$BUILD/tools/bsp-sim" "$w" -n "$SAMPLE_N" --warmup "$SAMPLE_WARM" \
    --sample-intervals "$SAMPLE_K" --sample-warmup "$SAMPLE_KW" \
    --ckpt-cache "$SAMPLE_DIR" \
    --sample-out "$SAMPLE_TMP/$w.intervals.jsonl" \
    > "$SAMPLE_TMP/$w.sampled.txt"
  end=$(date +%s.%N)
  echo "$start $end" | awk '{ printf "%.3f", $2 - $1 }' \
    > "$SAMPLE_TMP/$w.sampled.sec"
done
python3 - "$SAMPLE_TMP" "$SAMPLE_OUT" "$LIB_BUILD" <<EOF
import json, os, re, sys
tmp, out, lib_build = sys.argv[1], sys.argv[2], sys.argv[3]
result = {
    "context": {
        "config": "-n $SAMPLE_N --warmup $SAMPLE_WARM "
                  "--sample-intervals $SAMPLE_K --sample-warmup $SAMPLE_KW",
        "host_cores": os.cpu_count(),
        # The sampled timing never touches the benchmark library, but the
        # artifact carries the same provenance tag as BENCH_simcore.json
        # so a debug-library host is visible across the whole baseline.
        "library_build_type": lib_build,
    },
    "workloads": {},
}
for w in ("bzip", "mcf", "li", "parser"):
    mono = open(f"{tmp}/{w}.mono.txt").read()
    sampled = open(f"{tmp}/{w}.sampled.txt").read()
    ipc = float(re.search(r"^IPC:\s+([0-9.]+)", mono, re.M).group(1))
    est = re.search(r"IPC estimate: ([0-9.]+) \+/- ([0-9.]+)", sampled)
    wall = re.search(r"wall:\s+([0-9.]+)s total \(([0-9.]+)s prewarm", sampled)
    hosts = [json.loads(l)["host_sec"]
             for l in open(f"{tmp}/{w}.intervals.jsonl") if l.strip()]
    prewarm = float(wall.group(2))
    critical = prewarm + max(hosts)
    mono_sec = float(open(f"{tmp}/{w}.mono.sec").read())
    result["workloads"][w] = {
        "mono_sec": mono_sec,
        "mono_ipc": ipc,
        "sampled_sec": float(open(f"{tmp}/{w}.sampled.sec").read()),
        "sampled_ipc_mean": float(est.group(1)),
        "sampled_ipc_ci95": float(est.group(2)),
        "estimate_abs_error": abs(float(est.group(1)) - ipc),
        "prewarm_sec": prewarm,
        "interval_host_sec": hosts,
        # Wall clock a host with >= K cores approaches: the functional
        # prewarm (serial) plus the slowest interval worker.
        "critical_path_sec": critical,
        "critical_path_speedup": mono_sec / critical,
    }
json.dump(result, open(out, "w"), indent=1)
EOF
echo "wrote $SAMPLE_OUT (sampled vs monolithic, K=$SAMPLE_K)"
