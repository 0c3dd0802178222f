#!/usr/bin/env bash
# Builds bsp-bench and runs benchmark workloads, each in its own process.
#
#   benchmark/run.sh [--workload W]... [--seed S] [--seconds T] [--trace 0|1]
#                    [--reps R] [--trace-dir DIR] [--out FILE] [--write-golden]
#
# With no --workload, runs all four. Each run measures for --seconds (default
# 25, BENCHMARK.json's run_seconds) and prints its metrics; the last line of
# each run's output is its JSON result. --out (default
# .bench_build/results.jsonl) collects one line per run: {"workload", "seed",
# "rep", "trace", "result"}; benchmark/compare.py reads it. Between reps the
# workload order alternates. Exits non-zero if any run's output checks fail.
# See benchmark/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
all=(detail sampled-k8 sweep-thread sweep-process)
chosen=() seed=0x5eed seconds=25 trace=0 reps=1 write_golden=0
trace_dir="$root/.bench_build/trace"
out="$root/.bench_build/results.jsonl"

usage() { sed -n '2,13p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2; exit 2; }
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || [ "$1" = --write-golden ] || usage
  case "$1" in
    --workload) chosen+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --reps) reps="$2"; shift 2 ;;
    --trace-dir) trace_dir="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --write-golden) write_golden=1; shift ;;
    *) usage ;;
  esac
done

if [ ! -f "$root/CMakeLists.txt" ] || [ ! -d "$root/src" ]; then
  echo "run.sh: no simulator sources at $root (CMakeLists.txt, src/)" >&2
  exit 2
fi

workloads=()
for w in "${all[@]}"; do
  if [ ${#chosen[@]} -eq 0 ] || [[ " ${chosen[*]} " == *" $w "* ]]; then
    workloads+=("$w")
  fi
done
for w in "${chosen[@]}"; do
  [[ " ${all[*]} " == *" $w "* ]] || { echo "run.sh: unknown workload $w" >&2; exit 2; }
done

build="$root/.bench_build/cmake"
# Everything the build and the runs write stays under .bench_build,
# compiler temporaries included.
mkdir -p "$root/.bench_build/tmp"
export TMPDIR="$root/.bench_build/tmp"
if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  command -v ninja > /dev/null && generator=(-G Ninja)
  cmake -S "$root/benchmark" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target bsp-bench -j "$(nproc)" >&2

golden_args=(--golden "$root/benchmark/golden/0x5eed.json")
if [ "$write_golden" = 1 ]; then
  golden_args+=(--write-golden)
  seed=0x5eed
fi

mkdir -p "$(dirname "$out")"
: > "$out"
status=0
for ((rep = 0; rep < reps; rep++)); do
  order=("${workloads[@]}")
  if ((rep % 2 == 1)); then
    order=()
    for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do order+=("${workloads[i]}"); done
  fi
  for w in "${order[@]}"; do
    rc=0
    output="$("$build/bsp-bench" --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" \
      --trace-dir "$trace_dir" --work-dir "$root/.bench_build/work" \
      "${golden_args[@]}")" || rc=$?
    printf '%s\n' "$output"
    result="$(printf '%s\n' "$output" | tail -n 1)"
    if [[ "$result" == "{"* ]]; then
      printf '{"workload": "%s", "seed": "%s", "rep": %d, "trace": %d, "result": %s}\n' \
        "$w" "$seed" "$rep" "$trace" "$result" >> "$out"
    fi
    [ "$rc" -eq 0 ] || status=1
  done
done
if [ "$reps" -gt 1 ] || [ ${#workloads[@]} -gt 1 ]; then
  python3 "$root/benchmark/compare.py" "$out" >&2 || true
fi
exit "$status"
