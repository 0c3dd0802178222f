#!/bin/sh
# Reproduces every table, figure and ablation at its publication budget
# into results/: each campaign's JSONL store plus the view bsp-sweep prints,
# Figure 12 and Table 1 as views over the fig11 store, and the trace
# studies. A rerun resumes from the stores and re-renders every view.
#
#   scripts/run_all_benches.sh [build-dir] [results-dir]
set -eu

BUILD="${1:-build}"
OUT="${2:-results}"
mkdir -p "$OUT"
SWEEP="$BUILD/tools/bsp-sweep"
REPORT="$BUILD/tools/bsp-report"

for c in fig11 abl_slice_width abl_extensions abl_sam abl_seeds \
  abl_predictor abl_way_policy abl_window abl_fp_corner; do
  echo "== campaign $c"
  "$SWEEP" --campaign "$c" --no-progress --out "$OUT/$c.jsonl" > "$OUT/$c.txt"
done
for v in fig12 table1; do
  echo "== view $v"
  "$REPORT" --view "$v" "$OUT/fig11.jsonl" > "$OUT/$v.txt"
done

# IPC vs measurement window, from reset and after the default warm-up;
# task ids differ by n= and w=, so the grid shares one store.
echo "== campaign abl_stability"
for w in 0 300000; do
  for n in 25000 50000 100000 200000 400000 800000; do
    "$SWEEP" --campaign abl_stability -n "$n" --warmup "$w" --no-progress \
      --out "$OUT/abl_stability.jsonl" > /dev/null
  done
done
"$REPORT" --view abl_stability "$OUT/abl_stability.jsonl" \
  > "$OUT/abl_stability.txt"

for s in fig2 fig4 fig6 operand_profile abl_lsq_depth; do
  echo "== study $s"
  "$BUILD/tools/bsp-study" "$s" > "$OUT/$s.txt"
done
echo "done: $OUT/"
