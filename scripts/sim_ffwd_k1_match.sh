#!/bin/sh
# A 1-interval sampled bsp-sim run is the monolithic run, fast-forward
# included: both start from the same checkpoint (the monolithic run
# materialises it into the cache, the sampled run reuses it) and their
# 8-line stats blocks must diff clean. A fast-forward the program never
# reaches fails both modes alike: exit 1 and the same error line.
#
#   scripts/sim_ffwd_k1_match.sh BSP_SIM OUT_DIR
set -eu

SIM=$1
OUT=$2
rm -rf "$OUT"
mkdir -p "$OUT"
RUN="li -n 5000 --warmup 1000 --ckpt-cache $OUT/cache"

"$SIM" $RUN --fast-forward 20000 > "$OUT/mono.out"
"$SIM" $RUN --fast-forward 20000 --sample-intervals 1 > "$OUT/k1.out"
head -8 "$OUT/mono.out" > "$OUT/mono.stats"
head -8 "$OUT/k1.out" > "$OUT/k1.stats"
diff "$OUT/mono.stats" "$OUT/k1.stats"
grep -q '0 ckpts materialised, 1 reused' "$OUT/k1.out"

for mode in mono k1; do
  extra=
  [ "$mode" = k1 ] && extra='--sample-intervals 1'
  rc=0
  "$SIM" $RUN --fast-forward 100000000 $extra \
    > /dev/null 2> "$OUT/unreachable-$mode.err" || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "$mode run with an unreachable fast-forward exited $rc, want 1" >&2
    exit 1
  fi
done
cmp "$OUT/unreachable-mono.err" "$OUT/unreachable-k1.err"
grep -q 'program exited or faulted before fast_forward=100000000' \
  "$OUT/unreachable-mono.err"
echo "k1 matches monolithic: $(sed -n 2p "$OUT/mono.stats");" \
     "unreachable fast-forward fails alike"
