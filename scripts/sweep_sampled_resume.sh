#!/bin/sh
# A sampled sweep and a monolithic sweep of the same grid are different
# tasks: a store holding the sampled records resumes a sampled rerun and
# satisfies none of the monolithic one. Runs the sampled sweep, the same
# sweep without --sample-intervals, then the sampled sweep again, all into
# one store, and checks each run's summary line.
#
#   scripts/sweep_sampled_resume.sh BSP_SWEEP OUT_DIR
set -eu

SWEEP=$1
OUT=$2
rm -rf "$OUT"
mkdir -p "$OUT"
RUN="--campaign fig11 -w li -n 4000 --warmup 1000 --no-progress --out $OUT/S.jsonl"

summary() {
  "$SWEEP" $RUN "$@" | grep '^13 tasks:'
}
expect() {
  case "$2" in
    *"$3"*) ;;
    *) echo "$1 run printed '$2', want '$3'" >&2; exit 1 ;;
  esac
}

sampled=$(summary --sample-intervals 2)
expect sampled "$sampled" "0 resumed, 13 ran (13 ok"
mono=$(summary)
expect monolithic "$mono" "0 resumed, 13 ran (13 ok"
again=$(summary --sample-intervals 2)
expect "second sampled" "$again" "13 resumed, 0 ran"
echo "monolithic: $mono | sampled again: $again"
