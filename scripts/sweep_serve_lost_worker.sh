#!/bin/sh
# A served campaign must not hang on a task that kills every worker it
# reaches. One coordinator serves the li slice of fig11 to three
# single-slot workers, each of which segfaults on the simple-x4 task
# (BSP_SWEEP_INJECT). The coordinator charges the task once per worker lost
# while running it and, at --retries + 1 losses, records it as crashed
# instead of re-queueing it: the campaign ends with 12 ok and 1 crashed.
# A second served campaign, whose fast-forward the program never reaches,
# must record every task failed at its first attempt.
#
#   scripts/sweep_serve_lost_worker.sh [build-dir] [out-dir]
#
# Each coordinator runs under a deadline (DEADLINE seconds, default 60), so
# a coordinator that re-queues the task forever fails instead of hanging.
set -eu

BUILD=${1:-build}
OUT=${2:-sweep-serve-lost-worker}
DEADLINE=${DEADLINE:-60}
SWEEP=$BUILD/tools/bsp-sweep

[ -x "$SWEEP" ] || { echo "no bsp-sweep at $SWEEP" >&2; exit 1; }
mkdir -p "$OUT"

# serve NAME EXPECT WORKER_ENV SWEEP_ARGS...: one coordinator and three
# --connect -j 1 workers (with WORKER_ENV in their environment); the
# coordinator's summary must contain EXPECT.
serve() {
  name=$1 expect=$2 worker_env=$3
  shift 3
  rm -f "$OUT/$name".*
  timeout "$DEADLINE" "$SWEEP" --campaign fig11 -w li --fresh --no-progress \
    --serve 127.0.0.1:0 --port-file "$OUT/$name.ports" \
    --out "$OUT/$name.jsonl" "$@" > "$OUT/$name.out" 2>&1 &
  coord=$!
  i=0
  while [ ! -s "$OUT/$name.ports" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "$name: no port file" >&2; exit 1; }
    kill -0 "$coord" 2>/dev/null || { cat "$OUT/$name.out" >&2; exit 1; }
    sleep 0.1
  done
  port=$(sed -n 's/^port=//p' "$OUT/$name.ports")
  workers=""
  for w in 1 2 3; do
    env $worker_env "$SWEEP" --connect "127.0.0.1:$port" -j 1 \
      > "$OUT/$name.worker$w" 2>&1 &
    workers="$workers $!"
  done
  rc=0
  wait "$coord" || rc=$?
  for pid in $workers; do
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  [ "$rc" -eq 0 ] || { echo "$name: coordinator exited $rc" \
                         "(124 = deadline)" >&2
                       cat "$OUT/$name.out" >&2; exit 1; }
  grep -F "$expect" "$OUT/$name.out" || {
    echo "$name: expected '$expect' in:" >&2; cat "$OUT/$name.out" >&2; exit 1
  }
}

serve lost "13 ran (12 ok, 0 failed, 1 crashed" \
  BSP_SWEEP_INJECT=segv=simple-x4 -n 1000 --warmup 0
grep -q '"status":"crashed".*"attempts":2,.*worker lost 2 times' \
  "$OUT/lost.jsonl" || {
  echo "lost: no crashed record charged with 2 lost workers" >&2; exit 1
}
serve unreachable "13 ran (0 ok, 13 failed, 0 crashed, 0 retried)" \
  BSP_SWEEP_INJECT= -n 1000 --warmup 0 --fast-forward 100000000
echo "served campaigns record lost workers and final failures"
