// Sampled-simulation engine: one long detailed run, sharded into K
// intervals and simulated in parallel. It is compiled into the campaign
// library: make_sim_runner and bsp-sim run a task whose TaskSpec sets the
// sampled shape (K, N) through run_intervals, from their own checkpoints.
//
// Pipeline (ARCHITECTURE.md §12):
//  1. plan    — plan_intervals() splits the measured region into K
//               contiguous chunks (sampling/plan.hpp);
//  2. prewarm — campaign::materialise_checkpoints (ckpt_cache.hpp), the
//               one fast-forward materialiser, captures a BSPC checkpoint
//               at every one of the task's campaign::checkpoint_offsets
//               in one incremental emulator pass and publishes each into
//               the campaign checkpoint cache so concurrent runs and
//               worker subprocesses share it. An unreachable interval-0
//               offset (the run's own fast-forward) fails the run;
//  3. workers — each interval is a monolithic task: fast-forward to its
//               offset (the prewarmed checkpoint, straight from memory),
//               discard its warm-up commits, measure its chunk — through
//               campaign::simulate_task, the body of every simulated
//               run. Thread pool (util/parallel.hpp; a sweep task runs
//               its intervals inline on its own slot); process
//               containment is per task, `bsp-sweep --sample-intervals K
//               --isolate process`;
//  4. stitch  — SimStats::merge folds the K measured chunks into one
//               aggregate, and estimate_ipc() puts a Student-t 95%
//               confidence interval on the per-interval IPC mean
//               (sampling/stitch.hpp).
// run_intervals is steps 3-4; run_sampled, kept for benchmark/, is 1-4.
//
// Determinism: the plan, every checkpoint, and every interval's measured
// SimStats depend only on (config, program, seed, M, W, FF, K, N) — never
// on thread scheduling — so per-interval stats are bit-stable across
// reruns and across thread/process modes. Host-side times (host_sec,
// prewarm_sec, wall_sec) are the only nondeterministic fields.
#pragma once

#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/ckpt_cache.hpp"
#include "config/machine_config.hpp"
#include "core/simulator.hpp"
#include "sampling/plan.hpp"
#include "sampling/stitch.hpp"

namespace bsp::sampling {

// run_sampled's shape and pool; what each interval records (host profile,
// CPI stack) comes from the campaign::RunnerOptions passed next to it.
struct SampleOptions {
  unsigned intervals = 8;  // K
  u64 warmup = kDefaultSampleWarmup;  // N: per-interval warm-up commits
                                     // (intervals > 0; interval 0 always
                                     // keeps the monolithic warm-up)
  unsigned jobs = 0;       // worker parallelism (0 = hardware concurrency)
  // Shared checkpoint cache directory ("" = in-memory checkpoints only).
  std::string ckpt_cache_dir;
};

// Prewarm outcome: checkpoints by functional offset. An offset missing
// from `by_offset` means the program exited/faulted before reaching it —
// at interval 0's offset the run fails, at a later one its intervals are
// recorded as skipped.
using PrewarmResult = campaign::CheckpointSet;

// The interval checkpoints of `plan`: campaign::materialise_checkpoints
// over its distinct offsets (offset 0 needs none: detail starts at reset).
PrewarmResult materialise_interval_checkpoints(const Program& program,
                                               const std::string& workload,
                                               u64 seed,
                                               const SamplePlan& plan,
                                               const std::string& cache_dir);

// One IntervalResult as a single JSON line (no trailing newline): the
// per-interval record bsp-sim --sample-out writes. Counters appear under
// "stats" in registry order, like the campaign store's records.
std::string interval_to_jsonl(const IntervalResult& r);

struct SampledResult {
  SamplePlan plan;
  std::vector<IntervalResult> intervals;  // index-aligned with the plan
  SimStats aggregate;  // stitched measured stats (host_seconds = serial sum)
  IpcEstimate ipc;     // weighted + mean ± ci95
  bool exited = false;       // program exited inside (or before) an interval
  int exit_code = 0;
  std::string error;         // non-empty when the fast-forward or an
                             // interval failed
  std::size_t ckpt_materialised = 0;  // run_sampled's prewarm traffic
  std::size_t ckpt_reused = 0;
  double prewarm_sec = 0;    // host seconds the prewarm's misses took
  double wall_sec = 0;       // run_sampled's prewarm + workers wall clock

  bool ok() const { return error.empty(); }
};

// Steps 3-4: runs every interval of `task`'s plan on `jobs` threads (0 =
// hardware concurrency) from `ckpts`, the checkpoints at
// campaign::checkpoint_offsets(task), and stitches them. A set that misses
// task.fast_forward fails the run; a later offset it lacks skips its
// intervals. Each interval is a copy of `task` over its chunk, with `run`'s
// knobs.
SampledResult run_intervals(const campaign::TaskSpec& task,
                            const MachineConfig& config,
                            const Program& program,
                            const campaign::CheckpointSet& ckpts,
                            const campaign::RunnerOptions& run,
                            unsigned jobs);

// The engine as one call, for callers that hold no checkpoints: plan,
// prewarm (into opts.ckpt_cache_dir), run every interval, stitch.
SampledResult run_sampled(const MachineConfig& config, const Program& program,
                          const std::string& workload, u64 seed,
                          u64 max_commits, u64 warmup, u64 fast_forward,
                          const SampleOptions& opts,
                          const campaign::RunnerOptions& run = {});

}  // namespace bsp::sampling
