// Sampled-simulation engine: one long detailed run, sharded into K
// intervals and simulated in parallel.
//
// Pipeline (ARCHITECTURE.md §12):
//  1. plan    — plan_intervals() splits the measured region into K
//               contiguous chunks (sampling/plan.hpp);
//  2. prewarm — one *incremental* emulator pass materialises a BSPC
//               checkpoint at every distinct interval offset: ascending
//               offsets share a single functional execution (restore an
//               already-cached checkpoint to skip ahead, run_fast the
//               gaps), and each capture publishes atomically into the
//               campaign checkpoint cache so concurrent runs and worker
//               subprocesses share it;
//  3. workers — each interval is a monolithic task: fast-forward to its
//               offset (the prewarmed checkpoint, straight from memory),
//               discard its warm-up commits, measure its chunk — through
//               campaign::simulate_task, the body every production runner
//               shares. Thread pool (util/parallel.hpp); process
//               containment is per task, `bsp-sweep --sample-intervals K
//               --isolate process`;
//  4. stitch  — SimStats::merge folds the K measured chunks into one
//               aggregate, and estimate_ipc() puts a Student-t 95%
//               confidence interval on the per-interval IPC mean
//               (sampling/stitch.hpp).
//
// Determinism: the plan, every checkpoint, and every interval's measured
// SimStats depend only on (config, program, seed, M, W, FF, K, N) — never
// on thread scheduling — so per-interval stats are bit-stable across
// reruns and across thread/process modes. Host-side times (host_sec,
// prewarm_sec, wall_sec) are the only nondeterministic fields.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "config/machine_config.hpp"
#include "core/simulator.hpp"
#include "sampling/plan.hpp"
#include "sampling/stitch.hpp"

namespace bsp::sampling {

// How a run is sharded; what each interval records (host profile, CPI
// stack, co-simulation cadence) comes from the campaign::RunnerOptions
// passed next to it.
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
// its intervals are recorded as skipped, not failed.
struct PrewarmResult {
  std::size_t materialised = 0;  // captured + published this call
  std::size_t reused = 0;        // loaded from an existing cache file
  double ffwd_sec = 0;           // host seconds in the functional pass
  std::string error;             // non-empty on fatal failure (publish I/O)
  std::map<u64, std::shared_ptr<const Checkpoint>> by_offset;

  bool ok() const { return error.empty(); }
};

// Materialises one checkpoint per distinct nonzero offset in `plan`, in
// one incremental emulator pass (offset 0 needs none: detail starts at
// reset). With a cache dir, existing files are restored instead of
// re-emulated and fresh captures are published atomically.
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
  std::string error;         // non-empty when any interval failed
  std::size_t ckpt_materialised = 0;  // prewarm traffic
  std::size_t ckpt_reused = 0;
  double prewarm_sec = 0;    // functional prewarm host seconds
  double wall_sec = 0;       // end-to-end wall clock (prewarm + workers)

  bool ok() const { return error.empty(); }
};

// The engine: plan, prewarm, run every interval (parallel), stitch.
// `task` is the monolithic run being sampled (workload, seed,
// instructions, warmup, fast_forward) on `config`; each interval
// runs as a copy of it whose fast_forward, warmup and instructions are the
// interval's offset, warm-up and chunk, with `run`'s knobs.
SampledResult run_sampled(const campaign::TaskSpec& task,
                          const MachineConfig& config, const Program& program,
                          const SampleOptions& opts,
                          const campaign::RunnerOptions& run = {});
// The same run, given as its parameters.
SampledResult run_sampled(const MachineConfig& config, const Program& program,
                          const std::string& workload, u64 seed,
                          u64 max_commits, u64 warmup, u64 fast_forward,
                          const SampleOptions& opts,
                          const campaign::RunnerOptions& run = {});

}  // namespace bsp::sampling
