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
//  3. workers — each interval restores its checkpoint, runs its warm-up
//               commits with statistics discarded, then detail-simulates
//               its chunk. Thread pool by default (util/parallel.hpp);
//               with SampleOptions::worker_cmd set, one subprocess per
//               interval (util/subprocess.hpp) for crash/timeout
//               containment — the worker prints its IntervalResult as a
//               single JSONL line on stdout (bsp-sim's hidden
//               --sample-worker flag implements this protocol);
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

#include "config/machine_config.hpp"
#include "core/simulator.hpp"
#include "sampling/plan.hpp"
#include "sampling/stitch.hpp"

namespace bsp::sampling {

struct SampleOptions {
  unsigned intervals = 8;  // K
  u64 warmup = kDefaultSampleWarmup;  // N: per-interval warm-up commits
                                     // (intervals > 0; interval 0 always
                                     // keeps the monolithic warm-up)
  unsigned jobs = 0;       // worker parallelism (0 = hardware concurrency)
  // Shared checkpoint cache directory ("" = in-memory checkpoints only;
  // required for process isolation, since workers restore from disk).
  std::string ckpt_cache_dir;
  // Non-empty => process isolation: argv prefix of the worker command; the
  // engine appends the interval index as the final argument. The worker
  // prints interval_to_jsonl() on stdout.
  std::vector<std::string> worker_cmd;
  double timeout_sec = 0;    // per-interval wall clock (process mode only)
  bool host_profile = false; // per-interval host-phase profiles
  // CPI-stack accounting per interval (Simulator::enable_cpi_stack): the
  // leaves are registered counters, so stitching merges them additively
  // and the aggregate keeps the identity sum(cpi_*) == cycles * width.
  bool cpi_stack = false;
  // Co-simulation cadence for every interval (core/simulator.hpp). Pure
  // check: interval stats are bit-identical across modes. In process mode
  // the worker command line must carry the matching --cosim flag (bsp-sim
  // forwards its own raw argv, so this happens automatically).
  SimOptions sim;
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

// Runs one interval in-process: restore `start` (null iff spec.offset ==
// 0), discard spec.warmup commits, measure spec.commits. The worker entry
// point and the thread-mode body.
IntervalResult run_one_interval(const MachineConfig& config,
                                const Program& program,
                                const IntervalSpec& spec,
                                const Checkpoint* start, bool host_profile,
                                bool cpi_stack = false,
                                const SimOptions& sim = SimOptions{});

// One IntervalResult as a single JSON line (no trailing newline): the
// process-worker protocol and the per-interval record format the tools
// write. Counters appear under "stats" in registry order, like the
// campaign store's records.
std::string interval_to_jsonl(const IntervalResult& r);

// Parses an interval_to_jsonl() line. False on torn/garbage lines, with
// *error describing why.
bool interval_from_jsonl(const std::string& line, IntervalResult* out,
                         std::string* error);

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
SampledResult run_sampled(const MachineConfig& config, const Program& program,
                          const std::string& workload, u64 seed,
                          u64 max_commits, u64 warmup, u64 fast_forward,
                          const SampleOptions& opts);

}  // namespace bsp::sampling
