// The campaign engine's top layer: expand a SweepSpec, skip tasks the JSONL
// store already holds (checkpoint/resume), run the remainder through the
// fault-tolerant scheduler with live progress, and summarise.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "sampling/plan.hpp"
#include "util/table.hpp"

namespace bsp {
struct Workload;
}

namespace bsp::campaign {

struct CampaignOptions {
  SchedulerOptions scheduler;
  std::string out_path;       // JSONL store path ("" = <name>.jsonl in cwd)
  bool fresh = false;         // discard existing records instead of resuming
  bool retry_failed = false;  // re-run tasks whose record is failed/timeout
  bool progress = true;       // live stderr progress line
};

struct CampaignReport {
  std::size_t total = 0;    // expanded grid size
  std::size_t skipped = 0;  // satisfied by existing records (resume)
  std::size_t ran = 0;      // executed this run
  std::size_t ok = 0;       // ... of which succeeded
  std::size_t failed = 0;   // ... of which failed or timed out
  std::size_t crashed = 0;  // ... of which died on a signal (process mode)
  std::size_t retried = 0;  // ... of which needed >1 attempt
  // Checkpoint-cache pre-pass stats (all zero when no --ckpt-cache dir or
  // no fast_forward in the spec).
  PrewarmStats prewarm;
  // Per-task cache traffic: executed tasks whose start checkpoint came from
  // the cache ("hit") vs. paid-here fast-forwards ("miss").
  std::size_t ckpt_hits = 0;
  std::size_t ckpt_misses = 0;
  // Final state of every task in the grid (resumed + fresh), in grid order.
  std::vector<TaskRecord> records;
};

// Runs `spec` with `runner`, appending one record per executed task to the
// store at options.out_path. Rerunning with the same path resumes: tasks
// whose records already exist are skipped (any status; with retry_failed,
// only "ok" records are skipped and failed tasks get a fresh record).
CampaignReport run_campaign(const SweepSpec& spec, const TaskRunner& runner,
                            const CampaignOptions& options);

// Per-task knobs for the production runners: the one declaration of every
// option that changes how a task is simulated or what its record carries.
// bsp-sweep forwards them to process workers as flags and the remote
// coordinator forwards them to workers in its SPEC frame (RemoteSpec::run).
struct RunnerOptions {
  // Sample deltas of every SimStats counter each `interval` committed
  // instructions (obs/interval.hpp); the series lands in the task's record
  // ("interval" + "series" fields). 0 = off.
  u64 interval = 0;
  // Collect host-phase profiles (SimStats::host_profile, serialised as the
  // record's "host_phases" object) and feed the progress meter's breakdown.
  bool host_profile = false;
  // Shared checkpoint cache directory for fast_forward > 0 tasks ("" = no
  // on-disk cache; concurrent in-process tasks still share one fast-forward
  // through the runner's memo). Point workers at the same directory the
  // scheduler prewarmed. Host-local: never sent to remote workers.
  std::string ckpt_cache_dir;
  // CPI-stack cycle accounting per task (Simulator::enable_cpi_stack):
  // the SimStats cpi_* leaves land in every record, ready for
  // `bsp-report --cpi-stack` aggregation.
  bool cpi_stack = false;
  // Run-wide co-simulation cadence default ("full", "off", "spot[:N]");
  // a task's own TaskSpec::cosim overrides it. "" = full.
  std::string cosim;
  // Sampled simulation (src/sampling/): K intervals per task, each with
  // `sample_warmup` discarded warm-up commits. 0 = monolithic;
  // sampling::make_sampled_runner() is the runner that honours them.
  unsigned sample_intervals = 0;
  u64 sample_warmup = sampling::kDefaultSampleWarmup;
};

// Simulates one task against its (memoised) workload program.
using WorkloadTaskBody =
    std::function<TaskOutcome(const TaskSpec& task, const Workload& workload)>;

// Wraps `body` in the (workload, seed) memo every production runner uses:
// the first task to need a program builds it, concurrent tasks for the
// same key wait for that build instead of re-assembling, and a build
// failure comes back as each task's error. The memo lives in the returned
// runner behind a shared_ptr, so detached timed-out attempts stay
// memory-safe.
TaskRunner memoise_workloads(WorkloadTaskBody body);

// The production runner: runs each task's machine configuration on its
// memoised workload, restoring fast-forward checkpoints through a second
// build-once memo. Co-simulation divergence and workload-build failures
// come back as outcome errors, never as exceptions or aborts.
TaskRunner make_sim_runner(const RunnerOptions& options = {});

// Per-campaign summary: one row per (workload, seed), one IPC column per
// machine point (spec order), with failed tasks shown as their status. A
// final "mean" row averages each column over its successful rows.
Table summary_table(const SweepSpec& spec, const CampaignReport& report);

}  // namespace bsp::campaign
