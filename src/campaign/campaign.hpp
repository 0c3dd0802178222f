// The campaign engine's top layer: expand a SweepSpec, skip tasks the JSONL
// store already holds (checkpoint/resume), run the remainder through the
// fault-tolerant scheduler with live progress, and summarise.
#pragma once

#include <chrono>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "sampling/plan.hpp"

namespace bsp {
class ArgParser;
struct Checkpoint;
struct Program;
struct Workload;
namespace obs {
struct JsonValue;
}
}  // namespace bsp

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
  // This run's throughput: committed instructions and host seconds summed
  // over ok tasks, the peak per-task worker RSS (process isolation only),
  // and the summed host-phase profile (enabled when any ok task had one).
  u64 committed = 0;
  double host_seconds = 0;
  long max_rss_kb = 0;
  obs::HostProfile host_phases;
  // Final state of every task in the grid (resumed + fresh), in grid order.
  std::vector<TaskRecord> records;

  std::size_t remaining() const { return total - skipped - ran; }
};

// A campaign's counts at one moment, with the rates derived from them. The
// resume baseline (`skipped`) counts toward done/total but never toward the
// rate or the ETA: both come from this run's completions (`ran`) only, so
// resuming a 99%-complete campaign predicts the last 1% at this run's pace
// instead of crediting this run with a previous run's work.
struct ProgressSnapshot {
  CampaignReport counts;   // the ledger leaves records empty
  double elapsed_sec = 0;  // since this run launched
  double rate = 0;         // this run's completions per second
  double eta_sec = -1;     // remaining / rate; < 0 = unknown yet
  double commits_per_host_second = 0;
};

// The snapshot of `counts` taken `elapsed_sec` into this run.
ProgressSnapshot progress_at(const CampaignReport& counts, double elapsed_sec);

// One owner of a campaign's state, the same for run_campaign and
// serve_campaign. It expands the grid, reads each task's latest record from
// the store at options.out_path and splits the grid into tasks those
// records satisfy (any record; with retry_failed, an "ok" one) and tasks
// to run. Each task then takes one record: record() appends the first to
// the store, makes it the task's latest record, counts it and redraws the
// live stderr line (options.progress), and refuses any later one. finish()
// gathers every task's latest record. One mutex guards the records, the
// counts and the sums.
class CampaignLedger {
 public:
  CampaignLedger(const SweepSpec& spec, const CampaignOptions& options);

  const std::vector<TaskSpec>& tasks() const { return tasks_; }
  // Indices into tasks() of the tasks this run executes, in dispatch
  // order: round-robin across workloads (the first pending task of each
  // workload, workloads in grid order, then the second of each, ...), each
  // workload's tasks in grid order. Local runs and the --serve
  // coordinator's queue both hand tasks out in this order; the store
  // appends records as they complete, and finish() reports them in grid
  // order.
  const std::vector<std::size_t>& pending() const { return pending_; }
  // The pending() tasks, in the same order.
  std::vector<TaskSpec> pending_tasks() const;
  // The grid index of a task id; nullopt for a task outside the grid.
  std::optional<std::size_t> index_of(const std::string& id) const;

  // Thread-safe. Takes `rec` as task idx's record; false, with nothing
  // written or counted, when the task already has one.
  bool record(std::size_t idx, TaskRecord rec);
  bool done(std::size_t idx) const;
  std::size_t remaining() const;  // tasks without a record

  // Counts, sums and rates so far, under one lock; the live line, the
  // final host-phase line and the --status-endpoint JSON all print this.
  ProgressSnapshot progress() const;
  // Ends the progress line; the report with every task's latest record in
  // grid order. Call once: the records move into the report.
  CampaignReport finish();

 private:
  ProgressSnapshot progress_locked() const;

  std::string name_;
  bool print_;
  std::vector<TaskSpec> tasks_;
  std::unordered_map<std::string, std::size_t> index_;  // id -> tasks_ idx
  ResultStore store_;
  std::vector<std::size_t> pending_;
  std::chrono::steady_clock::time_point start_;
  mutable std::mutex mutex_;  // guards everything below
  std::vector<std::optional<TaskRecord>> latest_;  // per task, grid order
  std::vector<bool> done_;  // satisfied at open or recorded this run
  CampaignReport report_;   // counts and sums, never records
};

// Runs `spec` with `runner`, appending one record per executed task to the
// store at options.out_path. Rerunning with the same path resumes: tasks
// whose records already exist are skipped (any status; with retry_failed,
// only "ok" records are skipped and failed tasks get a fresh record).
CampaignReport run_campaign(const SweepSpec& spec, const TaskRunner& runner,
                            const CampaignOptions& options);

// Per-task knobs for the production runners: the one declaration of every
// option that changes how a task is simulated or what its record carries.
// run_option_fields() below describes each member once; the tools' flags,
// the process-worker argv and the remote SPEC frame (RemoteSpec::run) are
// all generated from that registry.
struct RunnerOptions {
  // Sample deltas of every SimStats counter each `interval` committed
  // instructions (obs/interval.hpp); the series lands in the task's record
  // ("interval" + "series" fields). 0 = off.
  u64 interval = 0;
  // Collect host-phase profiles (SimStats::host_profile, serialised as the
  // record's "host_phases" object) and print their sum after the run.
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
  // Sampled simulation (src/sampling/): K intervals per task, each with
  // `sample_warmup` discarded warm-up commits. 0 = monolithic;
  // sampling::make_sampled_runner() is the runner that honours them.
  unsigned sample_intervals = 0;
  u64 sample_warmup = sampling::kDefaultSampleWarmup;

  bool operator==(const RunnerOptions&) const = default;
};

// One RunnerOptions member as every consumer sees it. Consumers loop over
// run_option_fields() instead of naming members, so a new knob is one
// member plus one entry, and the code that reads its value.
struct RunOptionField {
  const char* key;          // JSON key in the remote SPEC frame
  const char* flag;         // CLI flag, e.g. "--cpi-stack"
  const char* placeholder;  // value placeholder ("" for a bool flag)
  std::string help;
  std::variant<bool RunnerOptions::*, unsigned RunnerOptions::*,
               u64 RunnerOptions::*, std::string RunnerOptions::*>
      member;
  // Reaches local worker processes but never the SPEC frame: a remote
  // worker keeps its own value (the checkpoint cache is a host's choice).
  bool host_local = false;

  bool is_default(const RunnerOptions& o) const;
  // The value as a JSON token: true, 5000, "/tmp/ckpt".
  std::string json(const RunnerOptions& o) const;
  // Sets the member from a SPEC-frame value. False — leaving *o as it
  // was — on a wrong JSON type or a number that is negative, fractional
  // or out of the member's range.
  bool set_json(const obs::JsonValue& v, RunnerOptions* o) const;
  void copy(const RunnerOptions& from, RunnerOptions* to) const;
};

// Every RunnerOptions member, in declaration order; the SPEC frame and
// the worker argv write fields in this order.
const std::vector<RunOptionField>& run_option_fields();

// Registers one option per registry field on `parser`, writing into *out.
// Fields whose key is in `skip` are left out (bsp-sim owns a different
// --interval-stats).
void add_run_option_flags(ArgParser& parser, RunnerOptions* out,
                          const std::vector<std::string>& skip = {});

// The flags that reproduce `options` on a worker's command line: every
// field that differs from its default, host-local ones included.
std::vector<std::string> run_option_args(const RunnerOptions& options);

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

// The task body every production runner shares, monolithic tasks and
// sampled intervals alike: `config` runs `program` from `start` (the
// functional state after task.fast_forward instructions; null = reset),
// discards task.warmup commits, then measures task.instructions, with
// `options`' interval series, host profile and CPI stack. Fills the
// outcome's stats, error, series and exit status; checkpoint bookkeeping is
// the caller's.
TaskOutcome simulate_task(const TaskSpec& task, const MachineConfig& config,
                          const Program& program, const Checkpoint* start,
                          const RunnerOptions& options);

// The production runner: runs each task's machine configuration on its
// memoised workload, restoring fast-forward checkpoints through a second
// build-once memo. Co-simulation divergence and workload-build failures
// come back as outcome errors, never as exceptions or aborts.
TaskRunner make_sim_runner(const RunnerOptions& options = {});

}  // namespace bsp::campaign
