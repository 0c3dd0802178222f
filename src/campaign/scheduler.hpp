// Fault-tolerant task scheduler for campaigns.
//
// Layered on util/parallel.hpp's worker pool, adding the three things a
// long unattended sweep needs and a bare parallel loop lacks:
//  * fault isolation — a task that throws or returns a co-simulation error
//    is recorded as failed; it never brings down the campaign (and per the
//    parallel_for contract, exceptions must not escape into the pool);
//  * bounded retry — failed attempts are retried up to max_attempts before
//    the task is recorded as "failed";
//  * a per-attempt wall-clock timeout — a wedged attempt is abandoned and
//    recorded as "timeout".
//
// Two isolation modes govern how strong that containment is:
//  * IsolationMode::kThread (default) — attempts run in-process on pool
//    threads. Cheap (shared workload cache), but a segfaulting task takes
//    the whole campaign down, and a timed-out attempt's thread can only be
//    *detached*, not killed (C++ has no safe thread kill): it keeps a
//    core's worth of work alive until it finishes on its own.
//  * IsolationMode::kProcess — each attempt fork/execs a worker process
//    (util/subprocess.hpp) that runs exactly one task and prints its
//    TaskRecord JSONL on stdout. A crashing worker is recorded as
//    "crashed" with its signal name instead of killing the sweep; a
//    timed-out worker is SIGKILLed and reaped, so the core is actually
//    reclaimed; per-task rusage (peak RSS, user/sys CPU) flows into the
//    outcome. Costs a fork/exec and a workload re-build per task.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "campaign/store.hpp"

namespace bsp::campaign {

// Runs a single attempt and returns its TaskOutcome, runner-side fields
// filled (empty `error` means success). May throw; the scheduler converts
// the exception into a failed attempt. Must be safe to call from several
// threads at once and must stay valid until every (possibly detached)
// attempt finished — in practice: keep all state inside shared_ptr
// captures, as make_sim_runner() does.
using TaskRunner = std::function<TaskOutcome(const TaskSpec&)>;

enum class IsolationMode {
  kThread,   // in-process attempts on pool threads (shared address space)
  kProcess,  // one worker subprocess per attempt (crash/timeout containment)
};

struct SchedulerOptions {
  unsigned jobs = 0;          // worker threads (0 = hardware concurrency)
  unsigned max_attempts = 2;  // first try + bounded retries
  double timeout_sec = 0;     // per-attempt wall clock; 0 = no timeout
  IsolationMode isolate = IsolationMode::kThread;
  // kProcess only: argv prefix of the worker command; the scheduler appends
  // the task as the final argument. With worker_task_json set that is the
  // full status:"queued" record line (task_jsonl) — the form bsp-sweep's
  // hidden --worker-json flag reads, self-contained because the record
  // carries the whole parameter tuple — otherwise the task id. The worker
  // must run that one task and print its TaskRecord as a single JSONL line
  // on stdout.
  std::vector<std::string> worker_cmd;
  bool worker_task_json = false;
  // Shared on-disk checkpoint cache directory (campaign/ckpt_cache.hpp).
  // "" = no cache: every worker fast-forwards for itself. When set,
  // prewarm_checkpoint_cache() materialises each distinct checkpoint once
  // before the sweep and workers (threads or subprocesses) restore from it.
  std::string ckpt_cache_dir;
};

// One representative task per distinct (workload, seed, fast_forward > 0),
// in first-seen order: every task of a group starts timing from the same
// checkpoint. The local pre-pass below materialises one per group; a remote
// coordinator sends each to every worker as a PREWARM frame.
std::vector<TaskSpec> checkpoint_groups(const std::vector<TaskSpec>& tasks);

// Checkpoint-cache pre-pass: materialises the BSPC checkpoint of each
// checkpoint_groups() group into options.ckpt_cache_dir exactly once
// (ckpt_cache.hpp does the content keying and the atomic publish). Runs
// groups on options.jobs threads. After this pass every worker —
// thread or subprocess, this sweep or a concurrent one over the same
// directory — restores in milliseconds instead of re-emulating. No-op
// (all-zero stats) when ckpt_cache_dir is empty.
struct PrewarmStats {
  std::size_t groups = 0;        // distinct (workload, seed, ff>0) tuples
  std::size_t materialised = 0;  // fast-forwarded and published this call
  std::size_t reused = 0;        // already present in the cache directory
  std::size_t failed = 0;        // build/fast-forward/publish failures
  double ffwd_sec = 0;           // host seconds across materialisations
};
PrewarmStats prewarm_checkpoint_cache(const std::vector<TaskSpec>& tasks,
                                      const SchedulerOptions& options);

// Runs one task to completion (attempts + timeout handling).
TaskOutcome run_one_task(const TaskSpec& task, const TaskRunner& runner,
                         const SchedulerOptions& options);

// Runs every task on a worker pool. `on_done` is called exactly once per
// task, from the worker thread that finished it, in completion order; it
// must be thread-safe. With jobs == 1 execution (and hence completion) is
// in task order — the deterministic mode the tests use.
void run_tasks(const std::vector<TaskSpec>& tasks, const TaskRunner& runner,
               const SchedulerOptions& options,
               const std::function<void(std::size_t, const TaskOutcome&)>&
                   on_done);

}  // namespace bsp::campaign
