// Fault-tolerant task scheduler for campaigns.
//
// Layered on util/parallel.hpp's worker pool, adding the three things a
// long unattended sweep needs and a bare parallel loop lacks:
//  * fault isolation — a task that throws, crashes its worker or returns an
//    error is recorded; it never brings down the campaign (and per the
//    parallel_for contract, exceptions must not escape into the pool);
//  * bounded retry — up to max_attempts, for transient failures only;
//  * a per-attempt wall-clock timeout — a wedged attempt's worker process
//    is SIGKILLed and reaped, and the task recorded as "timeout".
//
// An attempt runs one of two ways:
//  * inline — the runner is called on the pool thread. Cheap (shared
//    workload and checkpoint memos), but a segfaulting task takes the
//    whole campaign down. Used for IsolationMode::kThread without a
//    timeout.
//  * in a worker process — each attempt fork/execs worker_cmd
//    (util/subprocess.hpp), which runs exactly one task and prints its
//    TaskRecord JSONL on stdout. A crashing worker is recorded as "crashed"
//    with its signal name instead of killing the sweep; a timed-out worker
//    is SIGKILLed and reaped, so the core is reclaimed; per-task rusage
//    (peak RSS, user/sys CPU) flows into the outcome. Costs a fork/exec and
//    a workload re-build per task. Used for IsolationMode::kProcess, and
//    for any timeout_sec > 0: a deadline needs a process to kill.
//
// One rule decides what is retried, from where the failure came from:
//  * a throw, a crashed worker, a spawn error, or a worker that printed no
//    usable record is retried, up to max_attempts in all;
//  * an error the runner returned is final — it is a property of the task
//    (an unreachable fast-forward, a co-simulation divergence, a workload
//    or machine that does not build) and would recur;
//  * a timeout is final — another attempt would park another core on it.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "campaign/store.hpp"

namespace bsp::campaign {

// Runs a single attempt inline and returns its TaskOutcome, runner-side
// fields filled (empty `error` means success; a returned error is final).
// May throw; the scheduler records the exception as a transient failure.
// Must be safe to call from several threads at once.
using TaskRunner = std::function<TaskOutcome(const TaskSpec&)>;

enum class IsolationMode {
  kThread,   // inline attempts on pool threads, unless timeout_sec > 0
  kProcess,  // one worker subprocess per attempt (crash containment)
};

struct SchedulerOptions {
  unsigned jobs = 0;          // worker threads (0 = hardware concurrency)
  unsigned max_attempts = 2;  // first try + bounded retries
  double timeout_sec = 0;     // per-attempt wall clock; 0 = no timeout
  IsolationMode isolate = IsolationMode::kThread;
  // Worker attempts (kProcess, or timeout_sec > 0): argv prefix of the
  // worker command; without one such an attempt fails. The scheduler appends
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

// One representative task per distinct non-empty (workload, seed,
// checkpoint_offsets), in first-seen order. The local pre-pass below
// materialises each group's checkpoints; a remote coordinator sends each
// representative to every worker as a PREWARM frame.
std::vector<TaskSpec> checkpoint_groups(const std::vector<TaskSpec>& tasks);

// Checkpoint-cache pre-pass: materialises the BSPC checkpoints of each
// checkpoint_groups() group into options.ckpt_cache_dir exactly once
// (ckpt_cache.hpp does the content keying and the atomic publish). Runs
// groups on options.jobs threads. After this pass every worker —
// thread or subprocess, this sweep or a concurrent one over the same
// directory — restores in milliseconds instead of re-emulating. No-op
// (all-zero stats) when ckpt_cache_dir is empty. A group whose program
// ends before every offset is neither materialised, reused nor failed.
struct PrewarmStats {
  std::size_t groups = 0;        // checkpoint_groups() of the tasks
  std::size_t materialised = 0;  // groups this call fast-forwarded
  std::size_t reused = 0;        // groups wholly in the cache directory
  std::size_t failed = 0;        // build/fast-forward/publish failures
  double ffwd_sec = 0;           // host seconds across materialisations
};
PrewarmStats prewarm_checkpoint_cache(const std::vector<TaskSpec>& tasks,
                                      const SchedulerOptions& options);

// Runs one task to completion: attempts, retry rule and timeout.
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
