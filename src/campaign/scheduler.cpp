#include "campaign/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <set>
#include <tuple>

#include "campaign/ckpt_cache.hpp"
#include "campaign/store.hpp"
#include "util/parallel.hpp"
#include "util/subprocess.hpp"
#include "workloads/workloads.hpp"

namespace bsp::campaign {
namespace {

using Clock = std::chrono::steady_clock;

// One attempt's outcome, status and error set, and whether it is worth
// another attempt. The one retry rule: a throw, a crashed worker, a spawn
// error and a worker without a usable record are transient; an outcome
// the runner produced (success, or an error that is a property of the
// task: an unreachable fast-forward, a co-simulation divergence, a machine
// that does not build) and a timeout are final.
struct Attempt {
  TaskOutcome out;
  bool transient = false;
};

Attempt transient_failure(std::string status, std::string error) {
  Attempt a;
  a.out.status = std::move(status);
  a.out.error = std::move(error);
  a.transient = true;
  return a;
}

Attempt inline_attempt(const TaskRunner& runner, const TaskSpec& task) {
  Attempt a;
  try {
    a.out = runner(task);
  } catch (const std::exception& e) {
    return transient_failure("failed", std::string("exception: ") + e.what());
  } catch (...) {
    return transient_failure("failed", "unknown exception");
  }
  a.out.status = a.out.error.empty() ? "ok" : "failed";
  return a;
}

std::string fmt_timeout(double sec) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", sec);
  return buf;
}

// Last non-empty line of a worker's stdout — the record line, tolerating
// any stray diagnostics the worker printed before it.
std::string last_nonempty_line(const std::string& text) {
  std::size_t end = text.size();
  while (end > 0) {
    std::size_t begin = text.find_last_of('\n', end - 1);
    begin = begin == std::string::npos ? 0 : begin + 1;
    if (begin < end) return text.substr(begin, end - begin);
    end = begin > 0 ? begin - 1 : 0;
  }
  return "";
}

// "; stderr: ..." suffix for error messages, trimmed to stay readable.
std::string stderr_tail(const std::string& err) {
  if (err.empty()) return "";
  constexpr std::size_t kMax = 400;
  std::string tail =
      err.size() <= kMax ? err : "..." + err.substr(err.size() - kMax);
  while (!tail.empty() && (tail.back() == '\n' || tail.back() == '\r'))
    tail.pop_back();
  return tail.empty() ? "" : "; stderr: " + tail;
}

// An attempt in a worker process: the deadline is a SIGKILL, and the
// record the worker prints is the runner's outcome. `sp` receives the
// worker's rusage.
Attempt worker_attempt(const std::vector<std::string>& argv,
                       const TaskSpec& task, double timeout_sec,
                       SubprocessResult* sp) {
  SubprocessLimits limits;
  limits.timeout_sec = timeout_sec;
  *sp = run_subprocess(argv, limits);
  if (sp->timed_out) {
    // Final: re-running a wedged configuration would just park another
    // core on it; --retry-failed on a later run opts back in.
    Attempt a;
    a.out.status = "timeout";
    a.out.error = "worker SIGKILLed after exceeding " +
                  fmt_timeout(timeout_sec) + "s wall-clock timeout";
    return a;
  }
  if (sp->spawn_error)
    return transient_failure("failed", "worker spawn failed: " + sp->error);
  if (sp->signal != 0)
    // The containment path: the worker died, the campaign did not.
    return transient_failure("crashed", "worker killed by " +
                                            signal_name(sp->signal) +
                                            stderr_tail(sp->err));
  auto rec = parse_jsonl(last_nonempty_line(sp->out));
  if (!rec || rec->task.id() != task.id())
    return transient_failure(
        "failed", "worker exited " + std::to_string(sp->exit_code) +
                      (rec ? " with a record for the wrong task"
                           : " without a usable record") +
                      stderr_tail(sp->err));
  return {std::move(static_cast<TaskOutcome&>(*rec)), false};
}

}  // namespace

std::vector<TaskSpec> checkpoint_groups(const std::vector<TaskSpec>& tasks) {
  std::vector<TaskSpec> reps;
  std::set<std::tuple<std::string, u64, std::set<u64>>> seen;
  for (const TaskSpec& t : tasks) {
    std::set<u64> offsets = checkpoint_offsets(t);
    if (!offsets.empty() &&
        seen.emplace(t.workload, t.seed, std::move(offsets)).second)
      reps.push_back(t);
  }
  return reps;
}

PrewarmStats prewarm_checkpoint_cache(const std::vector<TaskSpec>& tasks,
                                      const SchedulerOptions& options) {
  PrewarmStats stats;
  if (options.ckpt_cache_dir.empty()) return stats;

  const std::vector<TaskSpec> groups = checkpoint_groups(tasks);
  stats.groups = groups.size();
  if (groups.empty()) return stats;

  std::mutex m;
  parallel_for(
      groups.size(),
      [&](std::size_t i) {
        const TaskSpec& g = groups[i];
        CheckpointSet set;
        try {
          WorkloadParams params;
          params.seed = g.seed;
          const Workload w = build_workload(g.workload, params);
          set = materialise_checkpoints(w.program, g.workload, g.seed,
                                        checkpoint_offsets(g),
                                        options.ckpt_cache_dir);
        } catch (const std::exception& e) {
          set.error = std::string("workload build failed: ") + e.what();
        }
        std::lock_guard<std::mutex> lock(m);
        if (!set.failure(g.fast_forward).empty())
          ++stats.failed;  // workers will hit the same error per-task
        else if (set.materialised)
          ++stats.materialised;
        else if (set.reused)
          ++stats.reused;
        // else the program ends before every offset: nothing to count
        stats.ffwd_sec += set.ffwd_sec;
      },
      options.jobs);
  return stats;
}

TaskOutcome run_one_task(const TaskSpec& task, const TaskRunner& runner,
                         const SchedulerOptions& options) {
  // A deadline needs a process to kill, so a timeout moves attempts into
  // worker processes too.
  const bool in_worker =
      options.isolate == IsolationMode::kProcess || options.timeout_sec > 0;
  if (in_worker && options.worker_cmd.empty()) {
    TaskOutcome out;
    out.attempts = 1;
    out.status = "failed";
    out.error = "worker process attempts requested but no worker_cmd "
                "configured";
    return out;
  }
  std::vector<std::string> argv;
  if (in_worker) {
    argv = options.worker_cmd;
    argv.push_back(options.worker_task_json ? task_jsonl(task) : task.id());
  }
  const auto t0 = Clock::now();
  const unsigned max_attempts = std::max(1u, options.max_attempts);
  Attempt a;
  unsigned attempts = 0;
  long max_rss_kb = 0;
  double user_sec = 0, sys_sec = 0;
  do {
    ++attempts;
    if (in_worker) {
      SubprocessResult sp;
      a = worker_attempt(argv, task, options.timeout_sec, &sp);
      max_rss_kb = std::max(max_rss_kb, sp.max_rss_kb);
      user_sec += sp.user_sec;
      sys_sec += sp.sys_sec;
    } else {
      a = inline_attempt(runner, task);
    }
  } while (a.transient && attempts < max_attempts);
  TaskOutcome out = std::move(a.out);
  out.attempts = attempts;
  out.max_rss_kb = max_rss_kb;
  out.user_sec = user_sec;
  out.sys_sec = sys_sec;
  out.duration_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return out;
}

void run_tasks(const std::vector<TaskSpec>& tasks, const TaskRunner& runner,
               const SchedulerOptions& options,
               const std::function<void(std::size_t, const TaskOutcome&)>&
                   on_done) {
  parallel_for(
      tasks.size(),
      [&](std::size_t i) {
        const TaskOutcome out = run_one_task(tasks[i], runner, options);
        on_done(i, out);
      },
      options.jobs);
}

}  // namespace bsp::campaign
