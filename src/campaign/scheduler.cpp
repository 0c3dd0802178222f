#include "campaign/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "campaign/ckpt_cache.hpp"
#include "campaign/store.hpp"
#include "util/parallel.hpp"
#include "util/subprocess.hpp"
#include "workloads/workloads.hpp"

namespace bsp::campaign {
namespace {

using Clock = std::chrono::steady_clock;

TaskOutcome guarded_call(const TaskRunner& runner, const TaskSpec& task) {
  try {
    return runner(task);
  } catch (const std::exception& e) {
    TaskOutcome r;
    r.error = std::string("exception: ") + e.what();
    return r;
  } catch (...) {
    TaskOutcome r;
    r.error = "unknown exception";
    return r;
  }
}

// One attempt under a wall-clock deadline. The attempt runs on its own
// thread; on timeout that thread is detached and its (eventual) result
// discarded. Everything the detached thread touches is owned by the
// shared_ptr state, so abandonment is memory-safe — but the thread keeps
// burning a core until it finishes. IsolationMode::kProcess is the mode
// that actually reclaims the core (SIGKILL + reap).
TaskOutcome timed_call(const TaskRunner& runner, const TaskSpec& task,
                       double timeout_sec, bool* timed_out) {
  struct Shared {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    TaskOutcome result;
  };
  auto shared = std::make_shared<Shared>();
  std::thread worker([shared, runner, task] {
    TaskOutcome r = guarded_call(runner, task);
    std::lock_guard<std::mutex> lock(shared->m);
    shared->result = std::move(r);
    shared->done = true;
    shared->cv.notify_all();
  });
  bool done;
  {
    std::unique_lock<std::mutex> lock(shared->m);
    done = shared->cv.wait_for(lock, std::chrono::duration<double>(timeout_sec),
                               [&] { return shared->done; });
  }
  if (!done) {
    worker.detach();
    *timed_out = true;
    return TaskOutcome{};
  }
  worker.join();
  *timed_out = false;
  return std::move(shared->result);
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

// One task under process isolation: fork/exec the worker per attempt,
// enforce the deadline with SIGKILL, and take the worker's printed record
// as the outcome. Attempts, duration and rusage are the scheduler's own.
TaskOutcome run_one_task_process(const TaskSpec& task,
                                 const SchedulerOptions& options) {
  TaskOutcome out;
  const auto t0 = Clock::now();
  const unsigned max_attempts = std::max(1u, options.max_attempts);
  std::vector<std::string> argv = options.worker_cmd;
  argv.push_back(options.worker_task_json ? task_jsonl(task) : task.id());
  unsigned attempts = 0;
  long max_rss_kb = 0;
  double user_sec = 0, sys_sec = 0;
  for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
    attempts = attempt;
    SubprocessLimits limits;
    limits.timeout_sec = options.timeout_sec;
    const SubprocessResult sp = run_subprocess(argv, limits);
    max_rss_kb = std::max(max_rss_kb, sp.max_rss_kb);
    user_sec += sp.user_sec;
    sys_sec += sp.sys_sec;
    if (sp.timed_out) {
      // Not retried — re-running a wedged configuration would just park
      // another core on it; --retry-failed on a later run opts back in.
      out.status = "timeout";
      out.error = "worker SIGKILLed after exceeding " +
                  fmt_timeout(options.timeout_sec) + "s wall-clock timeout";
      break;
    }
    if (sp.spawn_error) {
      out.status = "failed";
      out.error = "worker spawn failed: " + sp.error;
      continue;
    }
    if (sp.signal != 0) {
      // The containment path: the worker died, the campaign did not. A
      // crash can be transient (e.g. the kernel OOM killer), so it gets
      // the same bounded retry as a failure.
      out.status = "crashed";
      out.error = "worker killed by " + signal_name(sp.signal) +
                  stderr_tail(sp.err);
      continue;
    }
    auto rec = parse_jsonl(last_nonempty_line(sp.out));
    if (!rec || rec->task.id() != task.id()) {
      out.status = "failed";
      out.error = "worker exited " + std::to_string(sp.exit_code) +
                  (rec ? " with a record for the wrong task"
                       : " without a usable record") +
                  stderr_tail(sp.err);
      continue;
    }
    out = std::move(static_cast<TaskOutcome&>(*rec));
    if (out.ok()) break;
  }
  out.attempts = attempts;
  out.max_rss_kb = max_rss_kb;
  out.user_sec = user_sec;
  out.sys_sec = sys_sec;
  out.duration_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return out;
}

}  // namespace

std::vector<TaskSpec> checkpoint_groups(const std::vector<TaskSpec>& tasks) {
  std::vector<TaskSpec> reps;
  for (const TaskSpec& t : tasks) {
    if (t.fast_forward == 0) continue;
    const auto same = [&](const TaskSpec& r) {
      return r.workload == t.workload && r.seed == t.seed &&
             r.fast_forward == t.fast_forward;
    };
    if (std::none_of(reps.begin(), reps.end(), same)) reps.push_back(t);
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
                                        {g.fast_forward},
                                        options.ckpt_cache_dir);
        } catch (const std::exception& e) {
          set.error = std::string("workload build failed: ") + e.what();
        }
        std::lock_guard<std::mutex> lock(m);
        if (!set.failure(g.fast_forward).empty())
          ++stats.failed;  // workers will hit the same error per-task
        else if (set.reused)
          ++stats.reused;
        else
          ++stats.materialised;
        stats.ffwd_sec += set.ffwd_sec;
      },
      options.jobs);
  return stats;
}

TaskOutcome run_one_task(const TaskSpec& task, const TaskRunner& runner,
                         const SchedulerOptions& options) {
  if (options.isolate == IsolationMode::kProcess) {
    if (options.worker_cmd.empty()) {
      TaskOutcome out;
      out.attempts = 1;
      out.status = "failed";
      out.error = "process isolation requested but no worker_cmd configured";
      return out;
    }
    return run_one_task_process(task, options);
  }
  TaskOutcome out;
  const auto t0 = Clock::now();
  const unsigned max_attempts = std::max(1u, options.max_attempts);
  unsigned attempts = 0;
  for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
    attempts = attempt;
    bool timed_out = false;
    TaskOutcome r =
        options.timeout_sec > 0
            ? timed_call(runner, task, options.timeout_sec, &timed_out)
            : guarded_call(runner, task);
    if (timed_out) {
      out.status = "timeout";
      out.error = "attempt exceeded " + std::to_string(options.timeout_sec) +
                  "s wall-clock timeout";
      break;
    }
    if (r.error.empty()) {
      out = std::move(r);
      out.status = "ok";
      break;
    }
    // A failed attempt contributes only its error.
    out.status = "failed";
    out.error = std::move(r.error);
  }
  out.attempts = attempts;
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
