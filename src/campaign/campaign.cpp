#include "campaign/campaign.hpp"

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "campaign/ckpt_cache.hpp"
#include "campaign/progress.hpp"
#include "core/simulator.hpp"
#include "obs/interval.hpp"
#include "workloads/workloads.hpp"

namespace bsp::campaign {

namespace {

// Build-once map shared by concurrent tasks: the first caller for a key
// runs `build`; the others block on its shared_future and receive the
// same value (or rethrow the same exception).
template <class Key, class Value>
class BuildOnce {
 public:
  // *built (optional) reports whether this call was the builder.
  template <class Build>
  Value get(const Key& key, Build&& build, bool* built = nullptr) {
    std::shared_future<Value> fut;
    std::promise<Value> promise;
    bool builder = false;
    {
      std::lock_guard<std::mutex> lock(m_);
      const auto it = map_.find(key);
      if (it == map_.end()) {
        fut = promise.get_future().share();
        map_.emplace(key, fut);
        builder = true;
      } else {
        fut = it->second;
      }
    }
    if (builder) {
      try {
        promise.set_value(build());
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    }
    if (built) *built = builder;
    return fut.get();
  }

 private:
  std::mutex m_;
  std::map<Key, std::shared_future<Value>> map_;
};

}  // namespace

CampaignReport run_campaign(const SweepSpec& spec, const TaskRunner& runner,
                            const CampaignOptions& options) {
  const std::vector<TaskSpec> tasks = spec.expand();
  const std::string out_path =
      options.out_path.empty() ? spec.name + ".jsonl" : options.out_path;
  ResultStore store(out_path, options.fresh);

  // Partition the grid into already-satisfied tasks and work to do.
  std::vector<std::size_t> todo;  // indices into `tasks`
  CampaignReport report;
  report.total = tasks.size();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::string status = store.status(tasks[i].id());
    const bool satisfied =
        options.retry_failed ? status == "ok" : !status.empty();
    if (satisfied)
      ++report.skipped;
    else
      todo.push_back(i);
  }

  ProgressMeter meter(spec.name, tasks.size(), report.skipped,
                      options.progress);
  std::mutex report_mutex;
  std::vector<TaskSpec> pending;
  pending.reserve(todo.size());
  for (const std::size_t i : todo) pending.push_back(tasks[i]);

  // Checkpoint-cache pre-pass: pay each distinct fast-forward once, up
  // front, so the sweep's workers (thread or process) only ever restore.
  report.prewarm = prewarm_checkpoint_cache(pending, options.scheduler);

  run_tasks(pending, runner, options.scheduler,
            [&](std::size_t pi, const TaskOutcome& out) {
              // Thread-safe, atomic line append.
              store.append(TaskRecord{out, pending[pi]});
              meter.task_done(out);
              std::lock_guard<std::mutex> lock(report_mutex);
              ++report.ran;
              if (out.ckpt_cache == "hit") ++report.ckpt_hits;
              if (out.ckpt_cache == "miss") ++report.ckpt_misses;
              if (out.ok())
                ++report.ok;
              else if (out.status == "crashed")
                ++report.crashed;
              else
                ++report.failed;  // "failed" and "timeout" statuses
              if (out.retried()) ++report.retried;
            });
  meter.finish();

  for (const auto& task : tasks)
    if (const TaskRecord* rec = store.find(task.id()))
      report.records.push_back(*rec);
  return report;
}

TaskRunner memoise_workloads(WorkloadTaskBody body) {
  using Memo =
      BuildOnce<std::pair<std::string, u64>, std::shared_ptr<const Workload>>;
  auto memo = std::make_shared<Memo>();
  return [memo, body = std::move(body)](const TaskSpec& task) {
    std::shared_ptr<const Workload> workload;
    try {
      workload = memo->get({task.workload, task.seed}, [&] {
        WorkloadParams params;
        params.seed = task.seed;
        return std::make_shared<const Workload>(
            build_workload(task.workload, params));
      });
    } catch (const std::exception& e) {
      TaskOutcome r;
      r.error = std::string("workload build failed: ") + e.what();
      return r;
    }
    return body(task, *workload);
  };
}

TaskRunner make_sim_runner(const RunnerOptions& options) {
  // (workload, seed, fast_forward) -> start checkpoint: within one process
  // each distinct fast-forward is paid (or its cache file read) exactly
  // once, no matter how many concurrent tasks need it.
  using CkptMemo = BuildOnce<std::tuple<std::string, u64, u64>, CkptFetch>;
  auto ckpts = std::make_shared<CkptMemo>();
  return memoise_workloads([ckpts, options](const TaskSpec& task,
                                            const Workload& workload) {
    TaskOutcome r;
    // Fast-forward tasks start from a shared checkpoint: in-process memo
    // first, then the on-disk cache, then (cold path) one fast-forward run
    // whose result every later task reuses.
    CkptFetch ckpt;
    if (task.fast_forward > 0) {
      bool builder = false;
      ckpt = ckpts->get(
          {task.workload, task.seed, task.fast_forward},
          [&] {
            return fetch_checkpoint(options.ckpt_cache_dir, task.workload,
                                    task.seed, workload.program,
                                    task.fast_forward);
          },
          &builder);
      if (!ckpt.ok()) {
        r.error = "fast-forward failed: " + ckpt.error;
        return r;
      }
      // Memo consumers after the first share the builder's fetch; only the
      // builder reports its miss (and pays its ffwd_sec) so per-task
      // records sum to the real host cost instead of multiply counting it.
      if (!builder) {
        ckpt.hit = true;
        ckpt.ffwd_sec = 0;
      }
    }
    Simulator sim = task.fast_forward > 0
                        ? Simulator(task.machine.build(), workload.program,
                                    *ckpt.checkpoint)
                        : Simulator(task.machine.build(), workload.program);
    obs::IntervalSampler sampler(options.interval ? options.interval : 1);
    if (options.interval) sim.set_interval_sampler(&sampler);
    if (options.host_profile) sim.enable_host_profile();
    if (options.cpi_stack) sim.enable_cpi_stack();
    const std::string& cosim_text =
        !task.cosim.empty() ? task.cosim : options.cosim;
    if (!cosim_text.empty()) {
      SimOptions so;
      if (!parse_cosim(cosim_text, &so)) {
        r.error = "bad cosim mode: " + cosim_text;
        return r;
      }
      sim.set_options(so);
    }
    const SimResult res = sim.run(task.instructions, task.warmup);
    r.stats = res.stats;
    r.error = res.error;
    if (task.fast_forward > 0) {
      r.ckpt_cache = ckpt.hit ? "hit" : "miss";
      r.ffwd_sec = ckpt.ffwd_sec;
      if (options.host_profile) r.stats.host_profile.ffwd = ckpt.ffwd_sec;
    }
    if (options.interval) {
      r.interval = options.interval;
      r.series.reserve(sampler.rows().size());
      for (const obs::IntervalRow& row : sampler.rows()) {
        std::vector<u64> flat;
        flat.reserve(2 + row.delta.size());
        flat.push_back(row.cycle);
        flat.push_back(row.committed);
        flat.insert(flat.end(), row.delta.begin(), row.delta.end());
        r.series.push_back(std::move(flat));
      }
    }
    return r;
  });
}

}  // namespace bsp::campaign
