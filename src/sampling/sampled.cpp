#include "sampling/sampled.hpp"

#include <set>
#include <sstream>

#include "obs/interval.hpp"
#include "obs/json.hpp"
#include "stats/stats.hpp"
#include "util/parallel.hpp"

namespace bsp::sampling {

PrewarmResult materialise_interval_checkpoints(const Program& program,
                                               const std::string& workload,
                                               u64 seed,
                                               const SamplePlan& plan,
                                               const std::string& cache_dir) {
  std::set<u64> offsets;
  for (const IntervalSpec& spec : plan.intervals) offsets.insert(spec.offset);
  return campaign::materialise_checkpoints(program, workload, seed, offsets,
                                           cache_dir);
}

std::string interval_to_jsonl(const IntervalResult& r) {
  std::ostringstream os;
  os << "{\"type\":\"interval\""
     << ",\"index\":" << r.spec.index
     << ",\"offset\":" << r.spec.offset
     << ",\"warmup\":" << r.spec.warmup
     << ",\"commits\":" << r.spec.commits
     << ",\"measured_start\":" << r.spec.measured_start
     << ",\"status\":\""
     << (r.skipped ? "skipped" : r.ok() ? "ok" : "failed") << "\""
     << ",\"exited\":" << (r.exited ? "true" : "false")
     << ",\"exit_code\":" << r.exit_code
     << ",\"host_sec\":" << obs::fixed6(r.host_sec);
  if (!r.error.empty())
    os << ",\"error\":\"" << obs::json_escape(r.error) << "\"";
  if (!r.skipped && r.ok()) {
    os << ",\"stats\":{";
    bool first = true;
    for (const obs::CounterDesc& c : obs::simstats_counters()) {
      os << (first ? "\"" : ",\"") << c.name << "\":" << r.stats.*c.field;
      first = false;
    }
    os << ",\"host_seconds\":" << obs::fixed6(r.stats.host_seconds)
       << ",\"ipc\":" << obs::fixed6(r.stats.ipc()) << "}";
  }
  os << "}";
  return os.str();
}

SampledResult run_intervals(const campaign::TaskSpec& task,
                            const MachineConfig& config,
                            const Program& program,
                            const campaign::CheckpointSet& ckpts,
                            const campaign::RunnerOptions& run,
                            unsigned jobs) {
  SampledResult out;
  out.plan = plan_intervals(task.instructions, task.warmup, task.fast_forward,
                            task.sample_intervals, task.sample_warmup);
  // Interval 0 starts at the run's own fast-forward: a failed pass, or a
  // program that ends before that offset, fails the run exactly as it
  // fails the monolithic one.
  out.error = ckpts.failure(task.fast_forward);
  if (!out.error.empty()) return out;
  const std::size_t k = out.plan.intervals.size();
  out.intervals.resize(k);
  // Later intervals whose checkpoint the functional pass never reached
  // (the program exited first) are skipped up front; workers run the rest
  // in parallel.
  std::vector<std::size_t> runnable;
  for (std::size_t i = 0; i < k; ++i) {
    const IntervalSpec& spec = out.plan.intervals[i];
    out.intervals[i].spec = spec;
    if (spec.offset > 0 && !ckpts.by_offset.count(spec.offset)) {
      out.intervals[i].skipped = true;
    } else {
      runnable.push_back(i);
    }
  }

  parallel_for(
      runnable.size(),
      [&](std::size_t r) {
        IntervalResult& iv = out.intervals[runnable[r]];
        campaign::TaskSpec t = task;
        t.sample_intervals = 0;
        t.fast_forward = iv.spec.offset;
        t.warmup = iv.spec.warmup;
        t.instructions = iv.spec.commits;
        const WallTimer timer;
        campaign::TaskOutcome o = campaign::simulate_task(
            t, config, program, ckpts.start(t.fast_forward), run);
        iv.stats = std::move(o.stats);
        iv.error = std::move(o.error);
        iv.exited = o.exited;
        iv.exit_code = o.exit_code;
        iv.host_sec = timer.seconds();
      },
      jobs);

  for (const IntervalResult& r : out.intervals) {
    if (r.skipped) {
      out.exited = true;  // the program ended before this interval
    } else if (r.exited) {
      out.exited = true;
      out.exit_code = r.exit_code;
    }
    if (!r.ok() && out.error.empty())
      out.error = "interval " + std::to_string(r.spec.index) + ": " + r.error;
  }

  out.aggregate = stitch_stats(out.intervals);
  out.ipc = estimate_ipc(out.intervals);
  return out;
}

SampledResult run_sampled(const MachineConfig& config, const Program& program,
                          const std::string& workload, u64 seed,
                          u64 max_commits, u64 warmup, u64 fast_forward,
                          const SampleOptions& opts,
                          const campaign::RunnerOptions& run) {
  campaign::TaskSpec task;
  task.workload = workload;
  task.seed = seed;
  task.instructions = max_commits;
  task.warmup = warmup;
  task.fast_forward = fast_forward;
  task.sample_intervals = opts.intervals;
  task.sample_warmup = opts.warmup;
  const WallTimer wall;
  const PrewarmResult prewarm = campaign::materialise_checkpoints(
      program, workload, seed, campaign::checkpoint_offsets(task),
      opts.ckpt_cache_dir);
  SampledResult out =
      run_intervals(task, config, program, prewarm, run, opts.jobs);
  out.ckpt_materialised = prewarm.materialised;
  out.ckpt_reused = prewarm.reused;
  out.prewarm_sec = prewarm.ffwd_sec;
  out.wall_sec = wall.seconds();
  return out;
}

}  // namespace bsp::sampling
