#include "sampling/runner.hpp"

#include "workloads/workloads.hpp"

namespace bsp::sampling {

campaign::TaskRunner make_sampled_runner(
    const campaign::RunnerOptions& options) {
  // The task itself already occupies one scheduler slot; its interval
  // workers run inline on that slot so a sweep's total thread count stays
  // at the scheduler's --jobs.
  SampleOptions opts;
  opts.intervals = options.sample_intervals;
  opts.warmup = options.sample_warmup;
  opts.jobs = 1;
  opts.ckpt_cache_dir = options.ckpt_cache_dir;
  return campaign::memoise_workloads([opts, options](
                                         const campaign::TaskSpec& task,
                                         const Workload& workload) {
    const SampledResult res = run_sampled(task, task.machine.build(),
                                          workload.program, opts, options);
    campaign::TaskOutcome r;
    r.stats = res.aggregate;
    r.error = res.error;
    r.exited = res.exited;
    r.exit_code = res.exit_code;
    if (res.ckpt_materialised + res.ckpt_reused > 0) {
      r.ckpt_cache = res.ckpt_materialised ? "miss" : "hit";
      r.ffwd_sec = res.prewarm_sec;
      if (options.host_profile)
        r.stats.host_profile.ffwd = res.prewarm_sec;
    }
    r.sample_intervals = res.plan.intervals.size();
    r.sample_warmup = res.plan.sample_warmup;
    r.ipc_mean = res.ipc.mean;
    r.ipc_ci95 = res.ipc.ci95;
    for (const IntervalResult& iv : res.intervals) {
      if (!iv.measured()) continue;
      r.samples.push_back({iv.spec.index, iv.spec.offset, iv.spec.warmup,
                           iv.spec.commits, iv.stats.cycles,
                           iv.stats.committed});
    }
    return r;
  });
}

}  // namespace bsp::sampling
