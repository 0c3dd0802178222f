#include "sampling/runner.hpp"

#include "workloads/workloads.hpp"

namespace bsp::sampling {

campaign::TaskRunner make_sampled_runner(
    const campaign::RunnerOptions& options) {
  // The task itself already occupies one scheduler slot; its interval
  // workers run inline on that slot so a sweep's total thread count stays
  // at the scheduler's --jobs.
  SampleOptions base;
  base.intervals = options.sample_intervals;
  base.warmup = options.sample_warmup;
  base.jobs = 1;
  base.ckpt_cache_dir = options.ckpt_cache_dir;
  base.host_profile = options.host_profile;
  base.cpi_stack = options.cpi_stack;
  return campaign::memoise_workloads([base, options](
                                         const campaign::TaskSpec& task,
                                         const Workload& workload) {
    campaign::TaskOutcome r;
    SampleOptions opts = base;
    // The task's own cosim mode overrides the run-wide default.
    const std::string& cosim_text =
        !task.cosim.empty() ? task.cosim : options.cosim;
    if (!cosim_text.empty() && !parse_cosim(cosim_text, &opts.sim)) {
      r.error = "bad cosim mode: " + cosim_text;
      return r;
    }
    const SampledResult res = run_sampled(
        task.machine.build(), workload.program, task.workload, task.seed,
        task.instructions, task.warmup, task.fast_forward, opts);

    r.stats = res.aggregate;
    r.error = res.error;
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
