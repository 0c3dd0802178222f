// Campaign integration: a TaskRunner that simulates each sweep task via
// the sampled-simulation engine instead of one monolithic Simulator::run.
//
// Lives in src/sampling/ (not src/campaign/) to keep the library graph
// acyclic: bsp_sampling links bsp_campaign for the checkpoint cache and
// store helpers, so the campaign library cannot link back. bsp-sweep picks
// this runner over make_sim_runner() when --sample-intervals is given.
//
// Each task's (workload, seed, task.fast_forward ± warm-up) interval
// checkpoints land in the shared cache directory keyed by functional
// offset, so every machine point of a sweep grid — and every rerun over
// the same directory — reuses one functional prewarm per (workload, seed).
#pragma once

#include "campaign/campaign.hpp"
#include "sampling/sampled.hpp"

namespace bsp::sampling {

// Builds the sampling TaskRunner from the campaign's per-task knobs:
// options.sample_intervals (K, > 0) and sample_warmup shape each task's
// plan; ckpt_cache_dir, host_profile and cpi_stack mean what they mean for
// make_sim_runner(). Interval workers always run as threads on the
// task's own scheduler slot — the sweep's --isolate process already wraps
// the whole task in a subprocess, and nesting another fork/exec layer per
// interval would multiply process churn for no extra containment.
// Workload programs come from the same memo as make_sim_runner()'s
// (campaign::memoise_workloads).
campaign::TaskRunner make_sampled_runner(
    const campaign::RunnerOptions& options);

}  // namespace bsp::sampling
