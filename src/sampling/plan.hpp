// Interval planner for sampled simulation (SMARTS/SimPoint-style).
//
// A monolithic detailed run is `fast_forward` functional instructions,
// then `warmup` detail commits with statistics discarded, then
// `max_commits` measured detail commits. plan_intervals() shards the
// measured region into K contiguous chunks, each becoming one
// independently simulable interval: fast-forward to `offset` functional
// instructions (on the emulator / from a cached checkpoint), run `warmup`
// detail commits discarded, then measure `commits`.
//
// Offsets are exact, not approximate: the timing core retires precisely
// the instructions its co-simulation oracle executes, so "detail commit
// number c" and "functional instruction number c" name the same dynamic
// instruction. Stitching the K measured chunks therefore re-covers the
// monolithic measured stream without gaps or overlaps; the only modelling
// error is microarchitectural state at each interval's start, which the
// per-interval warm-up bounds (cold caches/predictors heat during the
// discarded commits, as in SMARTS functional warming).
//
// The plan embeds the monolithic-equivalence invariant the sched-
// equivalence goldens pin: interval 0 keeps the run's own boundary
// (offset = fast_forward, warm-up = the monolithic `warmup`), so a K=1
// plan is *exactly* the monolithic run and its SimStats must be
// bit-identical. Later intervals start `sample_warmup` commits early:
// pos_i = fast_forward + warmup + measured_start_i, warm-up_i =
// min(sample_warmup, pos_i), offset_i = pos_i - warmup_i.
#pragma once

#include <vector>

#include "util/bitops.hpp"

namespace bsp::sampling {

// Default per-interval warm-up commits (`sample_warmup` below; the
// --sample-warmup flags and the campaign runner options start from it).
inline constexpr u64 kDefaultSampleWarmup = 2000;

// One independently simulable shard of the measured stream.
struct IntervalSpec {
  unsigned index = 0;
  u64 offset = 0;          // functional instructions before detail starts
  u64 warmup = 0;          // detail commits discarded before measuring
  u64 commits = 0;         // measured detail commits
  u64 measured_start = 0;  // position in the monolithic measured stream
};

struct SamplePlan {
  // The monolithic run being sharded.
  u64 max_commits = 0;
  u64 warmup = 0;
  u64 fast_forward = 0;
  u64 sample_warmup = 0;  // requested per-interval warm-up (intervals > 0)
  std::vector<IntervalSpec> intervals;
};

// Splits `max_commits` measured commits into `intervals` contiguous chunks
// (sizes differ by at most one; earlier chunks take the remainder).
// `intervals` is clamped to [1, max(1, max_commits)] so every interval
// measures at least one commit. A 1-interval plan is exactly the
// monolithic run.
SamplePlan plan_intervals(u64 max_commits, u64 warmup, u64 fast_forward,
                          unsigned intervals, u64 sample_warmup);

}  // namespace bsp::sampling
