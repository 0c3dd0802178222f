// Sampled-simulation tests: planner invariants, the stat-merge algebra the
// stitcher is built on, the Student-t error bound, the interval JSONL
// protocol, and the engine's acceptance properties — a 1-interval run is
// bit-identical to the monolithic run, per-interval stats are
// deterministic across reruns, the prewarm pass reuses published
// checkpoints, and a K-interval estimate's confidence interval contains
// the monolithic IPC on the pinned workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "campaign/ckpt_cache.hpp"
#include "config/machine_config.hpp"
#include "core/simulator.hpp"
#include "emu/checkpoint.hpp"
#include "obs/interval.hpp"
#include "sampling/sampled.hpp"
#include "stats/stats.hpp"
#include "workloads/workloads.hpp"

namespace bsp::sampling {
namespace {

// --- planner ---------------------------------------------------------------

TEST(Plan, SingleIntervalIsExactlyTheMonolithicRun) {
  const SamplePlan p = plan_intervals(12'000, 3'000, 40'000, 1, 2'000);
  ASSERT_EQ(p.intervals.size(), 1u);
  const IntervalSpec& s = p.intervals[0];
  EXPECT_EQ(s.offset, 40'000u);   // the run's own fast-forward boundary
  EXPECT_EQ(s.warmup, 3'000u);    // the monolithic warm-up, not sample_warmup
  EXPECT_EQ(s.commits, 12'000u);
  EXPECT_EQ(s.measured_start, 0u);
}

TEST(Plan, ChunksAreContiguousExhaustiveAndBalanced) {
  const u64 kM = 10'001, kW = 500, kFF = 0, kN = 300;
  const SamplePlan p = plan_intervals(kM, kW, kFF, 4, kN);
  ASSERT_EQ(p.intervals.size(), 4u);

  u64 covered = 0;
  for (std::size_t i = 0; i < p.intervals.size(); ++i) {
    const IntervalSpec& s = p.intervals[i];
    EXPECT_EQ(s.index, static_cast<unsigned>(i));
    EXPECT_EQ(s.measured_start, covered) << "gap or overlap at interval " << i;
    covered += s.commits;
    if (i == 0) {
      EXPECT_EQ(s.offset, kFF);
      EXPECT_EQ(s.warmup, kW);
    } else {
      // pos = FF + W + measured_start; warm-up never reaches before reset.
      const u64 pos = kFF + kW + s.measured_start;
      EXPECT_EQ(s.warmup, std::min(kN, pos));
      EXPECT_EQ(s.offset, pos - s.warmup);
    }
  }
  EXPECT_EQ(covered, kM);
  // Sizes differ by at most one; the remainder goes to the earliest chunks.
  EXPECT_EQ(p.intervals[0].commits, 2'501u);
  EXPECT_EQ(p.intervals[3].commits, 2'500u);
}

TEST(Plan, PerIntervalWarmupClampsToThePositionBeforeReset) {
  // With no fast-forward and no monolithic warm-up, interval 1 starts at
  // measured position 100 — a 5'000-commit warm-up request must clamp to
  // everything available (offset 0, warm-up 100), not underflow.
  const SamplePlan p = plan_intervals(400, 0, 0, 4, 5'000);
  ASSERT_EQ(p.intervals.size(), 4u);
  EXPECT_EQ(p.intervals[1].offset, 0u);
  EXPECT_EQ(p.intervals[1].warmup, 100u);
}

TEST(Plan, IntervalCountClampsToCommits) {
  // More intervals than commits: every interval still measures >= 1.
  const SamplePlan p = plan_intervals(3, 0, 0, 8, 100);
  EXPECT_EQ(p.intervals.size(), 3u);
  for (const IntervalSpec& s : p.intervals) EXPECT_EQ(s.commits, 1u);
  // K = 0 is treated as 1.
  EXPECT_EQ(plan_intervals(100, 0, 0, 0, 0).intervals.size(), 1u);
}

// --- merge algebra ----------------------------------------------------------

TEST(Merge, SimStatsSumsEveryRegisteredCounter) {
  const auto& counters = obs::simstats_counters();
  ASSERT_FALSE(counters.empty());
  SimStats a, b;
  for (std::size_t i = 0; i < counters.size(); ++i) {
    a.*(counters[i].field) = i + 1;
    b.*(counters[i].field) = 1'000 + i;
  }
  a.host_seconds = 1.5;
  b.host_seconds = 2.25;
  a.merge(b);
  for (std::size_t i = 0; i < counters.size(); ++i)
    EXPECT_EQ(a.*(counters[i].field), (i + 1) + (1'000 + i))
        << "counter '" << counters[i].name << "' not summed by merge";
  EXPECT_DOUBLE_EQ(a.host_seconds, 3.75);
}

TEST(Merge, HistogramMergeEqualsAddingEverySample) {
  Histogram direct(8), left(8), right(8);
  const u64 samples_a[] = {0, 1, 1, 7, 20};  // 20 overflows
  const u64 samples_b[] = {2, 7, 7, 100};
  for (const u64 v : samples_a) { direct.add(v); left.add(v); }
  for (const u64 v : samples_b) { direct.add(v); right.add(v); }
  left.merge(right);
  ASSERT_EQ(left.total(), direct.total());
  for (std::size_t i = 0; i <= left.buckets(); ++i)
    EXPECT_EQ(left.count(i), direct.count(i)) << "bucket " << i;
  EXPECT_DOUBLE_EQ(left.mean(), direct.mean());
  EXPECT_DOUBLE_EQ(left.cumulative(7), direct.cumulative(7));
}

TEST(Merge, RunningMeanMergeHandlesEmptySides) {
  RunningMean a, b, empty;
  a.add(1.0);
  a.add(3.0);
  b.add(-2.0);
  a.merge(empty);            // no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(a.min(), -2.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
  empty.merge(a);            // empty absorbs the populated side wholesale
  EXPECT_EQ(empty.count(), 3u);
  EXPECT_DOUBLE_EQ(empty.max(), 3.0);
}

TEST(Merge, HostProfileSumsPhasesAndStaysDisabledWhenBothAre) {
  SimStats a, b;
  a.host_profile.enabled = true;
  a.host_profile.fetch = 0.5;
  b.host_profile.enabled = true;
  b.host_profile.fetch = 0.25;
  b.host_profile.commit = 1.0;
  a.merge(b);
  EXPECT_TRUE(a.host_profile.enabled);
  EXPECT_DOUBLE_EQ(a.host_profile.fetch, 0.75);
  EXPECT_DOUBLE_EQ(a.host_profile.commit, 1.0);

  SimStats c, d;
  c.merge(d);
  EXPECT_FALSE(c.host_profile.enabled);
}

// --- error bound ------------------------------------------------------------

TEST(Stitch, TCriticalMatchesTheTwoSidedTable) {
  EXPECT_GE(t_critical_975(0), 1e9);  // no variance estimate: +inf semantics
  EXPECT_NEAR(t_critical_975(1), 12.706, 1e-3);
  EXPECT_NEAR(t_critical_975(3), 3.182, 1e-3);
  EXPECT_NEAR(t_critical_975(30), 2.042, 1e-3);
  EXPECT_NEAR(t_critical_975(31), 1.96, 1e-9);   // normal approximation
  EXPECT_NEAR(t_critical_975(1000), 1.96, 1e-9);
}

IntervalResult measured_interval(unsigned index, u64 cycles, u64 committed) {
  IntervalResult r;
  r.spec.index = index;
  r.stats.cycles = cycles;
  r.stats.committed = committed;
  return r;
}

TEST(Stitch, EstimateIpcDirected) {
  std::vector<IntervalResult> iv;
  iv.push_back(measured_interval(0, 1'000, 500));  // IPC 0.5
  iv.push_back(measured_interval(1, 500, 500));    // IPC 1.0
  IntervalResult skipped;
  skipped.skipped = true;
  iv.push_back(skipped);                           // excluded
  IntervalResult failed;
  failed.error = "boom";
  failed.stats.cycles = 1;
  failed.stats.committed = 1'000'000;
  iv.push_back(failed);                            // excluded

  const IpcEstimate e = estimate_ipc(iv);
  EXPECT_EQ(e.n, 2u);
  EXPECT_DOUBLE_EQ(e.weighted, 1'000.0 / 1'500.0);
  EXPECT_DOUBLE_EQ(e.mean, 0.75);
  EXPECT_NEAR(e.stddev, 0.3535534, 1e-6);
  // t_{0.975,1} * s / sqrt(2) = 12.706 * 0.25
  EXPECT_NEAR(e.ci95, 12.706 * 0.25, 1e-3);

  const SimStats agg = stitch_stats(iv);
  EXPECT_EQ(agg.cycles, 1'500u);   // failed/skipped intervals contribute 0
  EXPECT_EQ(agg.committed, 1'000u);
}

TEST(Stitch, SingleIntervalHasNoConfidenceInterval) {
  std::vector<IntervalResult> iv = {measured_interval(0, 2'000, 1'000)};
  const IpcEstimate e = estimate_ipc(iv);
  EXPECT_EQ(e.n, 1u);
  EXPECT_DOUBLE_EQ(e.mean, 0.5);
  EXPECT_DOUBLE_EQ(e.weighted, 0.5);
  EXPECT_DOUBLE_EQ(e.ci95, 0.0);
}

// --- interval JSONL protocol ------------------------------------------------

TEST(IntervalJsonl, MeasuredRecordRoundTrips) {
  IntervalResult r;
  r.spec = {3, 7'000, 2'000, 2'500, 9'000};
  const auto& counters = obs::simstats_counters();
  for (std::size_t i = 0; i < counters.size(); ++i)
    r.stats.*(counters[i].field) = 10 * i + 1;
  r.stats.host_seconds = 0.125;
  r.exited = true;
  r.exit_code = 42;
  r.host_sec = 1.5;

  IntervalResult back;
  std::string error;
  ASSERT_TRUE(interval_from_jsonl(interval_to_jsonl(r), &back, &error))
      << error;
  EXPECT_EQ(back.spec.index, 3u);
  EXPECT_EQ(back.spec.offset, 7'000u);
  EXPECT_EQ(back.spec.warmup, 2'000u);
  EXPECT_EQ(back.spec.commits, 2'500u);
  EXPECT_EQ(back.spec.measured_start, 9'000u);
  EXPECT_TRUE(back.exited);
  EXPECT_EQ(back.exit_code, 42);
  EXPECT_DOUBLE_EQ(back.host_sec, 1.5);
  for (std::size_t i = 0; i < counters.size(); ++i)
    EXPECT_EQ(back.stats.*(counters[i].field), 10 * i + 1)
        << counters[i].name;
  EXPECT_DOUBLE_EQ(back.stats.host_seconds, 0.125);
}

TEST(IntervalJsonl, FailedSkippedAndGarbageLines) {
  IntervalResult failed;
  failed.spec.index = 1;
  failed.error = "co-sim divergence: \"pc\" mismatch";
  IntervalResult back;
  std::string error;
  ASSERT_TRUE(interval_from_jsonl(interval_to_jsonl(failed), &back, &error));
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.error, failed.error);

  IntervalResult skipped;
  skipped.spec.index = 2;
  skipped.skipped = true;
  ASSERT_TRUE(interval_from_jsonl(interval_to_jsonl(skipped), &back, &error));
  EXPECT_TRUE(back.skipped);
  EXPECT_FALSE(back.measured());

  EXPECT_FALSE(interval_from_jsonl("", &back, &error));
  EXPECT_FALSE(interval_from_jsonl("{\"type\":\"task\"}", &back, &error));
  const std::string torn = interval_to_jsonl(failed).substr(0, 30);
  EXPECT_FALSE(interval_from_jsonl(torn, &back, &error));
}

// --- engine acceptance ------------------------------------------------------

std::vector<u64> counter_values(const SimStats& s) {
  std::vector<u64> out;
  for (const obs::CounterDesc& c : obs::simstats_counters())
    out.push_back(s.*(c.field));
  return out;
}

TEST(Sampled, OneIntervalIsBitIdenticalToTheMonolithicRun) {
  const Workload w = build_workload("li");
  const u64 kM = 8'000, kW = 1'000;
  const SimResult mono = simulate(base_machine(), w.program, kM, kW);
  ASSERT_TRUE(mono.ok()) << mono.error;

  SampleOptions opts;
  opts.intervals = 1;
  const SampledResult s = run_sampled(base_machine(), w.program, "li", 0x5eed,
                                      kM, kW, /*fast_forward=*/0, opts);
  ASSERT_TRUE(s.ok()) << s.error;
  EXPECT_EQ(counter_values(s.aggregate), counter_values(mono.stats));
  EXPECT_DOUBLE_EQ(s.ipc.weighted, mono.stats.ipc());
  EXPECT_DOUBLE_EQ(s.ipc.ci95, 0.0);  // one sample: no variance estimate
}

TEST(Sampled, PerIntervalStatsAreDeterministicAcrossReruns) {
  const Workload w = build_workload("li");
  SampleOptions opts;
  opts.intervals = 4;
  opts.warmup = 500;
  const auto run = [&] {
    return run_sampled(base_machine(), w.program, "li", 0x5eed, 6'000, 0, 0,
                       opts);
  };
  const SampledResult a = run();
  const SampledResult b = run();
  ASSERT_TRUE(a.ok()) << a.error;
  ASSERT_TRUE(b.ok()) << b.error;
  ASSERT_EQ(a.intervals.size(), 4u);
  ASSERT_EQ(b.intervals.size(), 4u);
  for (std::size_t i = 0; i < a.intervals.size(); ++i)
    EXPECT_EQ(counter_values(a.intervals[i].stats),
              counter_values(b.intervals[i].stats))
        << "interval " << i << " diverged between identical runs";
  EXPECT_EQ(counter_values(a.aggregate), counter_values(b.aggregate));
  EXPECT_DOUBLE_EQ(a.ipc.mean, b.ipc.mean);
  EXPECT_DOUBLE_EQ(a.ipc.ci95, b.ipc.ci95);
}

TEST(Sampled, AggregateCoversExactlyTheMeasuredCommits) {
  const Workload w = build_workload("li");
  SampleOptions opts;
  opts.intervals = 5;
  opts.warmup = 300;
  const SampledResult s =
      run_sampled(base_machine(), w.program, "li", 0x5eed, 7'003, 100, 0, opts);
  ASSERT_TRUE(s.ok()) << s.error;
  // Warm-up commits are discarded per interval; the stitched stream is the
  // monolithic measured region, no gaps or double counting.
  EXPECT_EQ(s.aggregate.committed, 7'003u);
}

TEST(Sampled, PrewarmReusesPublishedCheckpoints) {
  const std::string dir = testing::TempDir() + "bsp_sampling_ckpt_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const Workload w = build_workload("li");
  SampleOptions opts;
  opts.intervals = 4;
  opts.warmup = 500;
  opts.ckpt_cache_dir = dir;

  const SampledResult cold =
      run_sampled(base_machine(), w.program, "li", 0x5eed, 6'000, 0, 0, opts);
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_EQ(cold.ckpt_materialised, 3u);  // interval 0 needs no checkpoint
  EXPECT_EQ(cold.ckpt_reused, 0u);

  const SampledResult warm =
      run_sampled(base_machine(), w.program, "li", 0x5eed, 6'000, 0, 0, opts);
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_EQ(warm.ckpt_materialised, 0u);
  EXPECT_EQ(warm.ckpt_reused, 3u);
  // The cache is invisible to timing.
  EXPECT_EQ(counter_values(warm.aggregate), counter_values(cold.aggregate));
  std::filesystem::remove_all(dir);
}

// A pass over a partly populated cache loads the hits without restoring
// them; the miss between them continues from the latest hit's checkpoint.
// Every checkpoint must equal the one a cold pass captured.
TEST(Sampled, PrewarmContinuesFromTheLatestHitAtAMiss) {
  const std::string dir = testing::TempDir() + "bsp_sampling_partial_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const Workload w = build_workload("li");
  const SamplePlan plan = plan_intervals(9'000, 0, 0, 4, 500);
  const PrewarmResult cold =
      materialise_interval_checkpoints(w.program, "li", 0x5eed, plan, dir);
  ASSERT_TRUE(cold.ok()) << cold.error;
  ASSERT_EQ(cold.materialised, 3u);
  const auto bytes = [](const Checkpoint& c) {
    std::ostringstream os;
    save_checkpoint(c, os);
    return os.str();
  };

  // Drop the middle offset's file: hit, miss, hit.
  const u64 middle = std::next(cold.by_offset.begin())->first;
  ASSERT_TRUE(std::filesystem::remove(campaign::checkpoint_cache_path(
      dir, "li", 0x5eed, campaign::ImageHash(w.program), middle)));
  const PrewarmResult partial =
      materialise_interval_checkpoints(w.program, "li", 0x5eed, plan, dir);
  ASSERT_TRUE(partial.ok()) << partial.error;
  EXPECT_EQ(partial.reused, 2u);
  EXPECT_EQ(partial.materialised, 1u);
  ASSERT_EQ(partial.by_offset.size(), cold.by_offset.size());
  for (const auto& [offset, ckpt] : cold.by_offset)
    EXPECT_EQ(bytes(*partial.by_offset.at(offset)), bytes(*ckpt))
        << "offset " << offset;
  std::filesystem::remove_all(dir);
}

// The headline acceptance property on the pinned configuration (the same
// parameters the CI containment smoke runs): the K-interval estimate's
// 95% confidence interval must contain the monolithic IPC. Everything here
// is deterministic, so this is a stable bound, not a flaky statistical
// test.
TEST(Sampled, ConfidenceIntervalContainsMonolithicIpc) {
  const Workload w = build_workload("gzip");
  const u64 kM = 40'000, kW = 5'000;
  const SimResult mono = simulate(base_machine(), w.program, kM, kW);
  ASSERT_TRUE(mono.ok()) << mono.error;

  SampleOptions opts;
  opts.intervals = 4;
  opts.warmup = 2'000;
  const SampledResult s = run_sampled(base_machine(), w.program, "gzip",
                                      0x5eed, kM, kW, 0, opts);
  ASSERT_TRUE(s.ok()) << s.error;
  ASSERT_EQ(s.ipc.n, 4u);
  EXPECT_GT(s.ipc.ci95, 0.0);
  EXPECT_LE(std::abs(s.ipc.mean - mono.stats.ipc()), s.ipc.ci95)
      << "mean " << s.ipc.mean << " +/- " << s.ipc.ci95 << " vs monolithic "
      << mono.stats.ipc();
}

}  // namespace
}  // namespace bsp::sampling
