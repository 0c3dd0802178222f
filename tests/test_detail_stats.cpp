// Detailed-statistics tests: the optional histograms must be internally
// consistent with the headline counters and must not perturb timing.
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "workloads/workloads.hpp"

namespace bsp {
namespace {

TEST(Histogram, PercentilesAndCumulative) {
  Histogram h(10);
  for (int i = 0; i < 90; ++i) h.add(1);
  for (int i = 0; i < 10; ++i) h.add(9);
  EXPECT_EQ(h.percentile(0.5), 1u);
  EXPECT_EQ(h.percentile(0.9), 1u);
  EXPECT_EQ(h.percentile(0.95), 9u);
  EXPECT_DOUBLE_EQ(h.cumulative(1), 0.9);
  EXPECT_DOUBLE_EQ(h.mean(), (90.0 * 1 + 10.0 * 9) / 100.0);
  h.add(500);  // overflow bucket
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, PercentileBoundaries) {
  // Empty histogram: no percentiles exist; every query returns the overflow
  // bucket index rather than pretending bucket 0 holds data.
  Histogram empty(10);
  EXPECT_EQ(empty.percentile(0.0), empty.buckets());
  EXPECT_EQ(empty.percentile(0.5), empty.buckets());
  EXPECT_EQ(empty.percentile(1.0), empty.buckets());

  // p = 0 is the minimum sample (smallest non-empty bucket), not bucket 0.
  Histogram h(10);
  h.add(5);
  h.add(7);
  EXPECT_EQ(h.percentile(0.0), 5u);
  EXPECT_EQ(h.percentile(1.0), 7u);
}

TEST(Histogram, CumulativeMemoizationSurvivesInterleavedAdds) {
  // cumulative()/percentile() memoize prefix sums; the cache must be
  // invalidated by add() so queries interleaved with inserts stay exact.
  Histogram h(8);
  h.add(2);
  EXPECT_DOUBLE_EQ(h.cumulative(1), 0.0);
  EXPECT_DOUBLE_EQ(h.cumulative(2), 1.0);
  h.add(0);  // must invalidate the memoized prefix
  EXPECT_DOUBLE_EQ(h.cumulative(1), 0.5);
  EXPECT_EQ(h.percentile(0.0), 0u);
  h.add(7, 2);
  EXPECT_DOUBLE_EQ(h.cumulative(2), 0.5);
  EXPECT_DOUBLE_EQ(h.cumulative(7), 1.0);
  EXPECT_EQ(h.percentile(1.0), 7u);
  // Past-the-end queries clamp to the overflow bucket.
  EXPECT_DOUBLE_EQ(h.cumulative(1000), 1.0);
  // Repeated queries without intervening adds hit the cache and agree.
  EXPECT_DOUBLE_EQ(h.cumulative(2), 0.5);
  EXPECT_EQ(h.percentile(0.5), 2u);
}

TEST(DetailStats, ConsistentWithHeadlineCounters) {
  const Workload w = build_workload("gzip");
  Simulator sim(bitsliced_machine(2, kAllTechniques), w.program);
  sim.enable_detail();
  const SimResult r = sim.run(40'000);
  ASSERT_TRUE(r.ok()) << r.error;
  const DetailedStats& d = sim.detail();

  // One occupancy sample per cycle, one commit-width sample per cycle.
  EXPECT_EQ(d.ruu_occupancy.total(), r.stats.cycles);
  EXPECT_EQ(d.lsq_occupancy.total(), r.stats.cycles);
  EXPECT_EQ(d.commit_width.total(), r.stats.cycles);
  // Mean commit width is exactly IPC.
  EXPECT_NEAR(d.commit_width.mean(), r.stats.ipc(), 1e-9);
  // One latency sample per committed load / branch.
  EXPECT_EQ(d.load_to_use.total(), r.stats.loads);
  EXPECT_EQ(d.branch_resolve_delay.total(), r.stats.branches);
  // Sanity ranges.
  EXPECT_GT(d.ruu_occupancy.mean(), 1.0);
  EXPECT_LE(d.ruu_occupancy.percentile(1.0), 64u);
  EXPECT_GE(d.load_to_use.percentile(0.5), 1u);
}

TEST(DetailStats, CollectionDoesNotPerturbTiming) {
  const Workload w = build_workload("li");
  const SimResult plain =
      simulate(base_machine(), w.program, 20'000);
  Simulator sim(base_machine(), w.program);
  sim.enable_detail();
  const SimResult detailed = sim.run(20'000);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(detailed.ok());
  EXPECT_EQ(plain.stats.cycles, detailed.stats.cycles);
  EXPECT_EQ(plain.stats.committed, detailed.stats.committed);
}

TEST(DetailStats, LoadLatencyReflectsCacheBehaviour) {
  // mcf (miss-dominated) must show far longer load-to-use latencies than
  // gzip (L1-resident).
  const auto mean_latency = [](const char* name) {
    const Workload w = build_workload(name);
    Simulator sim(base_machine(), w.program);
    sim.enable_detail();
    EXPECT_TRUE(sim.run(30'000, 30'000).ok());
    return sim.detail().load_to_use.mean();
  };
  EXPECT_GT(mean_latency("mcf"), 2.0 * mean_latency("gzip"));
}

}  // namespace
}  // namespace bsp
