// Scheduler-equivalence goldens: the event-driven scheduler core must be
// bit-identical, across every SimStats counter, to the per-cycle scan
// scheduler it replaced.
//
// The expected values in sched_equivalence_golden.inc were produced by the
// pre-rewrite scan-based scheduler (the tree at the parent of the
// event-driven rewrite) running exactly the matrix below: gzip and li, 12k
// measured commits after a 3k-commit warm-up, on the baseline machine, both
// slice-2 and slice-4 cumulative technique stacks (the Figure 11/12 sweep
// points), the extended slice-4 configuration, and one checkpoint-restored
// run. Any divergence here means the event-driven queues selected,
// replayed, or retired something on a different cycle than the scan would
// have — a scheduling bug, not noise. Regenerate the .inc only from a
// scan-based build, never from the event-driven one under test.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "config/machine_config.hpp"
#include "core/simulator.hpp"
#include "emu/checkpoint.hpp"
#include "sampling/sampled.hpp"
#include "workloads/workloads.hpp"

namespace bsp {
namespace {

constexpr u64 kCommits = 12'000;
constexpr u64 kWarmup = 3'000;

// Counter order must match the dump in the golden generator.
using StatsVec = std::array<u64, 21>;

StatsVec flatten(const SimStats& s) {
  return {s.cycles,
          s.committed,
          s.dispatched,
          s.bogus_dispatched,
          s.branches,
          s.branch_mispredicts,
          s.early_resolved_branches,
          s.loads,
          s.stores,
          s.load_forwards,
          s.loads_issued_partial_lsq,
          s.partial_tag_accesses,
          s.way_mispredicts,
          s.early_miss_detects,
          s.load_replays,
          s.op_replays,
          s.spec_forwards,
          s.spec_forward_misses,
          s.narrow_operands,
          s.l1d_hits,
          s.l1d_misses};
}

constexpr const char* kFieldNames[21] = {
    "cycles",          "committed",
    "dispatched",      "bogus_dispatched",
    "branches",        "branch_mispredicts",
    "early_resolved_branches", "loads",
    "stores",          "load_forwards",
    "loads_issued_partial_lsq", "partial_tag_accesses",
    "way_mispredicts", "early_miss_detects",
    "load_replays",    "op_replays",
    "spec_forwards",   "spec_forward_misses",
    "narrow_operands", "l1d_hits",
    "l1d_misses"};

struct GoldenEntry {
  const char* tag;
  StatsVec expected;
};

const GoldenEntry kGolden[] = {
#include "sched_equivalence_golden.inc"
};

const GoldenEntry* find_golden(const std::string& tag) {
  for (const GoldenEntry& g : kGolden)
    if (tag == g.tag) return &g;
  return nullptr;
}

void expect_matches_golden(const std::string& tag, const SimStats& s) {
  const GoldenEntry* g = find_golden(tag);
  ASSERT_NE(g, nullptr) << "no golden entry for " << tag
                        << " — regenerate the .inc from a scan-based build";
  const StatsVec got = flatten(s);
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], g->expected[i])
        << tag << ": counter '" << kFieldNames[i]
        << "' diverged from the scan-based scheduler";
}

TEST(SchedEquivalence, BaselineMachine) {
  for (const char* wname : {"gzip", "li"}) {
    const Workload w = build_workload(wname);
    const SimResult r = simulate(base_machine(), w.program, kCommits, kWarmup);
    ASSERT_TRUE(r.ok()) << r.error;
    expect_matches_golden(std::string(wname) + "/base", r.stats);
  }
}

TEST(SchedEquivalence, TechniqueStacksSlice2) {
  for (const char* wname : {"gzip", "li"}) {
    const Workload w = build_workload(wname);
    for (const StackPoint& p : technique_stack(2)) {
      const SimResult r = simulate(p.config, w.program, kCommits, kWarmup);
      ASSERT_TRUE(r.ok()) << p.label << ": " << r.error;
      expect_matches_golden(std::string(wname) + "/s2/" + p.label, r.stats);
    }
  }
}

TEST(SchedEquivalence, TechniqueStacksSlice4) {
  for (const char* wname : {"gzip", "li"}) {
    const Workload w = build_workload(wname);
    for (const StackPoint& p : technique_stack(4)) {
      const SimResult r = simulate(p.config, w.program, kCommits, kWarmup);
      ASSERT_TRUE(r.ok()) << p.label << ": " << r.error;
      expect_matches_golden(std::string(wname) + "/s4/" + p.label, r.stats);
    }
  }
}

TEST(SchedEquivalence, ExtendedTechniquesWithSumAddressed) {
  const MachineConfig cfg = bitsliced_machine(
      4, kExtendedTechniques | static_cast<unsigned>(Technique::SumAddressed));
  for (const char* wname : {"gzip", "li"}) {
    const Workload w = build_workload(wname);
    const SimResult r = simulate(cfg, w.program, kCommits, kWarmup);
    ASSERT_TRUE(r.ok()) << r.error;
    expect_matches_golden(std::string(wname) + "/s4/extended+sum", r.stats);
  }
}

// Larger instruction windows: the SoA slab layout is indexed by RUU slot,
// so 128- and 256-entry windows pin the scheduler at sizes where slab
// strides, wheel occupancy and the LSQ due bitmap all differ from the
// 64-entry default. LSQ scales with the window as in the paper's machine
// (RUU/2).
TEST(SchedEquivalence, LargerRuuWindows) {
  for (const unsigned ruu : {128u, 256u}) {
    for (const char* wname : {"gzip", "li"}) {
      const Workload w = build_workload(wname);
      const std::string prefix =
          std::string(wname) + "/ruu" + std::to_string(ruu) + "/";

      MachineConfig base = base_machine();
      base.core.ruu_entries = ruu;
      base.core.lsq_entries = ruu / 2;
      const SimResult rb = simulate(base, w.program, kCommits, kWarmup);
      ASSERT_TRUE(rb.ok()) << rb.error;
      expect_matches_golden(prefix + "base", rb.stats);

      MachineConfig all = bitsliced_machine(4, kAllTechniques);
      all.core.ruu_entries = ruu;
      all.core.lsq_entries = ruu / 2;
      const SimResult ra = simulate(all, w.program, kCommits, kWarmup);
      ASSERT_TRUE(ra.ok()) << ra.error;
      expect_matches_golden(prefix + "s4/alltech", ra.stats);
    }
  }
}

// A tight window: a 16-entry RUU with an 8-entry LSQ keeps both queues full
// and wrapping, so dispatch stalls on LSQ space every few cycles and the
// memory phase sees its oldest entries commit out from under it. These rows
// were recorded from the event-driven scheduler before the memory and
// resolve phases became event-driven, and pin that change to the polling
// behaviour it replaced.
TEST(SchedEquivalence, TightRuuAndLsqWindow) {
  for (const char* wname : {"gzip", "li"}) {
    const Workload w = build_workload(wname);
    const std::string prefix = std::string(wname) + "/ruu16/";

    MachineConfig base = base_machine();
    base.core.ruu_entries = 16;
    base.core.lsq_entries = 8;
    const SimResult rb = simulate(base, w.program, kCommits, kWarmup);
    ASSERT_TRUE(rb.ok()) << rb.error;
    expect_matches_golden(prefix + "base", rb.stats);

    MachineConfig all = bitsliced_machine(4, kAllTechniques);
    all.core.ruu_entries = 16;
    all.core.lsq_entries = 8;
    const SimResult ra = simulate(all, w.program, kCommits, kWarmup);
    ASSERT_TRUE(ra.ok()) << ra.error;
    expect_matches_golden(prefix + "s4/alltech", ra.stats);
  }
}

// Memory latencies the shipped machines never reach: 3000 cycles lies past
// the event wheel's 1,024-cycle fine horizon, 70000 past 64 x 1,024 cycles,
// so every miss wakes its consumers out of the far tier. These rows were
// recorded from the event-driven scheduler before the far tier became one
// flat vector (it was then a 64-epoch coarse wheel with an overflow list),
// and pin that change to the structure it replaced.
TEST(SchedEquivalence, FarTierMemoryLatencies) {
  const Workload w = build_workload("li");
  for (const unsigned lat : {3000u, 70000u}) {
    const std::string prefix = "li/mem" + std::to_string(lat) + "/";
    MachineConfig base = base_machine();
    base.memory.memory_latency = lat;
    MachineConfig all = bitsliced_machine(4, kAllTechniques);
    all.memory.memory_latency = lat;
    for (const auto& [cfg, tag] :
         {std::pair{base, "base"}, std::pair{all, "s4/alltech"}}) {
      Simulator sim(cfg, w.program);
      const SimResult r = sim.run(kCommits, kWarmup);
      ASSERT_TRUE(r.ok()) << prefix << tag << ": " << r.error;
      expect_matches_golden(prefix + tag, r.stats);
      EXPECT_GT(sim.host_events().far_spills, 0u)
          << prefix << tag << " never reached the far tier";
    }
  }
}

// A checkpoint-restored run exercises the scheduler against warm
// microarchitectural state (non-empty caches/predictor come from the
// fast-forwarded functional machine, pipeline starts empty at an arbitrary
// program point).
TEST(SchedEquivalence, CheckpointRestoredRun) {
  const Workload w = build_workload("gzip");
  const auto ckpt = fast_forward(w.program, 40'000);
  ASSERT_TRUE(ckpt.has_value());
  Simulator sim(bitsliced_machine(4, kAllTechniques), w.program, &*ckpt);
  const SimResult r = sim.run(kCommits, kWarmup);
  ASSERT_TRUE(r.ok()) << r.error;
  expect_matches_golden("gzip/ckpt40k/s4/alltech", r.stats);
}

// The checkpoint *cache* must also be invisible: serialising the
// checkpoint to BSPC bytes and loading it back — exactly what a sweep
// worker does when it restores from the shared on-disk cache — has to
// reproduce the same golden as the directly fast-forwarded run above.
TEST(SchedEquivalence, CacheRoundTrippedCheckpointMatchesGolden) {
  const Workload w = build_workload("gzip");
  const auto ckpt = fast_forward(w.program, 40'000);
  ASSERT_TRUE(ckpt.has_value());
  std::stringstream buf;
  ASSERT_TRUE(save_checkpoint(*ckpt, buf));
  std::string error;
  const auto loaded = load_checkpoint(buf, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  Simulator sim(bitsliced_machine(4, kAllTechniques), w.program, &*loaded);
  const SimResult r = sim.run(kCommits, kWarmup);
  ASSERT_TRUE(r.ok()) << r.error;
  expect_matches_golden("gzip/ckpt40k/s4/alltech", r.stats);
}

// The sampled-simulation engine with a single interval must *be* the
// monolithic run: the planner keeps interval 0 on the run's own boundary,
// so the stitched aggregate has to reproduce the scan-scheduler golden
// bit for bit — any divergence means sampling perturbed the simulation
// itself, not just the estimate.
TEST(SchedEquivalence, OneIntervalSampledRunMatchesGolden) {
  const Workload w = build_workload("gzip");
  sampling::SampleOptions opts;
  opts.intervals = 1;
  const sampling::SampledResult s = sampling::run_sampled(
      base_machine(), w.program, "gzip", 0x5eed, kCommits, kWarmup,
      /*fast_forward=*/0, opts);
  ASSERT_TRUE(s.ok()) << s.error;
  expect_matches_golden("gzip/base", s.aggregate);
}

// The idle-cycle skip must be invisible in simulated time: cycles advance
// identically whether idle stretches are stepped or jumped, and the skip
// counter only ever accounts cycles the stepped loop would have idled
// through.
TEST(SchedEquivalence, IdleSkipAccountsOnlyIdleCycles) {
  const Workload w = build_workload("gzip");
  const SimResult r = simulate(base_machine(), w.program, kCommits, kWarmup);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_LT(r.stats.idle_cycles_skipped, r.stats.cycles);
  EXPECT_GT(r.stats.host_seconds, 0.0);
}

}  // namespace
}  // namespace bsp
