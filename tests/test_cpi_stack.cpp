// CPI-stack accounting tests: the hard identity sum(cpi_* leaves) ==
// cycles * commit_width must hold exactly — not approximately — for every
// machine point, workload, warm-up split and sampled stitching, the
// enabled path must not perturb any architectural counter, and the
// disabled path must leave every leaf at zero.
#include <gtest/gtest.h>

#include <sstream>

#include "core/simulator.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/interval.hpp"
#include "sampling/sampled.hpp"
#include "workloads/workloads.hpp"

namespace bsp {
namespace {

SimResult run_cpi(const MachineConfig& config, const Program& program,
                  u64 commits, u64 warmup = 0) {
  Simulator sim(config, program);
  sim.enable_cpi_stack();
  return sim.run(commits, warmup);
}

void expect_identity(const SimStats& s, unsigned width,
                     const std::string& what) {
  std::string why;
  EXPECT_TRUE(obs::cpi_identity_holds(s, width, &why)) << what << ": " << why;
  EXPECT_TRUE(obs::cpi_enabled(s)) << what;
}

// ---------------------------------------------------------------------------
// The identity, across the machine-point matrix the golden tests pin.

TEST(CpiStack, IdentityAcrossMachineMatrix) {
  const struct {
    const char* label;
    MachineConfig config;
  } machines[] = {
      {"base", base_machine()},
      {"simple-x2", simple_pipelined_machine(2)},
      {"simple-x4", simple_pipelined_machine(4)},
      {"sliced-x2-all", bitsliced_machine(2, kAllTechniques)},
      {"sliced-x4-all", bitsliced_machine(4, kAllTechniques)},
      {"sliced-x2-none", bitsliced_machine(2, 0)},
  };
  for (const char* workload : {"li", "gzip", "mcf"}) {
    const Program program = build_workload(workload).program;
    for (const auto& m : machines) {
      const SimResult r = run_cpi(m.config, program, 3000);
      ASSERT_TRUE(r.ok()) << workload << "/" << m.label;
      expect_identity(r.stats, m.config.core.commit_width,
                      std::string(workload) + "/" + m.label);
      // Base slots are the retired instructions, possibly short one
      // trailing partial batch at the measurement edge.
      EXPECT_LE(r.stats.cpi_base, r.stats.committed);
      EXPECT_GE(r.stats.cpi_base + m.config.core.commit_width,
                r.stats.committed);
    }
  }
}

TEST(CpiStack, IdentityWithWarmup) {
  const Program program = build_workload("gzip").program;
  const MachineConfig config = bitsliced_machine(2, kAllTechniques);
  // Warm-up rebases the counters mid-run; the identity must hold on the
  // measured region alone, for several warm-up/measure splits including
  // ones that land mid-commit-batch.
  for (const u64 warmup : {1u, 999u, 1000u, 2500u}) {
    const SimResult r = run_cpi(config, program, 2000, warmup);
    ASSERT_TRUE(r.ok()) << "warmup " << warmup;
    expect_identity(r.stats, config.core.commit_width,
                    "warmup " + std::to_string(warmup));
    EXPECT_EQ(r.stats.committed, 2000u);
  }
}

// ---------------------------------------------------------------------------
// Determinism and non-perturbation.

TEST(CpiStack, BitDeterministicAcrossReruns) {
  const Program program = build_workload("gzip").program;
  const MachineConfig config = bitsliced_machine(4, kAllTechniques);
  const SimResult a = run_cpi(config, program, 5000, 500);
  const SimResult b = run_cpi(config, program, 5000, 500);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (const obs::CounterDesc& c : obs::simstats_counters())
    EXPECT_EQ(a.stats.*c.field, b.stats.*c.field) << c.name;
}

TEST(CpiStack, EnabledPathDoesNotPerturbArchitecturalCounters) {
  const Program program = build_workload("li").program;
  const MachineConfig config = bitsliced_machine(2, kAllTechniques);
  Simulator plain(config, program);
  const SimResult base = plain.run(3000);
  const SimResult cpi = run_cpi(config, program, 3000);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(cpi.ok());
  for (const obs::CounterDesc& c : obs::simstats_counters()) {
    if (std::string(c.name).rfind("cpi_", 0) == 0) continue;
    EXPECT_EQ(base.stats.*c.field, cpi.stats.*c.field) << c.name;
  }
  // Disabled run: every leaf exactly zero, and cpi_enabled can tell.
  EXPECT_EQ(obs::cpi_slot_total(base.stats), 0u);
  EXPECT_FALSE(obs::cpi_enabled(base.stats));
  EXPECT_TRUE(obs::cpi_enabled(cpi.stats));
}

// ---------------------------------------------------------------------------
// Registry and merge plumbing.

TEST(CpiStack, LeavesAreRegisteredCountersInEnumOrder) {
  const auto& registry = obs::simstats_counters();
  for (const obs::CpiLeafDesc& leaf : obs::cpi_leaves()) {
    const int idx = obs::counter_index(leaf.name);
    ASSERT_GE(idx, 0) << leaf.name;
    EXPECT_EQ(registry[idx].field, leaf.field) << leaf.name;
    EXPECT_TRUE(registry[idx].optional) << leaf.name;
  }
  // Registry order within the cpi_ block matches enum order: cpi_leaves()
  // indexes by static_cast<unsigned>(cause).
  int prev = -1;
  for (const obs::CpiLeafDesc& leaf : obs::cpi_leaves()) {
    const int idx = obs::counter_index(leaf.name);
    EXPECT_GT(idx, prev) << leaf.name;
    prev = idx;
  }
  EXPECT_EQ(obs::cpi_leaves().size(), obs::kNumCpiCauses);
}

TEST(CpiStack, MergeIsAdditiveAndPreservesIdentity) {
  SimStats a, b;
  a.cycles = 100;
  a.committed = 150;
  a.cpi_base = 150;
  a.cpi_slice_low = 200;
  a.cpi_dcache = 50;
  b.cycles = 60;
  b.committed = 90;
  b.cpi_base = 90;
  b.cpi_br_squash = 100;
  b.cpi_partial_tag = 50;
  expect_identity(a, 4, "a");
  expect_identity(b, 4, "b");
  a.merge(b);
  EXPECT_EQ(a.cycles, 160u);
  EXPECT_EQ(a.cpi_base, 240u);
  EXPECT_EQ(a.cpi_slice_low, 200u);
  EXPECT_EQ(a.cpi_br_squash, 100u);
  EXPECT_EQ(a.cpi_partial_tag, 50u);
  EXPECT_EQ(a.cpi_dcache, 50u);
  expect_identity(a, 4, "merged");
}

TEST(CpiStack, IdentityCheckerRejectsAndExplains) {
  SimStats s;
  s.cycles = 10;
  s.committed = 5;
  s.cpi_base = 5;
  s.cpi_other = 34;  // one slot short of 10 * 4
  std::string why;
  EXPECT_FALSE(obs::cpi_identity_holds(s, 4, &why));
  EXPECT_NE(why.find("39"), std::string::npos) << why;
  EXPECT_NE(why.find("40"), std::string::npos) << why;
  s.cpi_other = 35;
  EXPECT_TRUE(obs::cpi_identity_holds(s, 4, nullptr));
}

// ---------------------------------------------------------------------------
// Interval sampler integration: per-row identity, partial tail, warm-up.

TEST(CpiStack, IntervalRowsKeepPerSampleIdentity) {
  const MachineConfig config = bitsliced_machine(2, kAllTechniques);
  obs::IntervalSampler sampler(700);  // 3000 % 700 != 0: partial tail row
  Simulator sim(config, build_workload("gzip").program);
  sim.set_interval_sampler(&sampler);
  sim.enable_cpi_stack();
  const SimResult r = sim.run(3000);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(sampler.rows().empty());
  EXPECT_EQ(sampler.rows().back().committed, 3000u);

  const auto& registry = obs::simstats_counters();
  const int cycles_idx = obs::counter_index("cycles");
  ASSERT_GE(cycles_idx, 0);
  std::vector<u64> sums(registry.size(), 0);
  for (const obs::IntervalRow& row : sampler.rows()) {
    ASSERT_EQ(row.delta.size(), registry.size());
    // Sampler snapshots land between commit and charge, so each row's cpi
    // deltas cover exactly its cycle delta — the per-sample identity the
    // offline validator checks.
    u64 slot_sum = 0;
    for (const obs::CpiLeafDesc& leaf : obs::cpi_leaves())
      slot_sum += row.delta[obs::counter_index(leaf.name)];
    EXPECT_EQ(slot_sum, row.delta[cycles_idx] * config.core.commit_width);
    for (std::size_t i = 0; i < registry.size(); ++i)
      sums[i] += row.delta[i];
  }
  for (std::size_t i = 0; i < registry.size(); ++i)
    EXPECT_EQ(sums[i], r.stats.*registry[i].field) << registry[i].name;
}

TEST(CpiStack, IntervalRowsWithWarmupRebase) {
  const MachineConfig config = bitsliced_machine(2, kAllTechniques);
  obs::IntervalSampler sampler(500);
  Simulator sim(config, build_workload("li").program);
  sim.set_interval_sampler(&sampler);
  sim.enable_cpi_stack();
  const SimResult r = sim.run(2000, 1000);  // warm-up rebases mid-run
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(sampler.rows().empty());
  EXPECT_EQ(sampler.rows().back().committed, 2000u);
  const int cycles_idx = obs::counter_index("cycles");
  u64 cycle_sum = 0, slot_sum = 0;
  for (const obs::IntervalRow& row : sampler.rows()) {
    cycle_sum += row.delta[cycles_idx];
    for (const obs::CpiLeafDesc& leaf : obs::cpi_leaves())
      slot_sum += row.delta[obs::counter_index(leaf.name)];
  }
  EXPECT_EQ(cycle_sum, r.stats.cycles);
  EXPECT_EQ(slot_sum, r.stats.cycles * config.core.commit_width);
}

// ---------------------------------------------------------------------------
// Sampled engine: per-interval and stitched identities, K=1 equivalence.

TEST(CpiStack, SampledStitchingPreservesIdentity) {
  const MachineConfig config = bitsliced_machine(2, kAllTechniques);
  const Workload w = build_workload("gzip");
  sampling::SampleOptions opts;
  opts.intervals = 4;
  opts.warmup = 1000;
  opts.jobs = 2;
  campaign::RunnerOptions run;
  run.cpi_stack = true;
  const sampling::SampledResult res =
      sampling::run_sampled(config, w.program, "gzip", 0x5eed, 20000, 2000,
                            0, opts, run);
  ASSERT_TRUE(res.ok()) << res.error;
  for (const sampling::IntervalResult& r : res.intervals) {
    if (r.skipped) continue;
    expect_identity(r.stats, config.core.commit_width,
                    "interval " + std::to_string(r.spec.index));
  }
  expect_identity(res.aggregate, config.core.commit_width, "aggregate");
}

TEST(CpiStack, SampledK1MatchesMonolithic) {
  const MachineConfig config = bitsliced_machine(2, kAllTechniques);
  const Workload w = build_workload("li");
  sampling::SampleOptions opts;
  opts.intervals = 1;
  campaign::RunnerOptions run;
  run.cpi_stack = true;
  const sampling::SampledResult res = sampling::run_sampled(
      config, w.program, "li", 0x5eed, 4000, 500, 0, opts, run);
  ASSERT_TRUE(res.ok()) << res.error;
  const SimResult mono = run_cpi(config, w.program, 4000, 500);
  ASSERT_TRUE(mono.ok());
  for (const obs::CounterDesc& c : obs::simstats_counters())
    EXPECT_EQ(res.aggregate.*c.field, mono.stats.*c.field) << c.name;
}

// ---------------------------------------------------------------------------
// Rendering.

TEST(CpiStack, FormatAndJsonCarryTheStack)
{
  const MachineConfig config = bitsliced_machine(2, kAllTechniques);
  const SimResult r = run_cpi(config, build_workload("li").program, 2000);
  ASSERT_TRUE(r.ok());
  const std::string text =
      obs::format_cpi_stack(r.stats, config.core.commit_width);
  EXPECT_NE(text.find("cpi_base"), std::string::npos);
  EXPECT_NE(text.find("identity: ok"), std::string::npos);
  const std::string json =
      obs::cpi_stack_json(r.stats, config.core.commit_width);
  for (const obs::CpiLeafDesc& leaf : obs::cpi_leaves())
    EXPECT_NE(json.find(std::string("\"") + leaf.name + "\":"),
              std::string::npos)
        << leaf.name;
  EXPECT_NE(json.find("\"commit_width\":" +
                      std::to_string(config.core.commit_width)),
            std::string::npos);
}

}  // namespace
}  // namespace bsp
