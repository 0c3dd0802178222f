// Timing-core tests: co-simulation correctness on every workload and
// configuration, plus directed checks of the latency effects each
// partial-operand technique is supposed to produce.
#include <gtest/gtest.h>

#include <utility>

#include "asm/assembler.hpp"
#include "core/simulator.hpp"
#include "workloads/workloads.hpp"

namespace bsp {
namespace {

Program compile(const std::string& src) {
  AsmResult r = assemble(src);
  EXPECT_TRUE(r.ok()) << r.error_text();
  return r.program;
}

Program counting_loop(unsigned n) {
  return compile(
      ".text\nmain:\n  li $t0, " + std::to_string(n) +
      "\nloop:\n  addiu $t0, $t0, -1\n  bne $t0, $0, loop\n"
      "  li $v0, 10\n  li $a0, 0\n  syscall\n");
}

TEST(Simulator, RunsToExitOnBaseMachine) {
  const SimResult r = simulate(base_machine(), counting_loop(1000), 1u << 20);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_code, 0);
  // 2 li words + 1000*2 loop + 5 tail-ish; commit count is exact.
  EXPECT_EQ(r.stats.committed, 2u + 2000u + 5u);
  EXPECT_GT(r.stats.ipc(), 0.5);
}

TEST(Simulator, MaxCommitCapStopsTheRun) {
  const SimResult r = simulate(base_machine(), counting_loop(1u << 20), 5000);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.exited);
  EXPECT_EQ(r.stats.committed, 5000u);
}

// The deadlock watchdog scales with the configured access path: a healthy
// run that waits out back-to-back misses at a long memory latency is not a
// deadlock. (A fixed 100,000-cycle bound stopped both of these.)
TEST(Simulator, WatchdogScalesWithMemoryLatency) {
  for (const auto& [name, latency] :
       {std::pair{"gzip", 200'000u}, std::pair{"twolf", 70'000u}}) {
    const Workload w = build_workload(name);
    MachineConfig cfg = base_machine();
    cfg.memory.memory_latency = latency;
    const SimResult r = simulate(cfg, w.program, 5'000);
    ASSERT_TRUE(r.ok()) << name << " at " << latency << ": " << r.error;
    EXPECT_EQ(r.stats.committed, 5'000u) << name;
  }
}

TEST(Simulator, InvalidSliceGeometryThrowsAtConstruction) {
  const Program p = counting_loop(10);
  for (const unsigned slices : {0u, 3u, 16u, 64u}) {
    MachineConfig cfg = bitsliced_machine(2, kAllTechniques);
    cfg.core.slices = slices;
    EXPECT_THROW(Simulator(cfg, p), std::invalid_argument) << slices;
  }
  MachineConfig ok = bitsliced_machine(2, kAllTechniques);
  ok.core.slices = 8;
  EXPECT_NO_THROW(Simulator(ok, p));
}

// The decisive correctness gate: every workload commits exactly the
// oracle's instruction sequence (the commit-stream check reports any
// wrong-path, skipped, repeated or lost entry), on every pipeline
// configuration.
struct CoSimCase {
  const char* workload;
  unsigned slices;
  TechniqueSet techniques;
};

class CoSimTest : public ::testing::TestWithParam<CoSimCase> {};

TEST_P(CoSimTest, CommitsMatchReferenceEmulator) {
  const CoSimCase& c = GetParam();
  const Workload w = build_workload(c.workload);
  const MachineConfig cfg =
      c.slices == 1 ? base_machine() : bitsliced_machine(c.slices, c.techniques);
  const SimResult r = simulate(cfg, w.program, 30'000);
  ASSERT_TRUE(r.ok()) << c.workload << ": " << r.error;
  EXPECT_EQ(r.stats.committed, 30'000u);
  EXPECT_GT(r.stats.ipc(), 0.01);
  EXPECT_LE(r.stats.ipc(), 4.0);
}

std::vector<CoSimCase> cosim_cases() {
  std::vector<CoSimCase> cases;
  for (const auto& name : workload_names()) {
    cases.push_back({name.c_str(), 1, kNoTechniques});
    cases.push_back({name.c_str(), 2, kNoTechniques});
    cases.push_back({name.c_str(), 2, kAllTechniques});
    cases.push_back({name.c_str(), 4, kAllTechniques});
  }
  return cases;
}

std::string cosim_name(const ::testing::TestParamInfo<CoSimCase>& info) {
  std::string n = info.param.workload;
  n += "_s" + std::to_string(info.param.slices);
  n += info.param.techniques == kNoTechniques ? "_plain" : "_full";
  return n;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloadsAllConfigs, CoSimTest,
                         ::testing::ValuesIn(cosim_cases()), cosim_name);

// Cumulative technique stacks must also co-simulate (each technique alone).
class TechniqueCoSimTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(TechniqueCoSimTest, EachCumulativeStackIsCorrect) {
  TechniqueSet set = kNoTechniques;
  const auto& order = technique_order();
  for (unsigned i = 0; i <= GetParam(); ++i)
    set |= static_cast<unsigned>(order[i]);
  const Workload w = build_workload("vortex");  // heaviest LSQ traffic
  const SimResult r = simulate(bitsliced_machine(2, set), w.program, 20'000);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.stats.committed, 20'000u);
}

INSTANTIATE_TEST_SUITE_P(CumulativeStacks, TechniqueCoSimTest,
                         ::testing::Range(0u, 5u));

// --- directed latency behaviour --------------------------------------------------

// An ALU dependence chain: simple pipelining at slice-by-2 should roughly
// halve IPC; partial operand bypassing should restore it (Figure 1).
TEST(SimulatorTiming, BypassRestoresDependentAluThroughput) {
  const Program chain = compile(R"(
.text
main:
  li $t0, 20000
loop:
  addu $t1, $t1, $t0
  addu $t1, $t1, $t0
  addu $t1, $t1, $t0
  addu $t1, $t1, $t0
  addiu $t0, $t0, -1
  bne $t0, $0, loop
  li $v0, 10
  syscall
)");
  const u64 n = 60'000;
  const double ipc_base =
      simulate(base_machine(), chain, n).stats.ipc();
  const double ipc_simple =
      simulate(simple_pipelined_machine(2), chain, n).stats.ipc();
  const double ipc_bypass =
      simulate(bitsliced_machine(
                   2, static_cast<unsigned>(Technique::PartialBypass)),
               chain, n)
          .stats.ipc();
  EXPECT_LT(ipc_simple, 0.75 * ipc_base)
      << "naive EX pipelining must hurt dependent chains";
  EXPECT_GT(ipc_bypass, 0.95 * ipc_base)
      << "slice bypassing must restore back-to-back execution";
}

// Early branch resolution shortens the mispredict loop for bne against zero
// when the nonzero bit lives in the low slice (the Figure 5 case).
TEST(SimulatorTiming, EarlyBranchResolutionDetectsLowBitMispredicts) {
  const Workload w = build_workload("li");
  const TechniqueSet bypass =
      static_cast<unsigned>(Technique::PartialBypass);
  const TechniqueSet with_eb =
      bypass | static_cast<unsigned>(Technique::EarlyBranch);
  const SimResult without =
      simulate(bitsliced_machine(4, bypass), w.program, 40'000);
  const SimResult with =
      simulate(bitsliced_machine(4, with_eb), w.program, 40'000);
  ASSERT_TRUE(without.ok()) << without.error;
  ASSERT_TRUE(with.ok()) << with.error;
  EXPECT_EQ(without.stats.early_resolved_branches, 0u);
  EXPECT_GT(with.stats.early_resolved_branches, 0u);
  EXPECT_GE(with.stats.ipc(), without.stats.ipc());
}

// Partial tag matching must engage on loads and keep the way-mispredict
// (replay) rate low, as reported in §7.1 (~2 % for slice-by-2).
TEST(SimulatorTiming, PartialTagEngagesWithLowReplayRate) {
  const Workload w = build_workload("bzip");
  const TechniqueSet set =
      static_cast<unsigned>(Technique::PartialBypass) |
      static_cast<unsigned>(Technique::PartialTag);
  const SimResult r = simulate(bitsliced_machine(2, set), w.program, 60'000);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.stats.partial_tag_accesses, 1000u);
  EXPECT_LT(r.stats.way_mispredict_rate(), 0.10);
  EXPECT_GT(r.stats.ipc(), 0.0);
}

// Early LSQ disambiguation should let some loads issue on partial bits.
TEST(SimulatorTiming, EarlyLsqIssuesLoadsOnPartialAddresses) {
  const Workload w = build_workload("vortex");
  const TechniqueSet set =
      static_cast<unsigned>(Technique::PartialBypass) |
      static_cast<unsigned>(Technique::EarlyLsq);
  const SimResult r = simulate(bitsliced_machine(2, set), w.program, 60'000);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.stats.loads_issued_partial_lsq, 0u);
  EXPECT_GT(r.stats.load_forwards, 0u);
}

// Branch accuracy seen by the timing core should be in the same ballpark as
// the paper's Table 1 for kernels whose target survived (±8 points).
TEST(SimulatorTiming, BranchAccuracyNearTable1Targets) {
  for (const char* name : {"go", "mcf", "li"}) {
    const Workload w = build_workload(name);
    const SimResult r = simulate(base_machine(), w.program, 60'000);
    ASSERT_TRUE(r.ok()) << name << ": " << r.error;
    const auto target = w.info.paper_branch_accuracy;
    ASSERT_TRUE(target.has_value());
    EXPECT_NEAR(r.stats.branch_accuracy(), *target, 0.08) << name;
  }
}

// The headline comparison (Figure 11): on a dependence-heavy kernel the full
// bit-sliced machine at slice-by-2 should sit close to the ideal machine and
// clearly above naive pipelining.
TEST(SimulatorTiming, SliceBy2RecoversMostOfTheIdealIpc) {
  const Workload w = build_workload("ijpeg");
  const u64 n = 60'000;
  const double ideal = simulate(base_machine(), w.program, n).stats.ipc();
  const double naive =
      simulate(simple_pipelined_machine(2), w.program, n).stats.ipc();
  const double sliced =
      simulate(bitsliced_machine(2, kAllTechniques), w.program, n).stats.ipc();
  EXPECT_LT(naive, ideal);
  EXPECT_GT(sliced, naive);
  EXPECT_GT(sliced, 0.85 * ideal);
}

}  // namespace
}  // namespace bsp
