// Co-simulation cadence modes (core/simulator.hpp): spot mode must keep
// the checker honest — an injected architectural divergence is caught
// within one spot window, not silently committed — while off mode runs
// unchecked by design (its caveat: a divergence is invisible; the run
// still completes and the timing stats are unchanged). The golden matrix
// in test_sched_equivalence.cpp pins bit-identity of the stats across
// modes; this file pins the checking semantics.
//
// Fault injection uses the BSP_COSIM_INJECT="COMMIT:REG" hook read at
// Simulator construction: at the given commit count the checker's
// register REG gets bit 0 flipped, modelling a checker/oracle desync.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "asm/assembler.hpp"
#include "config/machine_config.hpp"
#include "core/simulator.hpp"

namespace bsp {
namespace {

// Every loop-body ALU op reads $s1 (register 17), so a corrupted checker
// $s1 shows up in the first checked commit after the injection point.
Program s1_chain_program(unsigned iterations) {
  std::ostringstream os;
  os << ".text\nmain:\n  li $s1, 12345\n  li $s7, " << iterations
     << "\nloop:\n";
  for (int i = 0; i < 8; ++i)
    os << "  addu $t" << i << ", $t" << i << ", $s1\n";
  os << "  addiu $s7, $s7, -1\n  bgtz $s7, loop\n"
     << "  li $v0, 10\n  li $a0, 7\n  syscall\n";
  const AsmResult r = assemble(os.str());
  EXPECT_TRUE(r.ok()) << r.error_text();
  return r.program;
}

struct InjectGuard {
  explicit InjectGuard(const char* spec) {
    ::setenv("BSP_COSIM_INJECT", spec, 1);
  }
  ~InjectGuard() { ::unsetenv("BSP_COSIM_INJECT"); }
};

SimResult run_mode(const Program& prog, CosimMode mode, u64 period = 64,
                   u64 max_commits = 40'000) {
  Simulator sim(base_machine(), prog);
  SimOptions so;
  so.cosim = mode;
  so.cosim_period = period;
  sim.set_options(so);
  return sim.run(max_commits);
}

TEST(CoSimModes, SpotDetectsInjectedDivergenceWithinOneWindow) {
  const InjectGuard guard("2000:17");
  const Program prog = s1_chain_program(3000);
  const SimResult r = run_mode(prog, CosimMode::kSpot, 64);
  ASSERT_FALSE(r.ok()) << "spot mode committed through an injected desync";
  EXPECT_NE(r.error.find("divergence"), std::string::npos) << r.error;
  // Caught at the next checked commit: within one 64-commit window (plus
  // the committing batch), never hundreds of commits later.
  EXPECT_GE(r.stats.committed + 80, 2000u);
  EXPECT_LT(r.stats.committed, 2000u + 80);
}

TEST(CoSimModes, FullDetectsInjectedDivergencePromptly) {
  const InjectGuard guard("2000:17");
  const Program prog = s1_chain_program(3000);
  const SimResult r = run_mode(prog, CosimMode::kFull);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("divergence"), std::string::npos) << r.error;
  // Full cadence checks every commit; only the couple of loop-control ops
  // that don't read $s1 can slip between injection and detection.
  EXPECT_LT(r.stats.committed, 2000u + 32);
}

TEST(CoSimModes, OffModeRunsUncheckedThroughInjection) {
  const Program prog = s1_chain_program(3000);
  const SimResult clean = run_mode(prog, CosimMode::kOff);
  ASSERT_TRUE(clean.ok()) << clean.error;

  const InjectGuard guard("2000:17");
  const SimResult r = run_mode(prog, CosimMode::kOff);
  // The documented caveat: no checker, so the injected desync is
  // invisible — the run completes with identical timing stats.
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.stats.committed, clean.stats.committed);
  EXPECT_EQ(r.stats.cycles, clean.stats.cycles);
}

TEST(CoSimModes, ExitPathAgreesAcrossModes) {
  const Program prog = s1_chain_program(500);
  const SimResult full = run_mode(prog, CosimMode::kFull);
  const SimResult spot = run_mode(prog, CosimMode::kSpot, 64);
  const SimResult off = run_mode(prog, CosimMode::kOff);
  for (const SimResult* r : {&full, &spot, &off}) {
    ASSERT_TRUE(r->ok()) << r->error;
    EXPECT_TRUE(r->exited);
    EXPECT_EQ(r->exit_code, 7);
    EXPECT_EQ(r->stats.committed, full.stats.committed);
    EXPECT_EQ(r->stats.cycles, full.stats.cycles);
  }
}

TEST(CoSimModes, SpotMatchesFullStatsOnCleanRun) {
  const Program prog = s1_chain_program(2000);
  const SimResult full = run_mode(prog, CosimMode::kFull);
  const SimResult spot = run_mode(prog, CosimMode::kSpot, 7);
  ASSERT_TRUE(full.ok()) << full.error;
  ASSERT_TRUE(spot.ok()) << spot.error;
  EXPECT_EQ(full.stats.committed, spot.stats.committed);
  EXPECT_EQ(full.stats.cycles, spot.stats.cycles);
  EXPECT_EQ(full.stats.branches, spot.stats.branches);
  EXPECT_EQ(full.stats.branch_mispredicts, spot.stats.branch_mispredicts);
  EXPECT_EQ(full.stats.l1d_hits, spot.stats.l1d_hits);
}

// The hook arms only on a well-formed COMMIT:REG naming a register: an
// out-of-range or unparsable register leaves the run clean (it used to
// write past the checker's register file).
TEST(CoSimModes, MalformedInjectionIsIgnored) {
  const Program prog = s1_chain_program(3000);
  for (const char* spec : {"2000:99", "2000:x", "2000:17x", "2000"}) {
    const InjectGuard guard(spec);
    const SimResult r = run_mode(prog, CosimMode::kFull);
    EXPECT_TRUE(r.ok()) << spec << ": " << r.error;
    EXPECT_TRUE(r.exited) << spec;
  }
}

TEST(CoSimModes, ParseCosimSpecs) {
  SimOptions so;
  EXPECT_TRUE(parse_cosim("full", &so));
  EXPECT_EQ(so.cosim, CosimMode::kFull);
  EXPECT_TRUE(parse_cosim("off", &so));
  EXPECT_EQ(so.cosim, CosimMode::kOff);
  EXPECT_TRUE(parse_cosim("spot", &so));
  EXPECT_EQ(so.cosim, CosimMode::kSpot);
  EXPECT_TRUE(parse_cosim("spot:128", &so));
  EXPECT_EQ(so.cosim, CosimMode::kSpot);
  EXPECT_EQ(so.cosim_period, 128u);
  EXPECT_EQ(cosim_name(so), "spot:128");
  EXPECT_FALSE(parse_cosim("", &so));
  EXPECT_FALSE(parse_cosim("spot:0", &so));
  EXPECT_FALSE(parse_cosim("spot:7x", &so));
  EXPECT_FALSE(parse_cosim("sometimes", &so));
}

}  // namespace
}  // namespace bsp
