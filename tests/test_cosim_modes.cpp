// The commit-stream check (core/simulator.hpp): every committing entry must
// be the next correct-path oracle step. An injected lost entry is caught at
// exactly the commit it hits, under every accepted --cosim spelling — the
// mode is a recorded label only, `off` included — and the label never
// changes a number.
//
// Fault injection uses the BSP_COSIM_INJECT="N" hook read at Simulator
// construction: at the Nth total commit (warm-up included) the expected
// step index advances by one, modelling an entry the core lost.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "asm/assembler.hpp"
#include "campaign/campaign.hpp"
#include "config/machine_config.hpp"
#include "core/simulator.hpp"
#include "obs/interval.hpp"

namespace bsp {
namespace {

constexpr const char* kSpellings[] = {"", "full", "spot", "spot:7",
                                      "spot:64", "off"};

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

// One campaign task on the base machine under a --cosim label, the way
// bsp-sweep and bsp-sim run it.
campaign::TaskOutcome run_labelled(const Program& prog, const char* cosim) {
  campaign::TaskSpec task;
  task.instructions = 40'000;
  task.warmup = 0;
  task.cosim = cosim;
  return campaign::simulate_task(task, base_machine(), prog, nullptr, {});
}

void expect_divergence_at(const std::string& error, u64 committed, u64 at,
                          const std::string& what) {
  EXPECT_NE(error.find("co-simulation divergence"), std::string::npos)
      << what << ": " << error;
  EXPECT_EQ(committed, at - 1) << what;
}

TEST(CoSimModes, FullDetectsInjectedDivergencePromptly) {
  const Program prog = s1_chain_program(3000);
  for (const u64 at : {1u, 2u, 2000u, 2001u}) {
    const std::string spec = std::to_string(at);
    const InjectGuard guard(spec.c_str());
    const SimResult r = Simulator(base_machine(), prog).run(40'000);
    ASSERT_FALSE(r.ok()) << "committed a lost entry at " << at;
    expect_divergence_at(r.error, r.stats.committed, at, spec);
  }
  // Commits are counted from construction: a warm-up of 500 moves the
  // measured count, not the injection point.
  const InjectGuard guard("2000");
  const SimResult r = Simulator(base_machine(), prog).run(40'000, 500);
  ASSERT_FALSE(r.ok());
  expect_divergence_at(r.error, r.stats.committed + 500, 2000, "warm-up");
}

// The run-wide default (RunnerOptions::cosim, bsp-sweep's --cosim) reaches
// the same check as a task's own label.
TEST(CoSimModes, SpotDetectsInjectedDivergenceWithinOneWindow) {
  const InjectGuard guard("2000");
  const Program prog = s1_chain_program(3000);
  campaign::TaskSpec task;
  task.instructions = 40'000;
  task.warmup = 0;
  for (const char* mode : {"spot", "spot:64"}) {
    campaign::RunnerOptions options;
    options.cosim = mode;
    const campaign::TaskOutcome r =
        campaign::simulate_task(task, base_machine(), prog, nullptr, options);
    ASSERT_FALSE(r.error.empty()) << mode << " committed a lost entry";
    expect_divergence_at(r.error, r.stats.committed, 2000, mode);
  }
}

TEST(CoSimModes, OffModeStillDetectsInjectedDivergence) {
  const InjectGuard guard("2000");
  const Program prog = s1_chain_program(3000);
  for (const char* mode : kSpellings) {
    const campaign::TaskOutcome r = run_labelled(prog, mode);
    ASSERT_FALSE(r.error.empty()) << "'" << mode << "' committed a lost entry";
    expect_divergence_at(r.error, r.stats.committed, 2000, mode);
  }
}

// A clean run exits through the oracle's exit code under every label, with
// the same number on every counter.
TEST(CoSimModes, ExitPathAgreesAcrossModes) {
  const Program prog = s1_chain_program(500);
  const campaign::TaskOutcome full = run_labelled(prog, "full");
  for (const char* mode : kSpellings) {
    const campaign::TaskOutcome r = run_labelled(prog, mode);
    ASSERT_TRUE(r.error.empty()) << mode << ": " << r.error;
    EXPECT_TRUE(r.exited) << mode;
    EXPECT_EQ(r.exit_code, 7) << mode;
    for (const obs::CounterDesc& c : obs::simstats_counters())
      EXPECT_EQ(r.stats.*c.field, full.stats.*c.field)
          << mode << ": " << c.name;
  }
}

// The hook arms only on a whole positive decimal: anything else, the old
// "COMMIT:REG" form included, leaves the run clean.
TEST(CoSimModes, MalformedInjectionIsIgnored) {
  const Program prog = s1_chain_program(3000);
  for (const char* spec : {"", "x", "2000x", "0", "2000:17"}) {
    const InjectGuard guard(spec);
    const SimResult r = Simulator(base_machine(), prog).run(40'000);
    EXPECT_TRUE(r.ok()) << "'" << spec << "': " << r.error;
    EXPECT_TRUE(r.exited) << spec;
  }
}

TEST(CoSimModes, ParseCosimSpecs) {
  for (const char* ok : {"full", "off", "spot", "spot:1", "spot:128"})
    EXPECT_TRUE(campaign::valid_cosim(ok)) << ok;
  for (const char* bad : {"", "spot:0", "spot:7x", "spot:", "sometimes",
                          "Full", "spot:-1"})
    EXPECT_FALSE(campaign::valid_cosim(bad)) << bad;
  // A task that carries a rejected label fails before simulating.
  const campaign::TaskOutcome r =
      run_labelled(s1_chain_program(10), "sometimes");
  EXPECT_EQ(r.error, "bad cosim mode: sometimes");
}

}  // namespace
}  // namespace bsp
