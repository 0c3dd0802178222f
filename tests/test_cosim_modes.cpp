// The commit-stream check (core/simulator.hpp): every committing entry must
// be the next correct-path oracle step, on every run. An injected lost entry
// is caught at exactly the commit it hits, and a campaign task reports it as
// its outcome's error.
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

namespace bsp {
namespace {

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

// A campaign task, the way bsp-sweep and bsp-sim run one, exits through the
// oracle's exit code when clean and turns a divergence into its outcome's
// error, never an abort.
TEST(CoSimModes, InjectedDivergenceIsATaskOutcomeError) {
  campaign::TaskSpec task;
  task.instructions = 40'000;
  task.warmup = 0;
  const campaign::TaskOutcome clean = campaign::simulate_task(
      task, base_machine(), s1_chain_program(500), nullptr, {});
  ASSERT_TRUE(clean.error.empty()) << clean.error;
  EXPECT_TRUE(clean.exited);
  EXPECT_EQ(clean.exit_code, 7);

  const InjectGuard guard("2000");
  const campaign::TaskOutcome r = campaign::simulate_task(
      task, base_machine(), s1_chain_program(3000), nullptr, {});
  ASSERT_FALSE(r.error.empty()) << "committed a lost entry";
  expect_divergence_at(r.error, r.stats.committed, 2000, "task");
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

}  // namespace
}  // namespace bsp
