// Tests for the paper-suggested extensions: narrow-width slice relaxation
// (§6) and sum-addressed memory (§5.2). Each one must show a gain.
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "workloads/workloads.hpp"

#include "asm/assembler.hpp"

namespace bsp {
namespace {

Program compile(const std::string& src) {
  AsmResult r = assemble(src);
  EXPECT_TRUE(r.ok()) << r.error_text();
  return r.program;
}

TEST(NarrowWidth, CountsNarrowResultsAndHelpsNarrowChains) {
  // A chain of small-value adds: every result fits in the low slice, so
  // every one counts as narrow. The chain runs no faster with the release
  // (its cycles match at x2 and x4), so the gain is asserted on go below.
  const std::string src = R"(
.text
main:
  li $t0, 30000
loop:
  andi $t1, $t0, 0xff
  addu $t2, $t1, $t1
  addu $t3, $t2, $t1
  addu $t4, $t3, $t2
  addu $t5, $t4, $t3
  addiu $t0, $t0, -1
  bgtz $t0, loop
  li $v0, 10
  li $a0, 0
  syscall
)";
  const Program p = compile(src);
  // 16-bit slices: every value in this kernel (< 2^15) is "narrow".
  const TechniqueSet with_nw =
      kAllTechniques | static_cast<unsigned>(Technique::NarrowWidth);
  const SimResult off =
      simulate(bitsliced_machine(2, kAllTechniques), p, 150'000);
  const SimResult on = simulate(bitsliced_machine(2, with_nw), p, 150'000);
  ASSERT_TRUE(off.ok()) << off.error;
  ASSERT_TRUE(on.ok()) << on.error;
  EXPECT_EQ(off.stats.narrow_operands, 0u) << "counter gated on technique";
  EXPECT_GT(on.stats.narrow_operands, 100'000u);
  EXPECT_GE(on.stats.ipc(), off.stats.ipc());

  // go at slice-by-4: releasing narrow results early saves over 2% of
  // cycles (27,843 -> 27,189), so a release that did nothing fails here.
  const Program go = build_workload("go").program;
  const SimResult go_off =
      simulate(bitsliced_machine(4, kAllTechniques), go, 20'000, 5'000);
  const SimResult go_on =
      simulate(bitsliced_machine(4, with_nw), go, 20'000, 5'000);
  ASSERT_TRUE(go_off.ok()) << go_off.error;
  ASSERT_TRUE(go_on.ok()) << go_on.error;
  EXPECT_LE(static_cast<double>(go_on.stats.cycles),
            0.99 * static_cast<double>(go_off.stats.cycles));
}

TEST(SumAddressed, SpeedsUpLoadChainsWithoutPartialTag) {
  // A pointer-chase where address generation is the critical path: SAM
  // starts each cache access one agen stage earlier.
  const std::string src = R"(
.text
main:
  li $t0, 20000
  la $t1, ring
loop:
  lw $t1, 0($t1)
  lw $t1, 0($t1)
  addiu $t0, $t0, -1
  bgtz $t0, loop
  li $v0, 10
  li $a0, 0
  syscall
.data
ring: .word ring
)";
  const Program p = compile(src);
  const TechniqueSet without =
      static_cast<unsigned>(Technique::PartialBypass) |
      static_cast<unsigned>(Technique::EarlyLsq);
  const TechniqueSet with_sam =
      without | static_cast<unsigned>(Technique::SumAddressed);
  const SimResult off = simulate(bitsliced_machine(4, without), p, 100'000);
  const SimResult on = simulate(bitsliced_machine(4, with_sam), p, 100'000);
  ASSERT_TRUE(off.ok()) << off.error;
  ASSERT_TRUE(on.ok()) << on.error;
  EXPECT_GT(on.stats.ipc(), 1.05 * off.stats.ipc())
      << "SAM must shorten the load-to-load critical path";
}

TEST(Extensions, AllWorkloadsCoSimulateWithExtendedSet) {
  const TechniqueSet everything =
      kExtendedTechniques | static_cast<unsigned>(Technique::SumAddressed);
  for (const char* name : {"vortex", "li", "gcc"}) {
    const Workload w = build_workload(name);
    const SimResult r =
        simulate(bitsliced_machine(4, everything), w.program, 20'000);
    ASSERT_TRUE(r.ok()) << name << ": " << r.error;
    EXPECT_EQ(r.stats.committed, 20'000u);
  }
}

}  // namespace
}  // namespace bsp
