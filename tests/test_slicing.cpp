// Tests for the slice dependence rules (paper Figure 8) and the machine
// configuration presets (Figure 10 / Table 2).
#include <gtest/gtest.h>

#include "config/machine_config.hpp"
#include "core/sliced_value.hpp"

namespace bsp {
namespace {

CoreConfig sliced_cfg(unsigned slices, TechniqueSet t) {
  CoreConfig c;
  c.slices = slices;
  c.techniques = t;
  return c;
}

TEST(SliceOrderRules, CollectWithoutPartialBypass) {
  // Without partial operand bypassing, operands are atomic: every class
  // behaves as a full-collect op (Figure 8a).
  const CoreConfig plain = sliced_cfg(2, kNoTechniques);
  for (const ExecClass cls :
       {ExecClass::Logic, ExecClass::Add, ExecClass::ShiftLeft,
        ExecClass::BranchEq, ExecClass::Load}) {
    EXPECT_EQ(slice_order(cls, plain), SliceOrder::Collect);
  }
}

TEST(SliceOrderRules, ArithmeticChainsLowToHigh) {
  const CoreConfig c = sliced_cfg(
      2, static_cast<unsigned>(Technique::PartialBypass));
  EXPECT_EQ(slice_order(ExecClass::Add, c), SliceOrder::LowToHigh);
  EXPECT_EQ(slice_order(ExecClass::Compare, c), SliceOrder::LowToHigh);
  EXPECT_EQ(slice_order(ExecClass::Load, c), SliceOrder::LowToHigh);
  EXPECT_EQ(slice_order(ExecClass::ShiftLeft, c), SliceOrder::LowToHigh);
  EXPECT_EQ(slice_order(ExecClass::ShiftRight, c), SliceOrder::HighToLow);
  EXPECT_EQ(slice_order(ExecClass::Mul, c), SliceOrder::Collect);
  EXPECT_EQ(slice_order(ExecClass::Div, c), SliceOrder::Collect);
  EXPECT_EQ(slice_order(ExecClass::JumpReg, c), SliceOrder::Collect);
}

TEST(SliceOrderRules, LogicNeedsOooSlicesToReorder) {
  const CoreConfig bypass_only = sliced_cfg(
      2, static_cast<unsigned>(Technique::PartialBypass));
  EXPECT_EQ(slice_order(ExecClass::Logic, bypass_only),
            SliceOrder::LowToHigh);
  EXPECT_EQ(slice_order(ExecClass::BranchEq, bypass_only),
            SliceOrder::LowToHigh);

  const CoreConfig with_ooo = sliced_cfg(
      2, static_cast<unsigned>(Technique::PartialBypass) |
             static_cast<unsigned>(Technique::OooSlices));
  EXPECT_EQ(slice_order(ExecClass::Logic, with_ooo), SliceOrder::Any);
  EXPECT_EQ(slice_order(ExecClass::BranchEq, with_ooo), SliceOrder::Any);
  // Carry chains stay serial no matter what.
  EXPECT_EQ(slice_order(ExecClass::Add, with_ooo), SliceOrder::LowToHigh);
}

TEST(SliceDeps, PositionalClassesReadTheirOwnSlice) {
  const SliceGeometry g{4};
  for (const ExecClass cls :
       {ExecClass::Logic, ExecClass::Add, ExecClass::BranchEq}) {
    for (unsigned s = 0; s < 4; ++s)
      EXPECT_EQ(needed_source_slices(cls, s, g), u32{1} << s);
  }
}

TEST(SliceDeps, ShiftsReadNeighbouringSlices) {
  const SliceGeometry g{4};
  EXPECT_EQ(needed_source_slices(ExecClass::ShiftLeft, 0, g), 0b0001u);
  EXPECT_EQ(needed_source_slices(ExecClass::ShiftLeft, 2, g), 0b0110u);
  EXPECT_EQ(needed_source_slices(ExecClass::ShiftRight, 3, g), 0b1000u);
  EXPECT_EQ(needed_source_slices(ExecClass::ShiftRight, 1, g), 0b0110u);
}

TEST(SliceDeps, CollectClassesReadEverything) {
  const SliceGeometry g{2};
  EXPECT_EQ(needed_source_slices(ExecClass::Mul, 0, g), 0b11u);
  EXPECT_EQ(needed_source_slices(ExecClass::JumpReg, 0, g), 0b11u);
}

TEST(SliceDeps, VariableShiftsReadAmountSlice0) {
  EXPECT_TRUE(reads_amount_slice0(Op::SLLV));
  EXPECT_TRUE(reads_amount_slice0(Op::SRAV));
  EXPECT_FALSE(reads_amount_slice0(Op::SLL));
  EXPECT_FALSE(reads_amount_slice0(Op::ADD));
}

// --- configuration presets ----------------------------------------------------------

TEST(Config, BaseMachineIsTable2) {
  const MachineConfig cfg = base_machine();
  EXPECT_EQ(cfg.core.fetch_width, 4u);
  EXPECT_EQ(cfg.core.ruu_entries, 64u);
  EXPECT_EQ(cfg.core.lsq_entries, 32u);
  EXPECT_EQ(cfg.core.slices, 1u);
  EXPECT_FALSE(cfg.core.sliced());
  EXPECT_EQ(cfg.memory.l1d.size_bytes, 64u * 1024);
  EXPECT_EQ(cfg.memory.l1d.ways, 4u);
  EXPECT_EQ(cfg.memory.l2.size_bytes, 1024u * 1024);
  EXPECT_EQ(cfg.memory.memory_latency, 100u);
  EXPECT_EQ(cfg.branch.gshare_entries, 64u * 1024);
  EXPECT_EQ(cfg.branch.ras_depth, 8u);
  EXPECT_EQ(cfg.branch.btb_sets, 512u);
  EXPECT_EQ(cfg.branch.btb_ways, 4u);
}

TEST(Config, SimplePipelinedKeepsAtomicOperands) {
  const MachineConfig cfg = simple_pipelined_machine(2);
  EXPECT_EQ(cfg.core.slices, 2u);
  EXPECT_EQ(cfg.core.techniques, kNoTechniques);
  EXPECT_FALSE(cfg.core.has(Technique::PartialBypass));
  EXPECT_EQ(cfg.memory.l1d_latency, 1u);
}

TEST(Config, SliceBy4RaisesL1Latency) {
  EXPECT_EQ(simple_pipelined_machine(4).memory.l1d_latency, 2u);
  EXPECT_EQ(bitsliced_machine(4, kAllTechniques).memory.l1d_latency, 2u);
  EXPECT_EQ(bitsliced_machine(2, kAllTechniques).memory.l1d_latency, 1u);
}

TEST(Config, TechniqueOrderMatchesFigure12) {
  const auto& order = technique_order();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], Technique::PartialBypass);
  EXPECT_EQ(order[1], Technique::OooSlices);
  EXPECT_EQ(order[2], Technique::EarlyBranch);
  EXPECT_EQ(order[3], Technique::EarlyLsq);
  EXPECT_EQ(order[4], Technique::PartialTag);
}

TEST(Config, TechniquesRequireSlicing) {
  CoreConfig c;
  c.slices = 1;
  c.techniques = kAllTechniques;
  EXPECT_FALSE(c.has(Technique::PartialBypass))
      << "an unsliced machine has no partial operands";
}

TEST(Config, PipelineDiagramMatchesFigure10) {
  EXPECT_NE(pipeline_diagram(base_machine()).find(" EX "),
            std::string::npos);
  const std::string by4 = pipeline_diagram(simple_pipelined_machine(4));
  EXPECT_NE(by4.find("EX1 EX2 EX3 EX4"), std::string::npos);
  EXPECT_NE(by4.find("Fetch1 Fetch2 Dec1 Dec2 DP1 DP2 Sch1 Sch2 Sch3"),
            std::string::npos);
}

TEST(Config, DescribeMentionsKeyParameters) {
  const std::string d = bitsliced_machine(2, kAllTechniques).describe();
  EXPECT_NE(d.find("64-entry RUU"), std::string::npos);
  EXPECT_NE(d.find("32-entry LSQ"), std::string::npos);
  EXPECT_NE(d.find("gshare"), std::string::npos);
  EXPECT_NE(d.find("partial tag matching"), std::string::npos);
}

}  // namespace
}  // namespace bsp
