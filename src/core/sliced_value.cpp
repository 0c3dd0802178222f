#include "core/sliced_value.hpp"

#include <cassert>

namespace bsp {

SliceOrder slice_order(ExecClass cls, const CoreConfig& cfg) {
  if (!cfg.has(Technique::PartialBypass)) return SliceOrder::Collect;
  switch (cls) {
    case ExecClass::Logic:
    case ExecClass::MfHiLo:
      return cfg.has(Technique::OooSlices) ? SliceOrder::Any
                                           : SliceOrder::LowToHigh;
    case ExecClass::BranchEq:
      // The per-slice equality comparisons are independent (logic-like).
      return cfg.has(Technique::OooSlices) ? SliceOrder::Any
                                           : SliceOrder::LowToHigh;
    case ExecClass::Add:
    case ExecClass::Load:    // effective-address generation is an add
    case ExecClass::Store:
    case ExecClass::Compare: // subtract + sign test rides the carry chain
    case ExecClass::BranchSign:
    case ExecClass::ShiftLeft:
      return SliceOrder::LowToHigh;
    case ExecClass::ShiftRight:
      return SliceOrder::HighToLow;
    case ExecClass::Mul:
    case ExecClass::Div:
      return SliceOrder::Collect;
    case ExecClass::Jump:
    case ExecClass::Syscall:
      return SliceOrder::LowToHigh;  // no register sources; order irrelevant
    case ExecClass::JumpReg:
      return SliceOrder::Collect;    // needs the whole target address
    case ExecClass::FpAlu:
    case ExecClass::FpMul:
    case ExecClass::FpDiv:
    case ExecClass::FpSqrt:
    case ExecClass::FpCompare:
    case ExecClass::FpBranch:
      return SliceOrder::Collect;    // §6: FP runs on full-collect units
  }
  return SliceOrder::Collect;
}

u32 needed_source_slices(ExecClass cls, unsigned s, const SliceGeometry& g) {
  const u32 all = low_mask(g.count);
  switch (cls) {
    case ExecClass::Logic:
    case ExecClass::MfHiLo:
    case ExecClass::BranchEq:
    case ExecClass::Add:
    case ExecClass::Load:
    case ExecClass::Store:
    case ExecClass::Compare:
    case ExecClass::BranchSign:
      // Positional: slice s of the result reads slice s of each source (the
      // carry, where present, is an inter-slice dependence, not a source
      // slice requirement).
      return u32{1} << s;
    case ExecClass::ShiftLeft:
      // Result slice s of `v << k` draws on source bits at or below bit
      // (s+1)*w-1, i.e. source slices s and s-1; lower ones arrive
      // transitively through the inter-slice chain.
      return (u32{1} << s) | (s > 0 ? (u32{1} << (s - 1)) : 0);
    case ExecClass::ShiftRight:
      return (u32{1} << s) |
             (s + 1 < g.count ? (u32{1} << (s + 1)) : 0);
    case ExecClass::Mul:
    case ExecClass::Div:
    case ExecClass::JumpReg:
    case ExecClass::FpAlu:
    case ExecClass::FpMul:
    case ExecClass::FpDiv:
    case ExecClass::FpSqrt:
    case ExecClass::FpCompare:
    case ExecClass::FpBranch:
      return all;
    case ExecClass::Jump:
    case ExecClass::Syscall:
      return 0;
  }
  return all;
}

bool reads_amount_slice0(Op op) {
  return op == Op::SLLV || op == Op::SRLV || op == Op::SRAV;
}

}  // namespace bsp
