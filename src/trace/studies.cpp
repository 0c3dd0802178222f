#include "trace/studies.hpp"

#include <cassert>

namespace bsp {

// ---------------------------------------------------------------------------
// LsqAliasStudy
// ---------------------------------------------------------------------------

void LsqAliasStudy::observe(const ExecRecord& rec) {
  if (!rec.is_load && !rec.is_store) return;

  if (rec.is_load) {
    scratch_stores_.clear();
    for (const auto& op : window_)
      if (op.is_store) scratch_stores_.push_back(op.addr);

    ++loads_;
    for (unsigned k = 0; k < kDisambigBits; ++k) {
      const AliasCategory c =
          classify_aliasing(rec.mem_addr, scratch_stores_, k + 1);
      ++counts_[k][static_cast<unsigned>(c)];
    }
  }

  window_.push_back({rec.is_store, rec.mem_addr});
  while (window_.size() > capacity_) window_.pop_front();
}

double LsqAliasStudy::resolved_fraction(unsigned k) const {
  assert(k < kDisambigBits);
  u64 resolved = 0;
  for (unsigned c = 0; c < kNumAliasCategories; ++c)
    if (aliasing_resolved(static_cast<AliasCategory>(c)))
      resolved += counts_[k][c];
  return loads_ ? static_cast<double>(resolved) / loads_ : 0.0;
}

// ---------------------------------------------------------------------------
// PartialTagStudy
// ---------------------------------------------------------------------------

PartialTagStudy::PartialTagStudy(CacheGeometry geometry)
    : cache_(geometry), counts_(geometry.tag_bits()) {}

void PartialTagStudy::observe(const ExecRecord& rec) {
  if (rec.is_load || rec.is_store)
    observe_access(rec.mem_addr, rec.is_store);
}

void PartialTagStudy::observe_access(u32 addr, bool is_write) {
  ++accesses_;
  const auto full_hit_way = cache_.find(addr);
  const unsigned tbits = tag_bits();
  for (unsigned t = 1; t <= tbits; ++t) {
    const u32 ways = cache_.partial_match_ways(addr, t);
    const unsigned n = static_cast<unsigned>(std::popcount(ways));
    Outcome o;
    if (n == 0) {
      o = Outcome::ZeroMatch;
    } else if (n > 1) {
      o = Outcome::MultMatch;
    } else {
      const unsigned w = static_cast<unsigned>(std::countr_zero(ways));
      o = (full_hit_way && *full_hit_way == w) ? Outcome::SingleHit
                                               : Outcome::SingleMiss;
    }
    ++counts_[t - 1][static_cast<unsigned>(o)];
  }
  cache_.access(addr, is_write);
}

// ---------------------------------------------------------------------------
// EarlyBranchStudy
// ---------------------------------------------------------------------------

unsigned EarlyBranchStudy::detection_bit(const DecodedInst& inst, u32 src1,
                                         u32 src2, bool actual_taken) {
  switch (inst.cls()) {
    case ExecClass::BranchEq: {
      // Misprediction is proven when the *actual* outcome is proven.
      const bool actual_equal = src1 == src2;
      (void)actual_taken;
      if (!actual_equal) {
        // Proving inequality: the first differing bit suffices.
        return lowest_diff_bit(src1, src2);
      }
      // Proving equality requires every bit.
      return kWordBits - 1;
    }
    case ExecClass::BranchSign:
      // blez/bgtz/bltz/bgez test the sign (and possibly zero): the sign bit
      // lives in the last slice, so detection happens only at bit 31.
      return kWordBits - 1;
    case ExecClass::FpBranch:
      // bc1f/bc1t read a single condition flag: provable immediately.
      return 0;
    default:
      assert(false && "not a conditional branch");
      return kWordBits - 1;
  }
}

void EarlyBranchStudy::observe(const ExecRecord& rec) {
  if (!rec.is_cond_branch) return;
  ++branches_;
  const bool is_eq = rec.inst.cls() == ExecClass::BranchEq;
  if (is_eq) ++eq_branches_;

  const bool predicted = predictor_.predict(rec.pc);
  predictor_.update(rec.pc, rec.branch_taken);
  if (predicted == rec.branch_taken) return;

  ++mispredictions_;
  if (is_eq) ++eq_mispredictions_;
  const unsigned bit = detection_bit(rec.inst, rec.src1_value, rec.src2_value,
                                     rec.branch_taken);
  ++detect_at_bit_[bit];
}

double EarlyBranchStudy::detected_by_bit(unsigned k) const {
  assert(k < kWordBits);
  u64 sum = 0;
  for (unsigned i = 0; i <= k; ++i) sum += detect_at_bit_[i];
  return mispredictions_ ? static_cast<double>(sum) / mispredictions_ : 0.0;
}

// ---------------------------------------------------------------------------
// OperandProfile
// ---------------------------------------------------------------------------

void OperandProfile::observe(const ExecRecord& rec) {
  ++instructions_;
  switch (rec.inst.cls()) {
    case ExecClass::Logic:
    case ExecClass::Add:
    case ExecClass::ShiftLeft:
    case ExecClass::Compare:     // the subtract's carry chain starts low
    case ExecClass::MfHiLo:
    case ExecClass::Load:        // address generation is an add
    case ExecClass::Store:
    case ExecClass::BranchEq:
    case ExecClass::BranchSign:  // per-slice compares start low, too
      ++startable_low_;
      break;
    case ExecClass::Mul:
    case ExecClass::Div:
    case ExecClass::JumpReg:
    case ExecClass::FpAlu:
    case ExecClass::FpMul:
    case ExecClass::FpDiv:
    case ExecClass::FpSqrt:
    case ExecClass::FpCompare:
      ++full_collect_;
      break;
    case ExecClass::ShiftRight:  // starts at the *high* slice
    case ExecClass::Jump:
    case ExecClass::Syscall:
    case ExecClass::FpBranch:    // reads a 1-bit flag, not a sliced operand
      break;
  }
  if (rec.dest != 0) {
    ++results_;
    const u32 v = rec.dest_value;
    if (sign_extend(v & 0xffffu, 16) == v) ++narrow16_;
    if (sign_extend(v & 0xffu, 8) == v) ++narrow8_;
  }
}

}  // namespace bsp
