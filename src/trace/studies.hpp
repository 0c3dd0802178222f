// Trace-driven characterisation engines for the paper's three partial-operand
// applications. Each consumes ExecRecords and accumulates the exact category
// histograms plotted in the paper:
//   * LsqAliasStudy      -> Figure 2 (early load-store disambiguation)
//   * PartialTagStudy    -> Figure 4 (partial tag matching)
//   * EarlyBranchStudy   -> Figure 6 (early branch misprediction detection)
#pragma once

#include <array>
#include <deque>
#include <vector>

#include "branch/predictor.hpp"
#include "emu/emulator.hpp"
#include "lsq/disambig.hpp"
#include "mem/cache.hpp"

namespace bsp {

// ---------------------------------------------------------------------------
// Figure 2: early load-store disambiguation
// ---------------------------------------------------------------------------
//
// Models the LSQ contents at the instant a load is inserted: the most recent
// (lsq_entries - 1) memory instructions form the queue, and the stores among
// them are the addresses the load must disambiguate against. Store addresses
// are assumed fully known (the paper's "perfect knowledge of prior store
// addresses" assumption for this characterisation).
class LsqAliasStudy {
 public:
  explicit LsqAliasStudy(unsigned lsq_entries = 32)
      : capacity_(lsq_entries > 0 ? lsq_entries - 1 : 0) {}

  void observe(const ExecRecord& rec);

  u64 loads() const { return loads_; }
  // counts(k, c): loads classified as category c when comparing address bits
  // [2, 2+k+1) — i.e. k = 0 corresponds to "bit 2", k = 29 to the full
  // word-address comparison the paper labels bit 31.
  u64 count(unsigned k, AliasCategory c) const {
    return counts_[k][static_cast<unsigned>(c)];
  }
  double fraction(unsigned k, AliasCategory c) const {
    return loads_ ? static_cast<double>(count(k, c)) / loads_ : 0.0;
  }
  // Fraction of loads whose outcome is final after k+1 compared bits (the
  // paper's claim: ~100 % after 9 bits, i.e. k = 6 counting from bit 2).
  double resolved_fraction(unsigned k) const;

 private:
  struct MemOp {
    bool is_store;
    u32 addr;
  };
  unsigned capacity_;
  std::deque<MemOp> window_;
  u64 loads_ = 0;
  std::array<std::array<u64, kNumAliasCategories>, kDisambigBits> counts_{};
  std::vector<u32> scratch_stores_;
};

// ---------------------------------------------------------------------------
// Figure 4: partial tag matching
// ---------------------------------------------------------------------------
//
// Streams data accesses through a cache and, before each access updates the
// cache, classifies what a partial tag comparison with t bits would conclude.
class PartialTagStudy {
 public:
  enum class Outcome : u8 {
    ZeroMatch,    // no way matches the partial tag: early, exact miss signal
    SingleHit,    // unique partial match that the full tag confirms
    SingleMiss,   // unique partial match that the full tag refutes
    MultMatch,    // several ways match: needs prediction or more bits
    kCount
  };
  static constexpr unsigned kNumOutcomes = static_cast<unsigned>(Outcome::kCount);

  explicit PartialTagStudy(CacheGeometry geometry);

  void observe(const ExecRecord& rec);   // uses loads and stores
  void observe_access(u32 addr, bool is_write);

  const Cache& cache() const { return cache_; }
  u64 accesses() const { return accesses_; }
  // count(t, o): accesses classified as outcome o with t tag bits compared,
  // t in [1, tag_bits].
  u64 count(unsigned t, Outcome o) const {
    return counts_[t - 1][static_cast<unsigned>(o)];
  }
  double fraction(unsigned t, Outcome o) const {
    return accesses_ ? static_cast<double>(count(t, o)) / accesses_ : 0.0;
  }
  unsigned tag_bits() const { return cache_.geometry().tag_bits(); }

 private:
  Cache cache_;
  u64 accesses_ = 0;
  std::vector<std::array<u64, kNumOutcomes>> counts_;  // [tag bits - 1]
};

// ---------------------------------------------------------------------------
// Figure 6: early branch misprediction detection
// ---------------------------------------------------------------------------
//
// Runs a direction predictor over the trace's conditional branches. For every
// misprediction, computes the lowest operand bit position at which the
// misprediction is provable:
//   * beq/bne whose actual outcome is "operands differ": the first differing
//     bit (the paper's Figure 5 case),
//   * beq/bne whose actual outcome is "operands equal": all 32 bits,
//   * sign-testing branches (blez/bgtz/bltz/bgez): bit 31.
class EarlyBranchStudy {
 public:
  explicit EarlyBranchStudy(unsigned gshare_entries = 64 * 1024)
      : predictor_(gshare_entries) {}

  void observe(const ExecRecord& rec);

  u64 branches() const { return branches_; }
  u64 mispredictions() const { return mispredictions_; }
  double accuracy() const {
    return branches_ ? 1.0 - static_cast<double>(mispredictions_) / branches_
                     : 1.0;
  }
  // Fraction of mispredictions detectable once operand bits [0, k] exist.
  double detected_by_bit(unsigned k) const;

  // §5.3 statistics: beq/bne share of dynamic branches and of mispredictions.
  u64 eq_branches() const { return eq_branches_; }
  u64 eq_mispredictions() const { return eq_mispredictions_; }

  // First operand bit at which a mispredicted branch is provably mispredicted
  // (pure helper; exposed for unit tests).
  static unsigned detection_bit(const DecodedInst& inst, u32 src1, u32 src2,
                                bool actual_taken);

 private:
  GsharePredictor predictor_;
  u64 branches_ = 0;
  u64 mispredictions_ = 0;
  u64 eq_branches_ = 0;
  u64 eq_mispredictions_ = 0;
  std::array<u64, kWordBits> detect_at_bit_{};
};

// ---------------------------------------------------------------------------
// Operand criticality profile (motivation for §2/§6)
// ---------------------------------------------------------------------------
//
// Quantifies, per dynamic instruction, how much of its input operands it
// needs before *starting* execution under the Figure-8 slice rules, and how
// often produced results are narrow (sign-extensions of their low slice —
// the §6 narrow-width opportunity).
class OperandProfile {
 public:
  void observe(const ExecRecord& rec);

  u64 instructions() const { return instructions_; }

  // Fraction of instructions whose first slice-op consumes only the low
  // slice of its sources (chainable at slice granularity): everything but
  // full-collect classes and right shifts.
  double startable_with_low_slice() const {
    return frac(startable_low_);
  }
  // Fraction needing complete operands before any work (mul/div/jr).
  double needs_full_operands() const { return frac(full_collect_); }
  // Fraction of register results that are sign-extensions of their low
  // `width`-bit slice (width 16 or 8).
  double narrow_results(unsigned width) const {
    assert(width == 16 || width == 8);
    return results_ ? static_cast<double>(width == 16 ? narrow16_ : narrow8_) /
                          results_
                    : 0.0;
  }
  u64 results() const { return results_; }

 private:
  double frac(u64 n) const {
    return instructions_ ? static_cast<double>(n) / instructions_ : 0.0;
  }
  u64 instructions_ = 0;
  u64 startable_low_ = 0;
  u64 full_collect_ = 0;
  u64 results_ = 0;
  u64 narrow16_ = 0;
  u64 narrow8_ = 0;
};

}  // namespace bsp
