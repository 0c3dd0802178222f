// Slice-level dependence rules of the bit-sliced datapath (paper Figure 8).
//
// Each RUU entry's result is produced slice by slice. The rules below say,
// for every ExecClass, in which order an instruction's slice-ops execute and
// which *source* slices a given slice-op consumes. They are pure functions so
// the scheduler, the tests and the documentation all share one definition.
#pragma once

#include <array>
#include <limits>

#include "config/machine_config.hpp"
#include "isa/isa.hpp"
#include "util/bitops.hpp"

namespace bsp {

using Cycle = u64;
inline constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

// How an instruction's slice-ops are ordered.
enum class SliceOrder : u8 {
  LowToHigh,  // carry-style serial chain (add, left shift, compare)
  HighToLow,  // right shifts: bits move downward
  Any,        // logic-style: slices independent (needs OooSlices, else
              // the issue logic serialises them low-to-high)
  Collect,    // full-collect unit (mul/div): one op needing all source slices
};

// Ordering for `cls` under the given technique set. When PartialBypass is
// off, everything behaves as Collect (atomic operands, paper Figure 8a).
SliceOrder slice_order(ExecClass cls, const CoreConfig& cfg);

// Position of slice-op `op_idx` in the order the select logic examines an
// instruction's ops: HighToLow instructions are walked from the top slice
// down, everything else from the bottom up. The event-driven scheduler sorts
// same-age candidates by this position so its within-entry issue priority is
// identical to a full visit-order walk.
inline unsigned slice_visit_pos(SliceOrder order, unsigned num_ops,
                                unsigned op_idx) {
  return order == SliceOrder::HighToLow ? num_ops - 1 - op_idx : op_idx;
}

// Source slices consumed by result-slice `s` of class `cls`, as a bitmask
// over source slices. The scheduler applies it to both register sources.
// For Collect, every slice-op needs all source slices.
u32 needed_source_slices(ExecClass cls, unsigned s, const SliceGeometry& g);

// Variable shifts consume the shift amount from the low slice of rs.
bool reads_amount_slice0(Op op);

}  // namespace bsp
