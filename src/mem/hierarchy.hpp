// Two-level memory hierarchy per the paper's Table 2 machine configuration:
//   L1 I$: 64 KB, 2-way, 64 B lines, 1 cycle
//   L1 D$: 64 KB, 4-way, 64 B lines, 1 cycle (2 cycles under slice-by-4, §7.1)
//   L2 unified: 1 MB, 4-way, 64 B lines, 6 cycles
//   main memory: 100 cycles
#pragma once

#include "mem/cache.hpp"

namespace bsp {

struct HierarchyConfig {
  CacheGeometry l1i{64 * 1024, 64, 2};
  unsigned l1i_latency = 1;
  CacheGeometry l1d{64 * 1024, 64, 4};
  unsigned l1d_latency = 1;
  CacheGeometry l2{1024 * 1024, 64, 4};
  unsigned l2_latency = 6;
  unsigned memory_latency = 100;
  bool operator==(const HierarchyConfig&) const = default;
};

class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const HierarchyConfig& cfg = {});

  // Total access latency in cycles for an instruction fetch at `addr`.
  unsigned fetch_latency(u32 addr);

  // Total access latency in cycles for a data access at `addr`.
  // `l1_hit_out`, if non-null, reports whether L1D hit (the speculative
  // scheduler needs this to decide replay).
  unsigned data_latency(u32 addr, bool is_write, bool* l1_hit_out = nullptr);

  Cache& l1i() { return l1i_; }
  Cache& l1d() { return l1d_; }
  Cache& l2() { return l2_; }
  const Cache& l1d() const { return l1d_; }
  const HierarchyConfig& config() const { return cfg_; }

 private:
  unsigned below_l1(u32 addr, bool is_write);

  HierarchyConfig cfg_;
  Cache l1i_;
  Cache l1d_;
  Cache l2_;
};

}  // namespace bsp
