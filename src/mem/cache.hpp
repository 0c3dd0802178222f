// Set-associative cache model with LRU replacement, partial tag matching and
// MRU way prediction (paper §5.2 and §7).
//
// The model tracks tags and replacement state only — data values always come
// from the simulator's backing memory, so a cache never holds stale data and
// the timing and functional paths cannot diverge.
#pragma once

#include <cassert>
#include <optional>
#include <vector>

#include "util/bitops.hpp"

namespace bsp {

struct CacheGeometry {
  u32 size_bytes = 64 * 1024;
  u32 line_bytes = 64;
  unsigned ways = 4;

  unsigned offset_bits() const { return log2_exact(line_bytes); }
  u32 num_sets() const { return size_bytes / (line_bytes * ways); }
  unsigned index_bits() const { return log2_exact(num_sets()); }
  unsigned tag_bits() const { return 32 - offset_bits() - index_bits(); }
  // Lowest address bit belonging to the tag.
  unsigned tag_lo_bit() const { return offset_bits() + index_bits(); }
  bool valid() const {
    return is_pow2(size_bytes) && is_pow2(line_bytes) && ways >= 1 &&
           size_bytes >= line_bytes * ways &&
           is_pow2(num_sets());
  }
  bool operator==(const CacheGeometry&) const = default;
};

// Way-selection policy when multiple ways match a partial tag (§7: the paper
// uses MRU; others exist for the ablation study).
enum class WayPolicy { MRU, FirstMatch, Random };

class Cache {
 public:
  explicit Cache(CacheGeometry g, unsigned hit_latency = 1);

  const CacheGeometry& geometry() const { return geom_; }
  unsigned hit_latency() const { return hit_latency_; }

  u32 index_of(u32 addr) const {
    return bits(addr, geom_.offset_bits(), geom_.index_bits());
  }
  u32 tag_of(u32 addr) const { return addr >> geom_.tag_lo_bit(); }

  // --- pure (state-preserving) probes, used by the characterisations -------

  // The way holding `addr`, or nullopt. Does not touch LRU state.
  std::optional<unsigned> find(u32 addr) const;

  // Bitmask of valid ways whose tag agrees with addr's tag on its low
  // `n_tag_bits` bits (n == tag_bits() gives the full comparison).
  u32 partial_match_ways(u32 addr, unsigned n_tag_bits) const;

  // Most recently used valid way of `set` restricted to `way_mask`;
  // nullopt if the mask contains no valid way.
  std::optional<unsigned> mru_way_among(u32 set, u32 way_mask) const;

  // Way-predictor choice among partially matching ways under `policy`.
  // `random_state` is advanced when policy == Random.
  std::optional<unsigned> predict_way(u32 addr, u32 way_mask, WayPolicy policy,
                                      u32* random_state) const;

  // --- state-changing access ------------------------------------------------

  struct AccessResult {
    bool hit = false;
    unsigned way = 0;
    bool evicted = false;   // miss evicted a valid line
    u32 victim_addr = 0;    // line address of the evicted block
    bool victim_dirty = false;
  };

  // Looks up `addr`; on hit updates LRU, on miss fills the LRU way.
  AccessResult access(u32 addr, bool is_write);

  // Invalidates everything (used between measurement phases).
  void flush();

  // --- statistics -------------------------------------------------------------
  u64 accesses() const { return accesses_; }
  u64 misses() const { return misses_; }
  double miss_rate() const {
    return accesses_ ? static_cast<double>(misses_) / accesses_ : 0.0;
  }

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    u32 tag = 0;
    u64 lru = 0;  // higher = more recent
  };

  Line& line(u32 set, unsigned way) { return lines_[set * geom_.ways + way]; }
  const Line& line(u32 set, unsigned way) const {
    return lines_[set * geom_.ways + way];
  }

  CacheGeometry geom_;
  unsigned hit_latency_;
  std::vector<Line> lines_;
  u64 tick_ = 0;
  u64 accesses_ = 0;
  u64 misses_ = 0;
};

}  // namespace bsp
