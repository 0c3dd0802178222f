// Brute-force reference disambiguator, shared by the differential tests of
// disambiguate_load (test_reference_models.cpp) and of the core's LSQ
// (test_mem_pipeline.cpp): with every address complete, the youngest older
// store that overlaps the load decides.
#pragma once

#include <optional>
#include <span>

#include "lsq/disambig.hpp"

namespace bsp {

// The decision disambiguate_load must reach when the load and every store in
// `stores` (oldest first) have complete addresses: Issue without an
// overlapping store; Forward (with that store's id and bytes) when the
// youngest overlapping one has its data and covers the load; else
// WaitStore.
inline DisambigResult reference_disambig(const LoadQuery& load,
                                         std::span<const StoreView> stores) {
  const StoreView* conflict = nullptr;
  for (const StoreView& s : stores)
    if (ranges_overlap(load.addr, load.bytes, s.addr, s.bytes)) conflict = &s;
  DisambigResult r;
  if (!conflict) {
    r.decision = LoadDecision::Issue;
    return r;
  }
  const std::optional<u32> bytes =
      conflict->data_ready
          ? forward_bytes(load.addr, load.bytes, conflict->addr,
                          conflict->bytes, conflict->data)
          : std::nullopt;
  if (bytes) {
    r.decision = LoadDecision::Forward;
    r.store_id = conflict->id;
    r.forwarded = *bytes;
  }
  return r;
}

}  // namespace bsp
