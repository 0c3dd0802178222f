#include "lsq/disambig.hpp"

#include <algorithm>
#include <cassert>

namespace bsp {

const char* alias_category_name(AliasCategory c) {
  switch (c) {
    case AliasCategory::NoStoresInQueue: return "no stores in queue";
    case AliasCategory::ZeroMatch: return "zero entries match";
    case AliasCategory::SingleNonMatch: return "single entry - non-match";
    case AliasCategory::SingleMatchOneStore:
      return "single entry - match (one store)";
    case AliasCategory::SingleMatchMultStores:
      return "single entry - match (mult stores)";
    case AliasCategory::MultMatchSameAddr:
      return "mult entries match - same addr";
    case AliasCategory::MultMatchDiffAddr:
      return "mult entries match - diff addr";
    case AliasCategory::kCount: break;
  }
  return "?";
}

AliasCategory classify_aliasing(u32 load_addr,
                                std::span<const u32> store_addrs,
                                unsigned bits_compared) {
  assert(bits_compared >= 1 && bits_compared <= kDisambigBits);
  if (store_addrs.empty()) return AliasCategory::NoStoresInQueue;

  const u32 lw = load_addr >> kDisambigLoBit;  // word address (30 bits)
  const u32 mask = low_mask(bits_compared);

  unsigned partial_matches = 0;
  unsigned full_matches = 0;
  bool all_same_full_addr = true;
  u32 first_match_word = 0;
  for (const u32 s : store_addrs) {
    const u32 sw = s >> kDisambigLoBit;
    if (((sw ^ lw) & mask) != 0) continue;
    if (partial_matches == 0)
      first_match_word = sw;
    else if (sw != first_match_word)
      all_same_full_addr = false;
    ++partial_matches;
    if (sw == lw) ++full_matches;
  }

  if (partial_matches == 0) return AliasCategory::ZeroMatch;
  if (partial_matches == 1) {
    if (full_matches == 1)
      return store_addrs.size() == 1 ? AliasCategory::SingleMatchOneStore
                                     : AliasCategory::SingleMatchMultStores;
    return AliasCategory::SingleNonMatch;
  }
  return all_same_full_addr ? AliasCategory::MultMatchSameAddr
                            : AliasCategory::MultMatchDiffAddr;
}

bool aliasing_resolved(AliasCategory c) {
  switch (c) {
    case AliasCategory::NoStoresInQueue:
    case AliasCategory::ZeroMatch:
    case AliasCategory::SingleMatchOneStore:
    case AliasCategory::SingleMatchMultStores:
    case AliasCategory::MultMatchSameAddr:
      return true;  // issue early, or unique forwarding source identified
    case AliasCategory::SingleNonMatch:
    case AliasCategory::MultMatchDiffAddr:
      return false;  // needs more bits
    case AliasCategory::kCount: break;
  }
  return false;
}

bool ranges_overlap(u32 a, unsigned a_bytes, u32 b, unsigned b_bytes) {
  // 64-bit arithmetic so ranges ending at 2^32 don't wrap.
  const u64 a_end = u64{a} + a_bytes;
  const u64 b_end = u64{b} + b_bytes;
  return a < b_end && b < a_end;
}

std::optional<u32> forward_bytes(u32 load_addr, unsigned load_bytes,
                                 u32 store_addr, unsigned store_bytes,
                                 u32 store_data) {
  if (load_addr < store_addr) return std::nullopt;
  const u64 load_end = u64{load_addr} + load_bytes;
  const u64 store_end = u64{store_addr} + store_bytes;
  if (load_end > store_end) return std::nullopt;
  const unsigned shift = (load_addr - store_addr) * 8;  // little-endian
  return (store_data >> shift) & low_mask(load_bytes * 8);
}

DisambigResult disambiguate_load(const LoadQuery& load,
                                 std::span<const StoreView> older_stores,
                                 bool enable_partial) {
  DisambigResult result;

  if (older_stores.empty()) {
    result.decision = LoadDecision::Issue;
    return result;
  }

  // Conventional policy: the comparison hardware works on whole operands, so
  // everything must be fully generated before any decision.
  if (!enable_partial) {
    if (load.addr_known_bits < 32) return result;  // WaitStore
    for (const auto& s : older_stores)
      if (s.addr_known_bits < 32) return result;
  }
  if (load.addr_known_bits <= kDisambigLoBit) return result;

  const StoreView* candidate = nullptr;  // youngest full match
  for (const auto& s : older_stores) {
    if (s.addr_known_bits <= kDisambigLoBit) return result;  // unknown blocks

    const unsigned common = std::min(load.addr_known_bits, s.addr_known_bits);
    // Compare the commonly-known bits above the byte offset.
    if (!match_bits(load.addr, s.addr, kDisambigLoBit,
                    common - kDisambigLoBit))
      continue;  // ruled out

    if (common < 32) return result;  // unconfirmed partial match: wait

    // Fully matching word: does it actually overlap at byte granularity?
    if (!ranges_overlap(load.addr, load.bytes, s.addr, s.bytes)) continue;
    candidate = &s;  // youngest overlapping store wins (stores are oldest
                     // first, so keep overwriting)
  }

  result.used_partial = load.addr_known_bits < 32;
  if (!candidate) {
    result.decision = LoadDecision::Issue;
    return result;
  }
  // Forward only when the youngest conflicting store fully covers the load
  // and its data has been produced.
  if (candidate->data_ready) {
    if (const auto v = forward_bytes(load.addr, load.bytes, candidate->addr,
                                     candidate->bytes, candidate->data)) {
      result.decision = LoadDecision::Forward;
      result.store_id = candidate->id;
      result.forwarded = *v;
      return result;
    }
  }
  result.decision = LoadDecision::WaitStore;
  result.used_partial = false;
  return result;
}

}  // namespace bsp
