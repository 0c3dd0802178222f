// Load-store disambiguation with partial address knowledge (paper §5.1).
//
// Pure decision logic shared by the trace-driven Figure-2 characterisation
// and the timing core's LSQ. Addresses are compared serially starting at bit
// 2 (bits 0..1 select the byte within a word; the paper's comparison also
// starts at bit 2), so "k bits compared" means address bits [2, 2+k).
#pragma once

#include <optional>
#include <span>

#include "util/bitops.hpp"

namespace bsp {

inline constexpr unsigned kDisambigLoBit = 2;   // first bit compared
inline constexpr unsigned kDisambigBits = 30;   // bits 2..31

// --- Figure 2 categories -----------------------------------------------------

// Outcome of comparing a load address against the stores in the LSQ using
// the low `k` comparable bits. Mirrors the legend of paper Figure 2.
enum class AliasCategory : u8 {
  NoStoresInQueue,      // trivially disambiguated
  ZeroMatch,            // stores present, all ruled out by the partial bits
  SingleNonMatch,       // one partial match, but full addresses differ
  SingleMatchOneStore,  // one partial match, full match; queue held 1 store
  SingleMatchMultStores,// one partial match, full match; queue held >1 store
  MultMatchSameAddr,    // several partial matches, all the same full address
  MultMatchDiffAddr,    // several partial matches with differing addresses
  kCount
};

inline constexpr unsigned kNumAliasCategories =
    static_cast<unsigned>(AliasCategory::kCount);

const char* alias_category_name(AliasCategory c);

// Classifies one load against the (fully known) prior store addresses using
// `bits_compared` bits from bit 2 upward. Addresses are compared at word
// granularity, as in the paper. bits_compared == kDisambigBits reproduces
// the conventional full comparison.
AliasCategory classify_aliasing(u32 load_addr,
                                std::span<const u32> store_addrs,
                                unsigned bits_compared);

// True when the partial comparison already yields a final decision: the load
// can issue (all ruled out) or has found its unique forwarding store.
bool aliasing_resolved(AliasCategory c);

// --- timing-core decision ------------------------------------------------------

// A store as seen by a load being scheduled: how many low address bits have
// been produced so far, and whether its data is available to forward.
struct StoreView {
  int id = -1;                // core-side tag, returned in the decision
  unsigned addr_known_bits = 0;  // 0 (unknown) .. 32 (complete)
  u32 addr = 0;               // valid in its low addr_known_bits bits
  unsigned bytes = 0;         // access size (valid once address is known)
  bool data_ready = false;
  u32 data = 0;
};

struct LoadQuery {
  unsigned addr_known_bits = 0;
  u32 addr = 0;
  unsigned bytes = 0;
};

enum class LoadDecision : u8 {
  Issue,        // no conflicting older store — may go to memory
  Forward,      // unique fully-matching older store with ready data
  WaitStore,    // must wait (unknown store address / partial match pending /
                // overlapping store not forwardable yet)
};

struct DisambigResult {
  LoadDecision decision = LoadDecision::WaitStore;
  int store_id = -1;       // Forward: the source store
  u32 forwarded = 0;       // Forward: load result value
  bool used_partial = false;  // decision was reached before the load's
                              // address was completely generated
};

// Decides what a load may do given the *older* stores in the LSQ (youngest
// last). Implements the paper's policy:
//   * a store with no known address bits blocks the load (Table 2),
//   * stores are ruled out once the commonly-known low bits differ,
//   * a unique full match forwards if its data is ready (and covers the
//     load's bytes), otherwise blocks,
//   * partial matches that cannot be confirmed yet block.
// When `enable_partial` is false the load needs its own full address and all
// store addresses before any decision (the conventional baseline).
DisambigResult disambiguate_load(const LoadQuery& load,
                                 std::span<const StoreView> older_stores,
                                 bool enable_partial);

// Extracts the bytes a load wants from a covering store's data.
// Returns nullopt when the store does not fully cover the load.
std::optional<u32> forward_bytes(u32 load_addr, unsigned load_bytes,
                                 u32 store_addr, unsigned store_bytes,
                                 u32 store_data);

// Do the two byte ranges overlap at all?
bool ranges_overlap(u32 a, unsigned a_bytes, u32 b, unsigned b_bytes);

}  // namespace bsp
