// Sparse byte-addressable memory for the emulated 32-bit address space.
//
// Pages are allocated on first touch so a 4 GB address space costs only what
// the program actually uses. Little-endian, matching the host so data-segment
// images can be copied in directly. Unaligned u16/u32 accesses are supported
// (assembled programs never produce them, but synthetic stress tests do).
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/bitops.hpp"

namespace bsp {

class SparseMemory {
 public:
  static constexpr unsigned kPageShift = 12;
  static constexpr u32 kPageSize = 1u << kPageShift;

  u8 load_u8(u32 addr) const {
    const Page* p = find_page(addr);
    return p ? p->bytes[offset(addr)] : 0;
  }
  u16 load_u16(u32 addr) const {
    // An aligned u16 never crosses a page (pages are 4-aligned and larger).
    if ((addr & 1) == 0) {
      const Page* p = find_page(addr);
      if (!p) return 0;
      u16 v;
      std::memcpy(&v, &p->bytes[offset(addr)], sizeof v);
      return v;
    }
    return static_cast<u16>(load_u8(addr) | (u16{load_u8(addr + 1)} << 8));
  }
  u32 load_u32(u32 addr) const {
    if ((addr & 3) == 0) {
      const Page* p = find_page(addr);
      if (!p) return 0;
      u32 v;
      std::memcpy(&v, &p->bytes[offset(addr)], sizeof v);
      return v;
    }
    return u32{load_u16(addr)} | (u32{load_u16(addr + 2)} << 16);
  }

  void store_u8(u32 addr, u8 v) { page(addr).bytes[offset(addr)] = v; }
  void store_u16(u32 addr, u16 v) {
    if ((addr & 1) == 0) {
      std::memcpy(&page(addr).bytes[offset(addr)], &v, sizeof v);
      return;
    }
    store_u8(addr, static_cast<u8>(v));
    store_u8(addr + 1, static_cast<u8>(v >> 8));
  }
  void store_u32(u32 addr, u32 v) {
    if ((addr & 3) == 0) {
      std::memcpy(&page(addr).bytes[offset(addr)], &v, sizeof v);
      return;
    }
    store_u16(addr, static_cast<u16>(v));
    store_u16(addr + 2, static_cast<u16>(v >> 16));
  }

  // Copies `n` bytes to `addr` one page-sized chunk at a time. Same result
  // as a store_u8 loop, including the pages it allocates (zero bytes too)
  // and the wrap from 0xffffffff to 0.
  void write_block(u32 addr, const void* src, std::size_t n) {
    const u8* b = static_cast<const u8*>(src);
    while (n > 0) {
      const std::size_t chunk =
          std::min<std::size_t>(n, kPageSize - offset(addr));
      std::memcpy(&page(addr).bytes[offset(addr)], b, chunk);
      addr += static_cast<u32>(chunk);
      b += chunk;
      n -= chunk;
    }
  }

  std::size_t pages_allocated() const { return pages_.size(); }

  // Read-only pointer to the allocated page containing `addr` (null when the
  // page was never touched). Page storage is heap-allocated and never moves
  // while this SparseMemory lives, so the pointer stays valid across later
  // loads/stores — the fast-forward interpreter caches it for instruction
  // fetch. A null result must not be cached: a later store can allocate the
  // page.
  const u8* page_bytes(u32 addr) const {
    const Page* p = find_page(addr);
    return p ? p->bytes.data() : nullptr;
  }

  // Visits every allocated page in ascending page-id order (deterministic,
  // for checkpoint serialisation). The callback receives the page's base
  // address and kPageSize bytes.
  template <typename Fn>
  void for_each_page(Fn&& fn) const {
    std::vector<u32> ids;
    ids.reserve(pages_.size());
    for (const auto& [id, page] : pages_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (const u32 id : ids)
      fn(id << kPageShift, pages_.at(id)->bytes.data());
  }

 private:
  struct Page {
    std::vector<u8> bytes = std::vector<u8>(kPageSize, 0);
  };

  mutable u32 cached_id_ = 0;
  mutable Page* cached_page_ = nullptr;  // null: cache empty

  static u32 page_id(u32 addr) { return addr >> kPageShift; }
  static u32 offset(u32 addr) { return addr & (kPageSize - 1); }

  // One-entry translation cache: page objects are heap-allocated and never
  // freed or moved while the map lives, so a cached pointer stays valid
  // across inserts and rehashes. Accesses cluster heavily (straight-line
  // code, stack traffic), making this hit most of the time.
  const Page* find_page(u32 addr) const {
    const u32 id = page_id(addr);
    if (id == cached_id_ && cached_page_) return cached_page_;
    const auto it = pages_.find(id);
    if (it == pages_.end()) return nullptr;
    cached_id_ = id;
    cached_page_ = it->second.get();
    return cached_page_;
  }
  Page& page(u32 addr) {
    const u32 id = page_id(addr);
    if (id == cached_id_ && cached_page_) return *cached_page_;
    auto& slot = pages_[id];
    if (!slot) slot = std::make_unique<Page>();
    cached_id_ = id;
    cached_page_ = slot.get();
    return *slot;
  }

  std::unordered_map<u32, std::unique_ptr<Page>> pages_;
};

}  // namespace bsp
