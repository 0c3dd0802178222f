// Sparse byte-addressable memory for the emulated 32-bit address space.
//
// Pages are allocated on first touch so a 4 GB address space costs only what
// the program actually uses. Little-endian, matching the host so data-segment
// images can be copied in directly. Unaligned u16/u32 accesses are supported
// (assembled programs never produce them, but synthetic stress tests do).
//
// A two-level page directory finds a page: the top 10 address bits pick a
// table of 1024 page pointers, the next 10 a page. The 4 KiB pages come
// from one process-wide pool (memory.cpp) and go back to it when the memory
// dies, so the next memory on any thread reuses them instead of growing
// that thread's malloc arena.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "util/bitops.hpp"

namespace bsp {

class SparseMemory {
 public:
  static constexpr unsigned kPageShift = 12;
  static constexpr u32 kPageSize = 1u << kPageShift;

  SparseMemory() = default;
  SparseMemory(SparseMemory&& o) noexcept : dir_(o.dir_), pages_(o.pages_) {
    o.dir_.fill(nullptr);
    o.pages_ = 0;
  }
  SparseMemory& operator=(SparseMemory&& o) noexcept {
    std::swap(dir_, o.dir_);
    std::swap(pages_, o.pages_);
    return *this;
  }
  ~SparseMemory() { release(); }

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

  std::size_t pages_allocated() const { return pages_; }

  // Read-only pointer to the allocated page containing `addr` (null when the
  // page was never touched). A page never moves while this SparseMemory
  // lives, so the pointer stays valid across later loads/stores — the
  // fast-forward interpreter caches it for instruction fetch. A null result
  // must not be cached: a later store can allocate the page.
  const u8* page_bytes(u32 addr) const {
    const Page* p = find_page(addr);
    return p ? p->bytes : nullptr;
  }

  // Visits every allocated page in ascending address order (deterministic,
  // for checkpoint serialisation). The callback receives the page's base
  // address and kPageSize bytes.
  template <typename Fn>
  void for_each_page(Fn&& fn) const {
    for (u32 t = 0; t < kTableSize; ++t) {
      if (!dir_[t]) continue;
      for (u32 i = 0; i < kTableSize; ++i)
        if (const Page* p = (*dir_[t])[i])
          fn(((t << kTableBits) | i) << kPageShift, p->bytes);
    }
  }

  // Pages the process-wide pool has ever mapped, in use or free. Memories
  // that die hand their pages back, so this stops growing once the pool
  // covers the most pages ever live at once.
  static std::size_t pool_pages();

 private:
  struct Page {
    u8 bytes[kPageSize];
  };
  class Pool;  // memory.cpp
  static constexpr unsigned kTableBits = 10;
  static constexpr u32 kTableSize = 1u << kTableBits;
  using Table = std::array<Page*, kTableSize>;

  static u32 offset(u32 addr) { return addr & (kPageSize - 1); }
  static u32 table_of(u32 addr) { return addr >> (kPageShift + kTableBits); }
  static u32 slot_of(u32 addr) {
    return (addr >> kPageShift) & (kTableSize - 1);
  }

  const Page* find_page(u32 addr) const {
    const Table* t = dir_[table_of(addr)];
    return t ? (*t)[slot_of(addr)] : nullptr;
  }
  Page& page(u32 addr) {
    if (Table* t = dir_[table_of(addr)])
      if (Page* p = (*t)[slot_of(addr)]) return *p;
    return allocate(addr);
  }
  // Maps the page containing `addr` (and its table) to a zeroed pool page.
  Page& allocate(u32 addr);
  // Gives every page back to the pool and frees the tables.
  void release();

  std::array<Table*, kTableSize> dir_{};
  std::size_t pages_ = 0;
};

}  // namespace bsp
