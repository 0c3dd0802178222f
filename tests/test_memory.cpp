// SparseMemory tests: the page directory's order and wrap-around, the
// stable page pointers run_fast caches, and the process-wide page pool
// (pages zeroed on reuse, shared across threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "emu/memory.hpp"

namespace bsp {
namespace {

constexpr u32 kPage = SparseMemory::kPageSize;

// Touches `pages` consecutive pages from `base`, each with `fill` bytes.
void fill_pages(SparseMemory& m, u32 base, u32 pages, u8 fill) {
  const std::vector<u8> bytes(kPage, fill);
  for (u32 p = 0; p < pages; ++p)
    m.write_block(base + p * kPage, bytes.data(), bytes.size());
}

TEST(SparseMemory, ReusedPoolPageReadsZero) {
  constexpr u32 kPages = 64;
  {
    SparseMemory dead;
    fill_pages(dead, 0x10000000, kPages, 0xab);
  }
  const std::size_t pooled = SparseMemory::pool_pages();
  SparseMemory reused;
  for (u32 p = 0; p < kPages; ++p) reused.store_u8(0x20000000 + p * kPage, 1);
  // Every page came back from the dead memory's pages, not a fresh map.
  EXPECT_EQ(SparseMemory::pool_pages(), pooled);
  for (u32 p = 0; p < kPages; ++p) {
    const u8* bytes = reused.page_bytes(0x20000000 + p * kPage);
    ASSERT_NE(bytes, nullptr);
    EXPECT_EQ(bytes[0], 1);
    EXPECT_TRUE(std::all_of(bytes + 1, bytes + kPage,
                            [](u8 b) { return b == 0; }))
        << "page " << p;
  }
}

TEST(SparseMemory, ForEachPageAscendsAcrossDirectoryTables) {
  const std::vector<u32> bases = {0x0, 0x00400000, 0x10000000, 0x7ffff000,
                                  0xfffff000};
  SparseMemory m;
  for (const u32 i : {3u, 0u, 4u, 2u, 1u}) m.store_u32(bases[i] + 8, i + 1);
  std::vector<u32> seen;
  m.for_each_page([&](u32 base, const u8* bytes) {
    seen.push_back(base);
    u32 v;
    std::memcpy(&v, bytes + 8, sizeof v);
    EXPECT_EQ(v, seen.size()) << std::hex << base;
  });
  EXPECT_EQ(seen, bases);
  EXPECT_EQ(m.pages_allocated(), bases.size());
}

TEST(SparseMemory, WriteBlockWrapsAtTheTopOfTheAddressSpace) {
  SparseMemory m;
  const u8 bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  m.write_block(0xfffffffc, bytes, sizeof bytes);
  EXPECT_EQ(m.load_u32(0xfffffffc), 0x04030201u);
  EXPECT_EQ(m.load_u32(0x0), 0x08070605u);
  EXPECT_EQ(m.pages_allocated(), 2u);
}

TEST(SparseMemory, PageBytesPointerSurvivesLaterAllocations) {
  SparseMemory m;
  m.store_u32(0x00400000, 0xdeadbeef);
  const u8* cached = m.page_bytes(0x00400000);
  ASSERT_NE(cached, nullptr);
  // 1,000 more pages, spread over several directory tables.
  for (u32 p = 0; p < 1000; ++p) m.store_u8(0x00401000 + p * 0x3000, 7);
  EXPECT_EQ(m.pages_allocated(), 1001u);
  EXPECT_EQ(m.page_bytes(0x00400000), cached);
  u32 v;
  std::memcpy(&v, cached, sizeof v);
  EXPECT_EQ(v, 0xdeadbeefu);
}

// The property the thread sweep's memory rests on: a memory built on one
// thread and rebuilt on another reuses the first one's pages, where
// per-thread malloc arenas would each keep their own copy.
TEST(SparseMemory, RebuildOnAnotherThreadMapsNoNewPoolPages) {
  static constexpr u32 kPages = 513;  // mcf's data image
  const auto build = [] {
    SparseMemory m;
    fill_pages(m, 0x10000000, kPages, 0x5a);
    EXPECT_EQ(m.pages_allocated(), kPages);
  };
  std::thread(build).join();
  const std::size_t pooled = SparseMemory::pool_pages();
  EXPECT_GE(pooled, kPages);
  std::thread(build).join();
  EXPECT_EQ(SparseMemory::pool_pages(), pooled);
}

TEST(SparseMemory, MoveHandsThePagesOver) {
  SparseMemory a;
  a.store_u32(0x1000, 42);
  const u8* page = a.page_bytes(0x1000);
  SparseMemory b(std::move(a));
  EXPECT_EQ(b.page_bytes(0x1000), page);
  EXPECT_EQ(b.load_u32(0x1000), 42u);
  SparseMemory c;
  c.store_u32(0x2000, 7);
  c = std::move(b);
  EXPECT_EQ(c.load_u32(0x1000), 42u);
  EXPECT_EQ(c.load_u32(0x2000), 0u);
  EXPECT_EQ(c.pages_allocated(), 1u);
}

}  // namespace
}  // namespace bsp
