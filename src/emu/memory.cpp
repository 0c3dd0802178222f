#include "emu/memory.hpp"

#include <sys/mman.h>

#include <mutex>
#include <new>
#include <vector>

namespace bsp {

// The process-wide page pool behind every SparseMemory. Pages are carved
// from mmap'd chunks and never unmapped: a memory that dies pushes its
// pages on the free list and the next take, on any thread, pops one. One
// pool rather than malloc matters because malloc gives each thread its own
// arena, and an arena keeps the most pages its thread ever held, so every
// thread that once ran a big program would keep that program's pages.
// Unmapping freed pages would return them to the system, but then every
// later memory faults its pages in afresh.
class SparseMemory::Pool {
 public:
  static constexpr std::size_t kChunkPages = 64;  // 256 KiB per mmap

  static Pool& get() {
    static Pool* const pool = new Pool;  // never destroyed
    return *pool;
  }

  // A zeroed page: a reused one is zeroed here, outside the lock; a fresh
  // one is still the zero page mmap gave.
  Page* take() {
    Page* page;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (free_.empty()) return carve();
      page = free_.back();
      free_.pop_back();
    }
    std::memset(page->bytes, 0, kPageSize);
    return page;
  }

  void give(const Table& table) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Page* page : table)
      if (page) free_.push_back(page);
  }

  std::size_t mapped() {
    std::lock_guard<std::mutex> lock(mutex_);
    return mapped_;
  }

 private:
  // Called with the lock held.
  Page* carve() {
    if (chunk_left_ == 0) {
      void* chunk = mmap(nullptr, kChunkPages * kPageSize,
                         PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                         -1, 0);
      if (chunk == MAP_FAILED) throw std::bad_alloc();
      chunk_ = static_cast<Page*>(chunk);
      chunk_left_ = kChunkPages;
    }
    --chunk_left_;
    ++mapped_;
    return chunk_++;
  }

  std::mutex mutex_;
  std::vector<Page*> free_;
  Page* chunk_ = nullptr;  // the unused rest of the newest chunk
  std::size_t chunk_left_ = 0;
  std::size_t mapped_ = 0;
};

SparseMemory::Page& SparseMemory::allocate(u32 addr) {
  Table*& table = dir_[table_of(addr)];
  if (!table) table = new Table{};
  Page*& page = (*table)[slot_of(addr)];
  page = Pool::get().take();
  ++pages_;
  return *page;
}

void SparseMemory::release() {
  for (Table*& table : dir_) {
    if (!table) continue;
    Pool::get().give(*table);
    delete table;
    table = nullptr;
  }
  pages_ = 0;
}

std::size_t SparseMemory::pool_pages() { return Pool::get().mapped(); }

}  // namespace bsp
