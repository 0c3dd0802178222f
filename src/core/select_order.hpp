// Sortless ordering of the per-cycle select candidate set.
//
// The scheduler orders candidates by the single integer OpRef::key =
// (seq << 3) | slice_visit_pos — oldest entry first, slice-visit order
// within an entry. The candidate set is small most cycles and its live
// keys are densely packed (live RUU seqs span at most ~2x ruu_entries even
// across squashes, because next_seq never rolls back), so a full
// std::sort is overkill:
//
//   * n <= kInsertionMax: binary-free insertion sort — the common case,
//     branch-predictable and allocation-free.
//   * dense burst (key range fits the pre-sized bucket array and is within
//     kSpreadMax x n): single-pass bucket distribute + in-order emit.
//     Each bucket holds exactly one key value; equal keys can only be
//     stale duplicates of the same (entry, op) incarnation — at most one
//     of them is live — so intra-bucket order is immaterial.
//   * anything else (stale refs with arbitrarily old keys after a squash
//     storm make the span unbounded): std::sort fallback, identical
//     semantics to the code this replaces.
//
// All paths produce the same selection order: a permutation of the input
// that is non-decreasing in key, where key ties never distinguish live
// candidates. The return value says whether the std::sort fallback ran
// (the scheduler counts these in its host events).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/bitops.hpp"

namespace bsp {

inline constexpr std::size_t kSelectInsertionMax = 24;
inline constexpr u64 kSelectSpreadMax = 8;  // bucket path iff range <= 8n

// Reusable scratch for order_by_key: the bucket heads plus chain links and
// the emission staging vector. All storage is reserved once (init) and
// never grows on the hot path — `tmp` swaps with the candidate vector, so
// reserve both to the same capacity to keep scratch accounting stable.
template <class Ref>
struct SelectOrderScratch {
  std::vector<int> head;  // key-offset bucket -> newest chain node (-1 end)
  std::vector<int> next;  // chain links, indexed like the input vector
  std::vector<Ref> tmp;   // in-key-order staging, swapped into the input

  void init(std::size_t buckets, std::size_t capacity) {
    head.assign(buckets, -1);
    next.reserve(capacity);
    tmp.reserve(capacity);
  }
};

template <class Ref>
bool order_by_key(std::vector<Ref>& v, SelectOrderScratch<Ref>& s) {
  const std::size_t n = v.size();
  if (n <= 1) return false;

  if (n <= kSelectInsertionMax) {
    for (std::size_t i = 1; i < n; ++i) {
      const Ref r = v[i];
      std::size_t j = i;
      for (; j > 0 && v[j - 1].key > r.key; --j) v[j] = v[j - 1];
      v[j] = r;
    }
    return false;
  }

  u64 lo = v[0].key;
  u64 hi = v[0].key;
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, v[i].key);
    hi = std::max(hi, v[i].key);
  }
  const u64 range = hi - lo;  // bucket path needs range + 1 buckets
  if (range >= s.head.size() || range > kSelectSpreadMax * n) {
    std::sort(v.begin(), v.end(),
              [](const Ref& a, const Ref& b) { return a.key < b.key; });
    return true;
  }

  s.next.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = static_cast<std::size_t>(v[i].key - lo);
    s.next[i] = s.head[b];
    s.head[b] = static_cast<int>(i);
  }
  s.tmp.clear();
  for (u64 b = 0; b <= range; ++b) {
    int i = s.head[b];
    s.head[b] = -1;  // leave head all -1 for the next call
    for (; i >= 0; i = s.next[static_cast<std::size_t>(i)])
      s.tmp.push_back(v[static_cast<std::size_t>(i)]);
  }
  v.swap(s.tmp);
  return false;
}

}  // namespace bsp
