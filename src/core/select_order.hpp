// Ordering of the per-cycle select candidate set.
//
// The scheduler orders candidates by the single integer OpRef::key =
// (seq << 3) | slice_visit_pos — oldest entry first, slice-visit order
// within an entry. Most cycles see only a few candidates, so batches of up
// to kSelectInsertionMax go through an insertion sort (branch-predictable,
// allocation-free); larger ones go to std::sort. Equal keys can only be
// stale duplicates of the same (entry, op) incarnation — at most one of
// them is live — so the order among them is immaterial.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace bsp {

inline constexpr std::size_t kSelectInsertionMax = 24;

// Sorts `v` by key; returns whether the batch went to std::sort (the
// scheduler counts these as the sort_fallbacks host event).
template <class Ref>
bool order_by_key(std::vector<Ref>& v) {
  const std::size_t n = v.size();
  if (n > kSelectInsertionMax) {
    std::sort(v.begin(), v.end(),
              [](const Ref& a, const Ref& b) { return a.key < b.key; });
    return true;
  }
  for (std::size_t i = 1; i < n; ++i) {
    const Ref r = v[i];
    std::size_t j = i;
    for (; j > 0 && v[j - 1].key > r.key; --j) v[j] = v[j - 1];
    v[j] = r;
  }
  return false;
}

}  // namespace bsp
