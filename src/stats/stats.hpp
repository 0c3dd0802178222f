// Lightweight statistics primitives for the simulator and benches: a
// wall-clock stopwatch and fixed-range histograms with deterministic output.
#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bitops.hpp"

namespace bsp {

// Monotonic stopwatch for host-side throughput accounting (simulated
// commits per wall-clock second). Starts at construction.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Histogram over the integer range [0, buckets); values past the end land in
// the final overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::size_t buckets) : counts_(buckets + 1, 0) {}

  void add(u64 value, u64 weight = 1) {
    const std::size_t i =
        value < counts_.size() - 1 ? static_cast<std::size_t>(value)
                                   : counts_.size() - 1;
    counts_[i] += weight;
    total_ += weight;
    sum_ += value * weight;
    prefix_valid_ = false;
  }

  u64 count(std::size_t bucket) const { return counts_[bucket]; }
  u64 overflow() const { return counts_.back(); }
  u64 total() const { return total_; }
  double mean() const {
    return total_ ? static_cast<double>(sum_) / total_ : 0.0;
  }
  double fraction(std::size_t bucket) const {
    return total_ ? static_cast<double>(counts_[bucket]) / total_ : 0.0;
  }
  // Fraction of samples <= bucket. Amortised O(1): the prefix sums are
  // memoized and rebuilt lazily after the next add(), so report loops that
  // sweep every bucket (CDF dumps, percentile tables) are linear overall
  // instead of quadratic.
  double cumulative(std::size_t bucket) const {
    if (!total_) return 0.0;
    refresh_prefix();
    const std::size_t i = bucket < prefix_.size() ? bucket : prefix_.size() - 1;
    return static_cast<double>(prefix_[i]) / total_;
  }
  // Smallest bucket b with cumulative(b) >= p, for p in [0,1] (asserted).
  // p = 0 returns the smallest non-empty bucket (the minimum sample), not
  // bucket 0. An empty histogram has no percentiles: every call returns the
  // overflow bucket index (== buckets()) so the misuse is conspicuous
  // instead of masquerading as a sample in bucket 0.
  std::size_t percentile(double p) const {
    assert(p >= 0.0 && p <= 1.0);
    if (total_ == 0) return counts_.size() - 1;
    u64 target = static_cast<u64>(p * static_cast<double>(total_) + 0.5);
    if (target == 0) target = 1;  // p = 0: the first sample
    refresh_prefix();
    const auto it = std::lower_bound(prefix_.begin(), prefix_.end(), target);
    return it == prefix_.end()
               ? counts_.size() - 1
               : static_cast<std::size_t>(it - prefix_.begin());
  }
  std::size_t buckets() const { return counts_.size() - 1; }

 private:
  void refresh_prefix() const {
    if (prefix_valid_) return;
    prefix_.resize(counts_.size());
    u64 s = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      s += counts_[i];
      prefix_[i] = s;
    }
    prefix_valid_ = true;
  }

  std::vector<u64> counts_;
  u64 total_ = 0;
  u64 sum_ = 0;
  // Memoized inclusive prefix sums for cumulative()/percentile();
  // invalidated by add(), rebuilt on demand.
  mutable std::vector<u64> prefix_;
  mutable bool prefix_valid_ = false;
};

}  // namespace bsp
