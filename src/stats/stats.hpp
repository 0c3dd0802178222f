// Lightweight statistics primitives for the simulator and benches: fixed-
// range histograms and running means with deterministic output.
#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
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

class RunningMean {
 public:
  void add(double v) {
    ++n_;
    sum_ += v;
    min_ = n_ == 1 ? v : (v < min_ ? v : min_);
    max_ = n_ == 1 ? v : (v > max_ ? v : max_);
  }
  // Combines another accumulator's samples (order-independent; an empty
  // side contributes nothing, including to min/max).
  void merge(const RunningMean& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = other.min_ < min_ ? other.min_ : min_;
    max_ = other.max_ > max_ ? other.max_ : max_;
  }
  u64 count() const { return n_; }
  double mean() const { return n_ ? sum_ / n_ : 0.0; }
  // An empty accumulator has no extrema; min()/max() are defined to return
  // 0.0 (matching mean()) so report code can print an empty series without
  // branching, instead of reading whatever the fields happened to hold.
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  u64 n_ = 0;
  double sum_ = 0, min_ = 0, max_ = 0;
};

// Geometric mean accumulator (speedups are averaged geometrically in the
// ablation reports; the paper's averages are arithmetic and we report both).
class GeoMean {
 public:
  void add(double v) {
    assert(v > 0);
    ++n_;
    log_sum_ += std::log(v);
  }
  u64 count() const { return n_; }
  double mean() const { return n_ ? std::exp(log_sum_ / n_) : 0.0; }

 private:
  u64 n_ = 0;
  double log_sum_ = 0;
};

}  // namespace bsp
