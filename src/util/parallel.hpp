// Tiny thread-pool helpers for the bench sweeps and the campaign engine:
// the Figure 11/12 drivers and bsp-sweep run dozens of completely
// independent whole-program simulations, which parallelise trivially. Each
// Simulator owns all its state, so tasks never share mutable data.
//
// Contract (relied on by src/campaign/scheduler.cpp and the bench drivers):
// * `fn` must not throw. parallel_for runs tasks on plain std::threads with
//   no exception rail — an escaping exception calls std::terminate. Tasks
//   report failure through their results (see campaign::TaskOutcome).
// * Every index in [0, n) is visited exactly once; the call returns only
//   after all of them complete.
// * n == 0 returns immediately without touching `fn`.
// * jobs == 1 (or n == 1) runs inline on the caller's thread, in index
//   order — the deterministic mode the campaign tests use.
// * n < jobs spawns only n workers; jobs == 0 means hardware concurrency.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace bsp {

// Runs fn(0) .. fn(n-1) on up to `jobs` threads (0 = hardware concurrency).
// Blocks until every call returns. Exceptions from `fn` are not supported —
// bench tasks report failures through their results.
inline void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                         unsigned jobs = 0) {
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  if (n == 0) return;
  if (jobs == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> threads;
  const unsigned count = static_cast<unsigned>(
      std::min<std::size_t>(jobs, n));
  threads.reserve(count - 1);
  for (unsigned t = 1; t < count; ++t) threads.emplace_back(worker);
  worker();  // this thread participates too
  for (auto& t : threads) t.join();
}

// Maps fn over [0, n) in parallel, collecting results by index.
template <typename T>
std::vector<T> parallel_map(std::size_t n,
                            const std::function<T(std::size_t)>& fn,
                            unsigned jobs = 0) {
  std::vector<T> out(n);
  parallel_for(n, [&](std::size_t i) { out[i] = fn(i); }, jobs);
  return out;
}

}  // namespace bsp
