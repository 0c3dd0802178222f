#include "probe.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace bench {
namespace {

constexpr unsigned kChunksPerThread = 8;
constexpr unsigned kStreams = 8;  // independent, so the work is ALU-bound
constexpr unsigned kStepsPerChunk = 170'000;

// Keeps the compiler from dropping the probe's work.
std::atomic<std::uint64_t> sink{0};

}  // namespace

double probe_host(unsigned threads) {
  const unsigned chunks = threads * kChunksPerThread;
  std::atomic<unsigned> next{0};
  const auto work = [&] {
    std::uint64_t sum = 0;
    for (unsigned c; (c = next.fetch_add(1)) < chunks;) {
      std::uint64_t x[kStreams];
      for (unsigned k = 0; k < kStreams; ++k)
        x[k] = (c + 1) * 0x9E3779B97F4A7C15ull + k + 1;
      for (unsigned s = 0; s < kStepsPerChunk; ++s)
        for (std::uint64_t& v : x) {
          v ^= v << 13;
          v ^= v >> 7;
          v ^= v << 17;
          v += (v >> 32) * 0x2545F491u;
        }
      for (const std::uint64_t v : x) sum += v;
    }
    sink += sum;
  };
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> helpers;
    for (unsigned t = 1; t < threads; ++t) helpers.emplace_back(work);
    work();
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace bench
