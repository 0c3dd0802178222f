// In-memory span recorder for bsp-bench's traced runs.
//
// The benchmark records one span around every public call it makes into a
// layer of the simulator (build_workload, Simulator::run, run_sampled,
// run_campaign, serve_campaign, the wrapped TaskRunner, ...). A span is
// named "<layer>.<call>"; its layer is the part before the first dot. Spans
// stay in memory and are written once, at exit, as Chrome-trace JSON that
// Perfetto opens. A layer's self time is its spans' durations minus the
// part of each interval that its child spans cover.
//
// Recording is off unless the current round is a traced one, so untraced
// rounds pay one atomic load per call site.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

// Identifies what a span worked on; empty fields are omitted from the trace.
struct SpanArgs {
  SpanArgs(std::string k = {}, std::string m = {}, std::string t = {})
      : kernel(std::move(k)), machine(std::move(m)), task(std::move(t)) {}

  std::string kernel;
  std::string machine;
  std::string task;  // campaign task id: spans of one task share it
};

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::int64_t start_ns = 0;  // since the tracer's origin
  std::int64_t end_ns = 0;
  unsigned tid = 0;
  unsigned round = 0;
  SpanArgs args;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Starts benchmark round `round`; spans are recorded only while `traced`.
  // Call between rounds, when no span is open.
  void start_round(unsigned round, bool traced);
  bool active() const { return active_.load(std::memory_order_relaxed); }

  // Self seconds per (round, layer) over every recorded span.
  std::map<unsigned, std::map<std::string, double>> self_seconds() const;

  // Chrome-trace JSON ("traceEvents" of complete "X" events, microsecond
  // timestamps with nanosecond decimals). False if the file can't be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  friend class Span;
  std::uint64_t open(const char* name, SpanArgs args, std::uint64_t parent);
  void close(std::uint64_t id);

  const std::chrono::steady_clock::time_point origin_;
  std::atomic<bool> active_{false};
  std::mutex mutex_;  // guards everything below
  unsigned round_ = 0;
  std::vector<SpanRecord> spans_;
  std::map<std::uint64_t, std::size_t> open_;  // id -> index in spans_
  std::uint64_t next_id_ = 1;
};

// RAII span. Its parent is `parent` when given, else the innermost span open
// on this thread; children on other threads (pool workers) pass it
// explicitly.
class Span {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  Span(Tracer& tracer, const char* name, SpanArgs args = {},
       std::uint64_t parent = kInherit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_ = 0;
};

}  // namespace bench
