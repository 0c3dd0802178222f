// Live campaign observability: a single self-overwriting stderr line with
// done/failed/retried counts, task and simulator throughput (committed
// instructions per host-second, aggregated over finished tasks), and an
// ETA; finish() adds a host-phase breakdown line when any task carried a
// host profile. Stderr so that redirecting a campaign's stdout (summary
// tables) keeps the file clean.
//
// Resume accounting: `skipped` is the baseline of tasks a resumed store
// already satisfied before this run started. It counts toward the
// displayed done/total ratio but never toward the throughput rate or the
// ETA — both are derived exclusively from tasks finished *this run*, so a
// `--resume` of a 99%-complete campaign predicts the remaining 1% at the
// observed pace instead of extrapolating from work a previous run did.
//
// snapshot() exposes the same numbers machine-readably; it feeds the
// remote coordinator's --status-endpoint JSON (campaign/remote.cpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>

#include "campaign/scheduler.hpp"

namespace bsp::campaign {

// One consistent view of the meter, safe to take from any thread.
struct ProgressSnapshot {
  std::size_t total = 0;
  std::size_t skipped = 0;    // resume baseline (not part of rate/ETA)
  std::size_t done = 0;       // finished this run (ok or not)
  std::size_t failed = 0;
  std::size_t retried = 0;
  std::size_t remaining = 0;  // total - skipped - done, floored at 0
  double elapsed_sec = 0;     // since this run launched
  double rate = 0;            // this-run completions per second
  double eta_sec = -1;        // remaining / rate; < 0 = unknown yet
  double commits_per_host_second = 0;
  long max_rss_kb = 0;
};

class ProgressMeter {
 public:
  // `total` counts the whole expanded grid; `skipped` the tasks resume
  // already satisfied. Disabled meters are inert (no output at all) but
  // still aggregate, so snapshot() works either way.
  ProgressMeter(std::string name, std::size_t total, std::size_t skipped,
                bool enabled);

  // Thread-safe; call once per finished task.
  void task_done(const TaskOutcome& outcome);

  // Prints the final state and a newline (once).
  void finish();

  ProgressSnapshot snapshot() const;
  // Deterministic variant for tests: same math, caller-supplied elapsed.
  ProgressSnapshot snapshot_at(double elapsed_sec) const;

 private:
  ProgressSnapshot snapshot_locked(double elapsed_sec) const;
  double elapsed_locked() const;
  void print_line_locked();
  void print_phases_locked();

  std::string name_;
  std::size_t total_;
  std::size_t skipped_;
  bool enabled_;
  bool finished_ = false;
  std::size_t done_ = 0;     // finished this run (ok or not)
  std::size_t failed_ = 0;   // status != ok
  std::size_t retried_ = 0;  // needed more than one attempt
  u64 committed_ = 0;        // summed over successful tasks
  double host_seconds_ = 0;  // summed over successful tasks
  long max_rss_kb_ = 0;      // peak per-task RSS (process isolation only)
  obs::HostProfile phases_;  // summed host-phase profile (enabled if any)
  std::chrono::steady_clock::time_point start_;
  mutable std::mutex mutex_;
};

}  // namespace bsp::campaign
