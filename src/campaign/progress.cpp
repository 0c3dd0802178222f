#include "campaign/progress.hpp"

#include <cstdio>

namespace bsp::campaign {

ProgressMeter::ProgressMeter(std::string name, std::size_t total,
                             std::size_t skipped, bool enabled)
    : name_(std::move(name)),
      total_(total),
      skipped_(skipped),
      enabled_(enabled),
      start_(std::chrono::steady_clock::now()) {}

void ProgressMeter::task_done(const TaskOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++done_;
  if (!outcome.ok()) ++failed_;
  if (outcome.retried()) ++retried_;
  if (outcome.max_rss_kb > max_rss_kb_) max_rss_kb_ = outcome.max_rss_kb;
  if (outcome.ok()) {
    committed_ += outcome.stats.committed;
    host_seconds_ += outcome.stats.host_seconds;
    const obs::HostProfile& hp = outcome.stats.host_profile;
    if (hp.enabled) phases_.merge(hp);
  }
  if (enabled_) print_line_locked();
}

double ProgressMeter::elapsed_locked() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

ProgressSnapshot ProgressMeter::snapshot_locked(double elapsed_sec) const {
  ProgressSnapshot s;
  s.total = total_;
  s.skipped = skipped_;
  s.done = done_;
  s.failed = failed_;
  s.retried = retried_;
  // Floor at zero: duplicate or foreign records (a store shared between
  // runs, a re-dispatch race) can push skipped + done past total.
  s.remaining = total_ > skipped_ + done_ ? total_ - skipped_ - done_ : 0;
  s.elapsed_sec = elapsed_sec;
  // Rate and ETA come from this run's completions only. The resume
  // baseline (skipped_) is excluded on both sides of the division —
  // counting restored tasks as if they finished at this run's launch made
  // post-resume ETAs wildly optimistic.
  s.rate = elapsed_sec > 0 ? static_cast<double>(done_) / elapsed_sec : 0;
  s.eta_sec = s.rate > 0 ? static_cast<double>(s.remaining) / s.rate : -1;
  s.commits_per_host_second =
      host_seconds_ > 0 ? static_cast<double>(committed_) / host_seconds_
                        : 0.0;
  s.max_rss_kb = max_rss_kb_;
  return s;
}

ProgressSnapshot ProgressMeter::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_locked(elapsed_locked());
}

ProgressSnapshot ProgressMeter::snapshot_at(double elapsed_sec) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_locked(elapsed_sec);
}

void ProgressMeter::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_ || finished_) return;
  finished_ = true;
  print_line_locked();
  std::fputc('\n', stderr);
  if (phases_.enabled) print_phases_locked();
  std::fflush(stderr);
}

void ProgressMeter::print_line_locked() {
  const ProgressSnapshot s = snapshot_locked(elapsed_locked());
  char eta[32];
  if (s.eta_sec >= 0) {
    if (s.eta_sec >= 90)
      std::snprintf(eta, sizeof eta, "%.1fmin", s.eta_sec / 60);
    else
      std::snprintf(eta, sizeof eta, "%.0fs", s.eta_sec);
  } else {
    std::snprintf(eta, sizeof eta, "?");
  }
  char sim_rate[32] = "";
  if (s.commits_per_host_second > 0)
    std::snprintf(sim_rate, sizeof sim_rate, " | %.2fM commits/hs",
                  s.commits_per_host_second / 1e6);
  char rss[32] = "";
  if (s.max_rss_kb > 0)
    std::snprintf(rss, sizeof rss, " | peak %.0fMB",
                  static_cast<double>(s.max_rss_kb) / 1024.0);
  std::fprintf(stderr,
               "\r[%s] %zu/%zu done (%zu resumed) | %zu failed | %zu retried "
               "| %.2f tasks/s%s%s | ETA %s   ",
               name_.c_str(), s.done + s.skipped, s.total, s.skipped,
               s.failed, s.retried, s.rate, sim_rate, rss, eta);
  std::fflush(stderr);
}

void ProgressMeter::print_phases_locked() {
  const double total = phases_.total();
  if (total <= 0) return;
  const auto pct = [&](double v) { return 100.0 * v / total; };
  // replay is nested inside memory, so its parenthetical says "of total"
  // explicitly — a bare percentage inside "memory X% (...)" reads as a
  // share of memory. ffwd happens before the cycle loop, so it reports in
  // absolute seconds beside the loop's 100%, not as a share of it.
  char replay[48] = "";
  if (phases_.replay > 0)
    std::snprintf(replay, sizeof replay, " (replay %.1f%% of total)",
                  pct(phases_.replay));
  char ffwd[40] = "";
  if (phases_.ffwd > 0)
    std::snprintf(ffwd, sizeof ffwd, " | ffwd %.2fs pre-loop", phases_.ffwd);
  std::fprintf(stderr,
               "[%s] host phases: commit %.1f%% | "
               "resolve %.1f%% | select %.1f%% | memory %.1f%%%s"
               " | dispatch %.1f%% | fetch %.1f%%%s\n",
               name_.c_str(), pct(phases_.commit),
               pct(phases_.resolve), pct(phases_.select), pct(phases_.memory),
               replay, pct(phases_.dispatch),
               pct(phases_.fetch), ffwd);
}

}  // namespace bsp::campaign
