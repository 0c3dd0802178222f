// The benchmark's workloads. Each runs in rounds: a round makes the
// workload's set-up calls, then runs its timed region, and reports what it
// measured (host times, the structs the layers returned) plus fingerprints
// of every simulated run for the output checks.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "golden.hpp"
#include "trace.hpp"

namespace bench {

// Per-run instruction budgets at --scale 1; smaller scales shrink them all.
struct Sizes {
  explicit Sizes(double scale);
  u64 detail_measured, detail_warmup, detail_interval;
  u64 sampled_measured, sampled_warmup, sampled_interval_warmup;
  u64 sweep_measured, sweep_warmup, sweep_ffwd;
};

struct RoundCtx {
  Tracer& tracer;
  u64 seed;
  const Sizes& sizes;
  std::string dir;  // fresh, empty directory for this round's files
};

struct Round {
  double setup_s = 0;  // set-up calls made before the timed region
  double wall_s = 0;   // the timed region
  u64 commits = 0;     // measured commits simulated in the timed region
  u64 ops = 0;         // runs, intervals or campaign tasks attempted
  u64 failed = 0;      // ... of which failed
  Prints prints;       // every simulated run's fingerprint, by run key
  std::vector<std::string> errors;      // failed invariant checks
  std::map<std::string, double> layer;  // per-layer metrics of this round
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  // Section of the golden file this workload's fingerprints belong to.
  virtual std::string golden_section() const = 0;

  // Threads (or worker processes) a round simulates on at once.
  virtual unsigned threads() const = 0;

  virtual Round round(const RoundCtx& ctx) = 0;

  // Untimed checks of `first` (the first round) against reference runs.
  // Adds reference fingerprints that belong in the golden file to *prints,
  // per-layer metrics the references give to *layer, and failures to
  // *errors.
  virtual void check(const RoundCtx& ctx, const Round& first, Prints* prints,
                     std::map<std::string, double>* layer,
                     std::vector<std::string>* errors) {
    (void)ctx, (void)first, (void)prints, (void)layer, (void)errors;
  }
};

// Linearly interpolated quantile q in [0, 1] of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);

// nullptr when `name` is not a workload: detail, sampled-k8, sweep-thread or
// sweep-process.
std::unique_ptr<BenchWorkload> make_workload(const std::string& name);

// The variant a traced run of `name` times beside it, or nullptr: detail
// with every instrument on (detail-obs) for detail, the campaign served over
// localhost TCP (sweep-serve) for sweep-thread. Every run of those two
// workloads also checks one round of the variant against its own.
std::unique_ptr<BenchWorkload> make_sibling(const std::string& name);

}  // namespace bench
