// Cycle-level simulator of the bit-sliced out-of-order core (paper §6/§7).
//
// Model summary
// -------------
// * 15-stage pipeline per Figure 10: 6 front-end stages (Fetch1..DP2) before
//   an instruction enters the RUU, then at least 6 more (Sch1..RF2) before its
//   first slice-op can execute. Dependent slice-ops chain back-to-back
//   (1 cycle/slice) through the bypass network.
// * 4-wide fetch/dispatch/commit; 64-entry RUU; 32-entry unified LSQ;
//   per-slice issue queues with `int_alus` slice-ALUs each.
// * Oracle-driven front end: a functional emulator steps at dispatch, giving
//   each correct-path entry its operand values, memory address and branch
//   outcome. Wrong-path fetch dispatches "bogus" entries that occupy
//   resources but have no architectural effects (as in sim-outorder).
// * Speculative scheduling with selective replay: load consumers are woken
//   assuming an L1 hit; when a load's data is re-timed (miss, way
//   mispredict, LSQ violation), a relaxation pass reverts every slice-op
//   whose select cycle is no longer legal and they re-issue later.
// * Co-simulation: a second emulator steps at commit and every architectural
//   effect is compared; any divergence aborts the run. SimOptions selects the
//   checking cadence: `full` (every commit, the default), `spot:N` (the
//   checker catches up through the run_fast superblock interpreter and the
//   full ExecRecord comparison runs every Nth commit plus at every
//   mispredicted-branch, syscall and exit boundary — divergence stays
//   localised to one spot window), or `off` (no checking at all). Co-sim is
//   a pure check: SimStats are bit-identical across all three modes.
// * Event-driven scheduler core: ready ops come off a timing wheel /
//   producer waiter-lists instead of a per-cycle RUU scan, replay walks
//   consumer edges only, and fully idle cycles are skipped in one jump —
//   all bit-identical in SimStats to the stepped scan (see
//   docs/ARCHITECTURE.md §7 and tests/test_sched_equivalence.cpp);
//   SimStats::host_seconds reports host-side wall clock for throughput
//   tracking.
//
// The five partial-operand techniques of Figures 11/12 are independent
// switches in CoreConfig::techniques; slices=1 with no techniques is the
// paper's "best case" machine, slices>1 with no techniques its "simple
// pipelining" baseline.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "asm/program.hpp"
#include "branch/predictor.hpp"
#include "config/machine_config.hpp"
#include "core/pipeline.hpp"
#include "emu/checkpoint.hpp"
#include "mem/hierarchy.hpp"

namespace bsp {

namespace obs {
class TraceSink;
class IntervalSampler;
}  // namespace obs

struct SimResult {
  SimStats stats;
  bool exited = false;       // program executed SYS_EXIT
  int exit_code = 0;
  std::string error;         // non-empty on co-simulation divergence / fault
  bool ok() const { return error.empty(); }
};

// Commit-time co-simulation cadence. Co-sim is a pure check: it never feeds
// timing, so SimStats are bit-identical across all three modes (pinned by
// the golden matrix in tests/test_sched_equivalence.cpp).
enum class CosimMode {
  kFull,  // checker steps and compares at every commit (default)
  kSpot,  // catch up via run_fast; compare every Nth commit + at every
          // mispredicted-branch / syscall / exit boundary
  kOff,   // no checking: divergence goes UNDETECTED (bench/sweep use only)
};

struct SimOptions {
  CosimMode cosim = CosimMode::kFull;
  u64 cosim_period = 64;  // spot-check window N (spot mode only; >= 1)
};

// Parses a co-sim mode spec — "full", "off", "spot" or "spot:N" — into
// `out` (other fields untouched). Returns false on a malformed spec.
bool parse_cosim(const std::string& text, SimOptions* out);

// Canonical spelling of the co-sim mode: "full", "off" or "spot:N".
std::string cosim_name(const SimOptions& options);

// Host-side scheduler event counts over the measured window (warm-up
// excluded): how often the event-driven core did each unit of work, so
// host ns/commit decomposes into events/commit x ns/event. Plain integer
// increments, always on; they never feed timing and are deliberately not
// SimStats counters, so golden hashes and stored records do not see them.
struct HostEvents {
  u64 queue_ops = 0;              // queue_op calls (dispatch, replay, select)
  u64 wakes = 0;                  // nonempty waiter lists walked
  u64 waiter_visits = 0;          // waiter nodes visited by those walks
  u64 reregisters = 0;            // woken ops put back on a waiter list
  u64 same_list_reregisters = 0;  // ... on the very list they were woken from
  u64 select_candidates = 0;      // refs examined by select
  u64 dead_candidates = 0;        // of those, stale refs dropped on sight
  u64 selections = 0;             // slice-ops selected
  u64 sort_fallbacks = 0;         // order_by_key std::sort fallbacks
  u64 far_spills = 0;             // ops queued beyond the fine wheel horizon
};

class Simulator {
 public:
  // Throws std::invalid_argument when config's slice geometry is invalid
  // (SliceGeometry::valid(): 1, 2, 4 or 8 slices).
  Simulator(const MachineConfig& config, const Program& program);
  // Starts from a captured architectural state (see emu/checkpoint.hpp)
  // instead of the program's entry point: the oracle, the co-simulation
  // checker and the fetch pc all begin at the checkpoint. Caches and
  // predictors start cold — combine with run()'s warm-up to heat them.
  Simulator(const MachineConfig& config, const Program& program,
            const Checkpoint& start);
  Simulator(Simulator&&) noexcept;
  Simulator& operator=(Simulator&&) noexcept;
  ~Simulator();

  // Runs until `max_commits` instructions commit *after* the first
  // `warmup_commits` (whose statistics are discarded — caches, predictors
  // and queues stay warm, mirroring the paper's 1 B-instruction
  // fast-forward), the program exits, or an internal error occurs. May be
  // called once per Simulator instance.
  SimResult run(u64 max_commits, u64 warmup_commits = 0);

  // Selects the co-simulation cadence (default: CosimMode::kFull). Must be
  // called before run().
  void set_options(const SimOptions& options);

  // Enables a cycle-by-cycle event trace ("pipeview") on `os` for cycles in
  // [start, end): dispatches, slice-op selections, memory events, branch
  // resolutions/recoveries and commits. Must be called before run().
  // Equivalent to add_trace_sink() with an internally-owned
  // obs::PipeTextSink.
  void set_pipe_trace(std::ostream& os, Cycle start = 0, Cycle end = kNever);

  // Attaches a structured trace sink (obs/trace.hpp: Chrome trace JSON,
  // Konata, or any custom TraceSink). Not owned; must outlive run(). May be
  // called multiple times — every sink sees every event. Must be called
  // before run(). With no sinks attached the event points cost one
  // predictable branch each.
  void add_trace_sink(obs::TraceSink* sink);

  // Attaches an interval time-series sampler (obs/interval.hpp): deltas of
  // every SimStats counter every N committed instructions, warm-up
  // excluded. Not owned; must be called before run(); read
  // sampler->rows() afterwards.
  void set_interval_sampler(obs::IntervalSampler* sampler);

  // Enables CPI-stack cycle accounting (obs/cpi_stack.hpp): every
  // cycle x commit-width slot of the measured window is charged to exactly
  // one SimStats::cpi_* leaf, with sum(leaves) == cycles * commit_width as
  // a hard identity. Off by default — the disabled path's SimStats are
  // bit-identical to a build without the feature (one predictable branch
  // per loop iteration). Must be called before run().
  void enable_cpi_stack();

  // Enables host-phase profiling: SimStats::host_profile reports where
  // host_seconds went (commit/resolve/select/memory/dispatch/fetch, plus
  // nested co-sim and replay sub-phases). Costs a few steady_clock reads
  // per simulated cycle; off by default. Must be called before run().
  void enable_host_profile();

  // Number of hot-path scratch vectors / node pools whose capacity has
  // grown past its construction-time reservation (0 in steady state: the
  // dispatch/wakeup/replay paths do no heap allocation once warm). Exposed
  // for the no-reallocation regression test.
  unsigned scratch_reallocations() const;

  // Scheduler host-event counts of the last run() (see HostEvents).
  const HostEvents& host_events() const;

  // Enables occupancy/latency histogram collection (small per-cycle cost).
  // Must be called before run(); read the result with detail() afterwards.
  void enable_detail();
  const DetailedStats& detail() const;

  const MachineConfig& config() const { return cfg_; }

 private:
  struct Impl;
  MachineConfig cfg_;
  std::unique_ptr<Impl> impl_;
};

// Convenience: build a simulator and run `max_commits` measured instructions
// (after an optional discarded warm-up).
SimResult simulate(const MachineConfig& config, const Program& program,
                   u64 max_commits, u64 warmup_commits = 0);

// Same, starting from a captured architectural state — the campaign
// fast-forward entry point (checkpoint from emu/checkpoint.hpp or a
// campaign ckpt-cache file).
SimResult simulate(const MachineConfig& config, const Program& program,
                   const Checkpoint& start, u64 max_commits,
                   u64 warmup_commits = 0);

}  // namespace bsp
