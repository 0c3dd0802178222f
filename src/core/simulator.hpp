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
// * Commit-stream check: every correct-path entry carries the oracle step
//   index it was dispatched at, and commit requires the next index in order
//   and a correct-path entry; anything else aborts the run with a
//   co-simulation divergence. The oracle supplies every committed value, so
//   a second emulator stepping at commit could only catch the same faults —
//   a wrong-path, skipped, repeated or reordered entry — which the index
//   catches exactly, in O(1). Every run is checked this way.
// * Event-driven scheduler core: ready ops come off an event wheel /
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

#include <array>
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

// Host-side scheduler event counts over the measured window (warm-up
// excluded): how often the event-driven core did each unit of work, so
// host ns/commit decomposes into events/commit x ns/event. Plain integer
// increments, always on; they never feed timing and are deliberately not
// SimStats counters, so golden hashes and stored records do not see them.
struct HostEvents {
  u64 queue_ops = 0;              // queue_op calls (dispatch, replay, select)
  u64 wakes = 0;                  // nonempty waiter lists walked
  u64 waiter_visits = 0;          // waiter nodes visited by those walks
                                  // (slice-ops and stores awaiting data)
  u64 reregisters = 0;            // woken ops put back on a waiter list
  u64 same_list_reregisters = 0;  // ... on the very list they were woken from
  u64 select_candidates = 0;      // refs examined by select
  u64 dead_candidates = 0;        // of those, stale refs dropped on sight
  u64 selections = 0;             // slice-ops selected
  u64 sort_fallbacks = 0;         // candidate batches ordered by std::sort
  u64 far_spills = 0;             // wakes queued in the event wheel's far
                                  // tier (past the fine horizon)
  u64 lsq_visits = 0;             // LSQ entries examined by the memory phase
  u64 branch_checks = 0;          // resolve_time() evaluations
  u64 branch_resolves = 0;        // branches resolved (checks' denominator)
};

// Every HostEvents count by name, in declaration order: the keys of the
// deterministic cost ledger (BM_SimulatorThroughput's per-commit counters).
struct HostEventDesc {
  const char* name;
  u64 HostEvents::*field;
};
inline constexpr std::array<HostEventDesc, 13> kHostEventFields = {{
    {"queue_ops", &HostEvents::queue_ops},
    {"wakes", &HostEvents::wakes},
    {"waiter_visits", &HostEvents::waiter_visits},
    {"reregisters", &HostEvents::reregisters},
    {"same_list_reregisters", &HostEvents::same_list_reregisters},
    {"select_candidates", &HostEvents::select_candidates},
    {"dead_candidates", &HostEvents::dead_candidates},
    {"selections", &HostEvents::selections},
    {"sort_fallbacks", &HostEvents::sort_fallbacks},
    {"far_spills", &HostEvents::far_spills},
    {"lsq_visits", &HostEvents::lsq_visits},
    {"branch_checks", &HostEvents::branch_checks},
    {"branch_resolves", &HostEvents::branch_resolves},
}};
static_assert(sizeof(HostEvents) == kHostEventFields.size() * sizeof(u64),
              "kHostEventFields must list every HostEvents count");

class Simulator {
 public:
  // Throws std::invalid_argument when config's slice geometry is invalid
  // (SliceGeometry::valid(): 1, 2, 4 or 8 slices). With `start`, begins
  // from that captured architectural state (see emu/checkpoint.hpp) instead
  // of the program's entry point: the oracle and the fetch pc begin at the
  // checkpoint, whose pages are the oracle's whole memory (the image is not
  // copied; `start` must come from this program). Caches and predictors
  // start cold — combine with run()'s warm-up to heat them.
  Simulator(const MachineConfig& config, const Program& program,
            const Checkpoint* start = nullptr);
  Simulator(Simulator&&) noexcept;
  Simulator& operator=(Simulator&&) noexcept;
  ~Simulator();

  // Runs until `max_commits` instructions commit *after* the first
  // `warmup_commits` (whose statistics are discarded — caches, predictors
  // and queues stay warm, mirroring the paper's 1 B-instruction
  // fast-forward), the program exits, or an internal error occurs. May be
  // called once per Simulator instance.
  SimResult run(u64 max_commits, u64 warmup_commits = 0);

  // Attaches a trace sink (obs/sinks.hpp: the text "pipeview", Chrome trace
  // JSON, Konata, or any custom obs::TraceSink). Not owned; must outlive
  // run(). May be called multiple times — every sink sees every event. Must
  // be called before run(). With no sinks attached the event points cost
  // one predictable branch each.
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
  // the nested replay sub-phase). Costs a few steady_clock reads
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

}  // namespace bsp
