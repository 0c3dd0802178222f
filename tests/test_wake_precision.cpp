// Wakeup precision of the event-driven scheduler: a blocked slice-op waits
// on the one still-undefined time it needs (a producer slice-op's done
// time, a load's data time, or its own chain predecessor), so publishing a
// time wakes only ops that time can unblock. The memory and resolve phases
// work the same way: an LSQ entry is examined, and a branch's resolve time
// computed, only when a time it waits on arrives. Pinned through
// Simulator::host_events():
//   * no woken op ever re-registers on the list it was woken from (a wake
//     keyed by producer entry instead re-parks most of its waiters);
//   * on the slice-by-4 machine the waiter walks stay within 1.5 node
//     visits per selected slice-op;
//   * the memory phase examines far fewer LSQ entries per commit than a
//     walk over every non-Done entry each cycle did;
//   * a resolved branch costs at most three resolve_time() evaluations
//     (a per-cycle walk over every watched branch spent 10-29).
#include <gtest/gtest.h>

#include <string>

#include "config/machine_config.hpp"
#include "core/simulator.hpp"
#include "workloads/workloads.hpp"

namespace bsp {
namespace {

struct WakeCase {
  const char* workload;
  unsigned slices;  // 0 = base machine
  // Bound on LSQ entries examined per commit. The walk it replaced
  // examined, on this same run: gzip 4.0 / 4.5 / 6.7 and li 12.8 / 13.2 /
  // 22.7 (base / x2 / x4); the event-driven phase examines 0.4 / 0.8 / 1.5
  // and 0.7 / 1.0 / 1.8.
  double max_lsq_visits;
};

constexpr u64 kCommits = 30'000;

HostEvents run_events(const WakeCase& c) {
  const Workload w = build_workload(c.workload);
  const MachineConfig cfg = c.slices == 0
                                ? base_machine()
                                : bitsliced_machine(c.slices, kAllTechniques);
  Simulator sim(cfg, w.program);
  const SimResult r = sim.run(kCommits, 2'000);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.stats.committed, kCommits);
  return sim.host_events();
}

std::string label(const WakeCase& c) {
  return std::string(c.workload) + "/" +
         (c.slices == 0 ? "base" : "x" + std::to_string(c.slices));
}

constexpr WakeCase kCases[] = {{"gzip", 0, 1.0}, {"gzip", 2, 1.5},
                               {"gzip", 4, 2.5}, {"li", 0, 1.5},
                               {"li", 2, 2.0},   {"li", 4, 3.0}};

TEST(WakePrecision, WokenOpsNeverReRegisterOnTheirOwnList) {
  for (const WakeCase& c : kCases) {
    const HostEvents ev = run_events(c);
    EXPECT_GT(ev.selections, 0u) << label(c);
    EXPECT_EQ(ev.same_list_reregisters, 0u)
        << label(c) << ": " << ev.waiter_visits << " visits, "
        << ev.reregisters << " re-registrations";
  }
}

TEST(WakePrecision, SliceByFourVisitsAtMostOneAndAHalfNodesPerSelection) {
  for (const WakeCase& c : kCases) {
    if (c.slices != 4) continue;
    const HostEvents ev = run_events(c);
    ASSERT_GT(ev.selections, 0u) << label(c);
    const double per_sel = static_cast<double>(ev.waiter_visits) /
                           static_cast<double>(ev.selections);
    EXPECT_LE(per_sel, 1.5)
        << label(c) << ": " << ev.waiter_visits << " visits over "
        << ev.selections << " selections";
  }
}

TEST(WakePrecision, MemoryPhaseExaminesOnlyWokenLsqEntries) {
  for (const WakeCase& c : kCases) {
    const HostEvents ev = run_events(c);
    const double per_commit =
        static_cast<double>(ev.lsq_visits) / static_cast<double>(kCommits);
    EXPECT_GT(ev.lsq_visits, 0u) << label(c);
    EXPECT_LE(per_commit, c.max_lsq_visits)
        << label(c) << ": " << ev.lsq_visits << " LSQ visits";
  }
}

TEST(WakePrecision, ResolvePhaseChecksABranchAtMostThreeTimes) {
  for (const WakeCase& c : kCases) {
    const HostEvents ev = run_events(c);
    ASSERT_GT(ev.branch_resolves, 0u) << label(c);
    EXPECT_LE(ev.branch_checks, 3 * ev.branch_resolves)
        << label(c) << ": " << ev.branch_checks << " resolve_time() "
        << "evaluations for " << ev.branch_resolves << " resolved branches";
  }
}

TEST(WakePrecision, CountsCoverTheMeasuredWindowOnly) {
  const Workload w = build_workload("gzip");
  const MachineConfig cfg = bitsliced_machine(2, kAllTechniques);
  Simulator whole(cfg, w.program);
  ASSERT_TRUE(whole.run(10'000).ok());
  Simulator measured(cfg, w.program);
  ASSERT_TRUE(measured.run(5'000, 5'000).ok());
  // The warm-up half is discarded along with its SimStats.
  const HostEvents all = whole.host_events();
  const HostEvents ev = measured.host_events();
  EXPECT_LT(ev.selections, all.selections * 3 / 4);
  EXPECT_GT(ev.selections, all.selections / 4);
  // Every selection is a live candidate; re-registrations are a subset of
  // visits.
  EXPECT_GE(ev.select_candidates, ev.selections + ev.dead_candidates);
  EXPECT_LE(ev.reregisters, ev.waiter_visits);
  EXPECT_LE(ev.same_list_reregisters, ev.reregisters);
  EXPECT_LE(ev.branch_resolves, ev.branch_checks);
}

}  // namespace
}  // namespace bsp
