// Wakeup precision of the event-driven scheduler: a blocked slice-op waits
// on the one still-undefined time it needs (a producer slice-op's done
// time, a load's data time, or its own chain predecessor), so publishing a
// time wakes only ops that time can unblock. Two consequences are pinned
// through Simulator::host_events():
//   * no woken op ever re-registers on the list it was woken from (a wake
//     keyed by producer entry instead re-parks most of its waiters);
//   * on the slice-by-4 machine the waiter walks stay within 1.5 node
//     visits per selected slice-op.
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
};

HostEvents run_events(const WakeCase& c) {
  const Workload w = build_workload(c.workload);
  const MachineConfig cfg = c.slices == 0
                                ? base_machine()
                                : bitsliced_machine(c.slices, kAllTechniques);
  Simulator sim(cfg, w.program);
  const SimResult r = sim.run(30'000, 2'000);
  EXPECT_TRUE(r.ok()) << r.error;
  return sim.host_events();
}

std::string label(const WakeCase& c) {
  return std::string(c.workload) + "/" +
         (c.slices == 0 ? "base" : "x" + std::to_string(c.slices));
}

constexpr WakeCase kCases[] = {{"gzip", 0}, {"gzip", 2}, {"gzip", 4},
                               {"li", 0},   {"li", 2},   {"li", 4}};

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
}

}  // namespace
}  // namespace bsp
