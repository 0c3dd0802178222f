// Steady-state allocation discipline: every scratch vector and node pool
// on the scheduler's hot paths (pending/candidate buffers, store-view
// scratch, relaxation worklist, woken-branch list, waiter/consumer node
// pools, the event wheel's far tier) is reserved once at construction from
// the machine shape. A reallocation after warm-up means a heap allocation
// slipped onto the dispatch/wakeup/replay path — a throughput regression
// the benchmarks would only show as noise, so it is pinned here exactly.
#include <gtest/gtest.h>

#include "config/machine_config.hpp"
#include "core/simulator.hpp"
#include "workloads/workloads.hpp"

namespace bsp {
namespace {

void expect_no_growth(const MachineConfig& cfg, const char* label) {
  const Workload w = build_workload("gzip");
  Simulator sim(cfg, w.program);
  const SimResult r = sim.run(15'000, 3'000);
  ASSERT_TRUE(r.ok()) << label << ": " << r.error;
  EXPECT_EQ(sim.scratch_reallocations(), 0u)
      << label << ": a hot-path scratch vector grew past its "
      << "construction-time reservation";
}

TEST(ScratchSteadyState, BaselineMachineNeverReallocates) {
  expect_no_growth(base_machine(), "base");
}

TEST(ScratchSteadyState, SlicedAllTechniquesNeverReallocates) {
  expect_no_growth(bitsliced_machine(4, kAllTechniques), "s4/alltech");
}

TEST(ScratchSteadyState, LargeWindowNeverReallocates) {
  MachineConfig cfg = bitsliced_machine(2, kAllTechniques);
  cfg.core.ruu_entries = 256;
  cfg.core.lsq_entries = 128;
  expect_no_growth(cfg, "ruu256/s2/alltech");
}

}  // namespace
}  // namespace bsp
