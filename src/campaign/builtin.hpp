// Built-in named campaigns — every simulated paper result as a SweepSpec
// factory (builtin.cpp) — and the report views that render their records
// (views.cpp). `bsp-sweep --campaign NAME` runs one and prints the view of
// the same name; `bsp-report --view NAME STORE` re-renders any view from a
// store. A view reads TaskRecords only and never simulates. It finds its
// points by machine key, orders rows and columns as the builtin campaign
// declares them, counts only ok records, and skips a row it cannot fill.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "campaign/store.hpp"

namespace bsp::campaign {

struct BuiltinCampaign {
  std::string name;
  std::string description;
  SweepSpec (*make)();
};

const std::vector<BuiltinCampaign>& builtin_campaigns();

// nullptr when unknown.
const BuiltinCampaign* find_campaign(const std::string& name);

// The Figures 11/12 cumulative technique stack for one slice count as
// machine points (technique_stack order), labels prefixed "xN ". The fig11
// campaign runs them; the fig11, fig12 and table1 views look them up.
std::vector<MachinePoint> stack_points(unsigned slices);

struct ReportView {
  std::string name;
  void (*render)(const std::vector<TaskRecord>& records, bool csv,
                 std::ostream& os);
};

// One view per builtin campaign, named after it, plus fig12 and table1
// (over a fig11 store).
const std::vector<ReportView>& report_views();

// nullptr when unknown.
const ReportView* find_view(const std::string& name);

// One machine point's CPI stack over a store: its ok records' counters
// merged. The cpi_* leaves are plain counters, so the merge keeps the
// identity sum(cpi_*) == cycles * commit width. bsp-sweep --cpi-stack and
// bsp-report --cpi-stack print these with obs::format_cpi_stack and
// friends.
struct MachineCpi {
  std::string label;
  unsigned commit_width = 0;
  SimStats stats;
  std::size_t runs = 0;
};

// One MachineCpi per machine label with an ok record, labels in the order
// `records` first shows them.
std::vector<MachineCpi> cpi_by_machine(const std::vector<TaskRecord>& records);

}  // namespace bsp::campaign
