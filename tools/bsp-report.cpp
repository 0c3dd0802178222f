// bsp-report: post-hoc reports over a campaign result store (JSONL).
//
// --view NAME renders a paper view (campaign/builtin.hpp) exactly as
// bsp-sweep prints it after a run: fig11, fig12 and table1 over a fig11
// store, each abl_* table over its campaign's store.
//
// --cpi-stack aggregates the cpi_* cycle-accounting leaves per machine
// point and renders side-by-side breakdowns — where each technique stack
// spends its commit slots — as a text table (default), per-machine full
// stacks (--full), CSV (--csv) or JSON (--json). Merging is exact: the
// leaves are plain registered counters, so every machine's aggregate keeps
// the identity sum(cpi_*) == cycles * commit width, and the tool exits 1
// if any aggregate violates it — the offline half of CI's identity check.
//
//   bsp-report --view fig12 results/fig11.jsonl
//   bsp-report --cpi-stack results/fig11.jsonl
//   bsp-report --cpi-stack results/fig11.jsonl --json > stacks.json
//   bsp-report --cpi-stack results/fig11.jsonl --full
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/store.hpp"
#include "campaign/builtin.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/json.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace bsp;
using namespace bsp::campaign;

int main(int argc, char** argv) {
  bool cpi_stack = false, json = false, csv = false, full = false;
  std::string store_path, view_name;

  ArgParser parser(
      "bsp-report: render reports from a campaign result store (JSONL)");
  parser.add_flag("--cpi-stack",
                  "aggregate cpi_* cycle accounting per machine point and "
                  "print side-by-side CPI stacks (store must come from a "
                  "--cpi-stack sweep)",
                  &cpi_stack);
  std::string view_names;
  for (const auto& v : report_views())
    view_names += (view_names.empty() ? "" : ", ") + v.name;
  parser.add_value("--view", "NAME",
                   "print a paper view of the store (" + view_names + ")",
                   &view_name);
  parser.add_value("--store", "PATH",
                   "result store to read (also accepted as a bare argument)",
                   &store_path);
  parser.add_flag("--full",
                  "print each machine's full stack (slots, share, CPI) "
                  "instead of the side-by-side table",
                  &full);
  parser.add_flag("--csv", "print the view's or the side-by-side table as CSV",
                  &csv);
  parser.add_flag("--json",
                  "print one JSON object: per-machine leaf counts, cycles, "
                  "committed, commit width",
                  &json);

  parser.set_positional([&](const std::string& path) {
    if (!store_path.empty()) {
      std::cerr << "bsp-report: more than one store path given\n";
      std::exit(2);
    }
    store_path = path;
  });
  parser.parse(argc, argv);

  if (store_path.empty()) {
    std::cerr << "bsp-report: no result store given (try --help)\n";
    return 2;
  }
  const ReportView* view = nullptr;
  if (!view_name.empty() && !(view = find_view(view_name))) {
    std::cerr << "bsp-report: unknown view '" << view_name << "' (one of "
              << view_names << ")\n";
    return 2;
  }
  if (!cpi_stack && !view) {
    std::cerr << "bsp-report: no report selected (try --view or "
                 "--cpi-stack)\n";
    return 2;
  }

  std::ifstream in(store_path);
  if (!in) {
    std::cerr << "bsp-report: cannot open " << store_path << "\n";
    return 2;
  }
  in.close();
  // load_records dedups to the last record per task id — a store that saw
  // --retry-failed reruns or remote re-dispatch carries superseded lines
  // that must not be double-counted into the aggregates.
  const std::vector<TaskRecord> records = load_records(store_path);
  if (records.empty()) {
    std::cerr << "bsp-report: no parseable records in " << store_path << "\n";
    return 2;
  }
  if (view) {
    view->render(records, csv, std::cout);
    if (!cpi_stack) return 0;
  }

  const std::vector<MachineCpi> machines = cpi_by_machine(records);
  bool any_enabled = false;
  for (const MachineCpi& m : machines)
    if (obs::cpi_enabled(m.stats)) any_enabled = true;
  if (!any_enabled) {
    std::cerr << "bsp-report: store has no cpi_* counters — rerun the "
                 "sweep with --cpi-stack\n";
    return 2;
  }

  // The identity is checked for every machine regardless of output mode;
  // a violation turns the exit code, not just a table cell.
  bool identity_ok = true;
  std::vector<std::string> violations;
  for (const MachineCpi& m : machines) {
    std::string why;
    if (!obs::cpi_identity_holds(m.stats, m.commit_width, &why)) {
      identity_ok = false;
      violations.push_back(m.label + ": " + why);
    }
  }

  if (json) {
    std::cout << "{\"store\":\"" << obs::json_escape(store_path)
              << "\",\"identity\":" << (identity_ok ? "true" : "false")
              << ",\"machines\":[";
    for (std::size_t i = 0; i < machines.size(); ++i) {
      const MachineCpi& m = machines[i];
      std::cout << (i ? "," : "") << "{\"label\":\""
                << obs::json_escape(m.label)
                << "\",\"runs\":" << m.runs << ",\"stack\":"
                << obs::cpi_stack_json(m.stats, m.commit_width) << "}";
    }
    std::cout << "]}\n";
  } else if (full) {
    for (const MachineCpi& m : machines)
      std::cout << "== " << m.label << " (" << m.runs
                << (m.runs == 1 ? " run" : " runs") << ") ==\n"
                << obs::format_cpi_stack(m.stats, m.commit_width) << "\n";
  } else {
    // Side-by-side: one row per leaf that is nonzero anywhere, one column
    // per machine with the leaf's CPI contribution (they sum to the CPI
    // row). Percentages of the slot total ride along in --full mode.
    std::vector<std::string> header = {"leaf", "group"};
    for (const MachineCpi& m : machines) header.push_back(m.label);
    Table table(std::move(header));
    for (const obs::CpiLeafDesc& leaf : obs::cpi_leaves()) {
      bool nonzero = false;
      for (const MachineCpi& m : machines)
        if (m.stats.*leaf.field) nonzero = true;
      if (!nonzero) continue;
      std::vector<std::string> row = {leaf.name, leaf.group};
      for (const MachineCpi& m : machines)
        row.push_back(Table::num(
            obs::cpi_contribution(m.stats.*leaf.field, m.stats.committed,
                                  m.commit_width),
            4));
      table.add_row(std::move(row));
    }
    std::vector<std::string> cpi_row = {"CPI", ""};
    std::vector<std::string> runs_row = {"runs", ""};
    for (const MachineCpi& m : machines) {
      cpi_row.push_back(Table::num(m.stats.ipc() > 0
                                       ? 1.0 / m.stats.ipc()
                                       : 0.0,
                                   4));
      runs_row.push_back(std::to_string(m.runs));
    }
    table.add_row(std::move(cpi_row));
    table.add_row(std::move(runs_row));
    if (csv)
      table.print_csv(std::cout);
    else
      table.print(std::cout);
  }

  if (identity_ok) {
    if (!json) std::cout << "identity: ok (" << machines.size()
                         << (machines.size() == 1 ? " machine" : " machines")
                         << ")\n";
    return 0;
  }
  for (const std::string& v : violations)
    std::cerr << "bsp-report: " << v << "\n";
  return 1;
}
