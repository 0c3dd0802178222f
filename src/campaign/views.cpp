#include "campaign/builtin.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <tuple>

#include "util/chart.hpp"
#include "util/table.hpp"
#include "workloads/workloads.hpp"

namespace bsp::campaign {
namespace {

void emit(std::ostream& os, const Table& table, bool csv) {
  if (csv)
    table.print_csv(os);
  else
    table.print(os);
  os << "\n";
}

// The average speedup of `num` over `den` that the fig11 and fig12 views
// print: the mean of the per-benchmark IPC ratios, minus one. Figure 12
// averages per-benchmark bars, so this is the paper's definition.
double mean_speedup(const std::vector<double>& num,
                    const std::vector<double>& den) {
  double sum = 0;
  for (std::size_t i = 0; i < num.size(); ++i) sum += num[i] / den[i];
  return num.empty() ? 0.0 : sum / num.size() - 1.0;
}

// Index of `v` in `list`, or list.size() when absent.
template <class T>
std::size_t rank(const std::vector<T>& list, const T& v) {
  return static_cast<std::size_t>(std::find(list.begin(), list.end(), v) -
                                  list.begin());
}

struct Row {
  std::string workload;
  u64 seed;
  bool operator==(const Row&) const = default;
};

// The ok records of a store, addressable by (workload, seed) row and
// machine point; a later record for the same cell wins. Rows and machines
// follow the builtin campaign's declaration order (then the suite's), so
// a view prints the same after a sweep as from its store.
class RecordIndex {
 public:
  explicit RecordIndex(const std::vector<TaskRecord>& records) {
    for (const TaskRecord& r : records) {
      if (!r.ok()) continue;
      const Row row{r.task.workload, r.task.seed};
      if (rank(rows_, row) == rows_.size()) rows_.push_back(row);
      if (std::none_of(machines_.begin(), machines_.end(),
                       [&](const MachinePoint& m) {
                         return m.key() == r.task.machine.key();
                       }))
        machines_.push_back(r.task.machine);
      stats_[{row.workload, row.seed, r.task.machine.key()}] = &r.stats;
      multi_seed_ |= row.seed != rows_[0].seed;
    }
    const BuiltinCampaign* c =
        records.empty() ? nullptr : find_campaign(records[0].task.campaign);
    const SweepSpec spec = c ? c->make() : SweepSpec{};
    const auto order = [&](const Row& r) {
      const std::size_t w = rank(spec.workloads, r.workload);
      return std::make_pair(
          w < spec.workloads.size() ? w
                                    : w + rank(workload_names(), r.workload),
          rank(spec.seeds, r.seed));
    };
    std::stable_sort(rows_.begin(), rows_.end(),
                     [&](const Row& a, const Row& b) {
                       return order(a) < order(b);
                     });
    std::vector<std::string> keys;
    for (const MachinePoint& m : spec.machines) keys.push_back(m.key());
    std::stable_sort(machines_.begin(), machines_.end(),
                     [&](const MachinePoint& a, const MachinePoint& b) {
                       return rank(keys, a.key()) < rank(keys, b.key());
                     });
  }

  const std::vector<Row>& rows() const { return rows_; }
  const std::vector<MachinePoint>& machines() const { return machines_; }
  // The row's stats for every point in `points`; empty when any is
  // missing, so views skip rows they cannot fill.
  std::vector<const SimStats*> find(
      const Row& row, const std::vector<MachinePoint>& points) const {
    std::vector<const SimStats*> out;
    for (const MachinePoint& m : points) {
      const auto it = stats_.find({row.workload, row.seed, m.key()});
      if (it == stats_.end()) return {};
      out.push_back(it->second);
    }
    return out;
  }
  // The workload, plus its seed when the store holds several.
  std::string label(const Row& row) const {
    char seed[32];
    std::snprintf(seed, sizeof seed, " seed=0x%llx",
                  static_cast<unsigned long long>(row.seed));
    return multi_seed_ ? row.workload + seed : row.workload;
  }

 private:
  std::vector<Row> rows_;
  std::vector<MachinePoint> machines_;
  std::map<std::tuple<std::string, u64, std::string>, const SimStats*>
      stats_;
  bool multi_seed_ = false;
};

// The first machine of `kind` (and, when nonzero, `slices`).
const MachinePoint* find_kind(const std::vector<MachinePoint>& machines,
                              MachineKind kind, unsigned slices = 0) {
  for (const MachinePoint& m : machines)
    if (m.kind == kind && (slices == 0 || m.slices == slices)) return &m;
  return nullptr;
}

// The first base, simple and sliced machines, or empty if one is missing.
std::vector<MachinePoint> base_simple_full(
    const std::vector<MachinePoint>& machines) {
  std::vector<MachinePoint> out;
  for (const MachineKind k :
       {MachineKind::Base, MachineKind::Simple, MachineKind::Sliced})
    if (const MachinePoint* m = find_kind(machines, k)) out.push_back(*m);
  return out.size() == 3 ? out : std::vector<MachinePoint>{};
}

// Machines grouped by override string, groups in machine order.
std::vector<std::vector<MachinePoint>> by_overrides(
    const std::vector<MachinePoint>& machines) {
  std::vector<std::vector<MachinePoint>> groups;
  std::vector<std::string> seen;
  for (const MachinePoint& m : machines) {
    if (rank(seen, m.overrides) == seen.size()) {
      seen.push_back(m.overrides);
      groups.emplace_back();
    }
    groups[rank(seen, m.overrides)].push_back(m);
  }
  return groups;
}

// One IPC column per machine point and one row per (workload, seed);
// `mean` labels a final row averaging each column ("" = none), and
// `counters` appends the last point's extension counters.
Table ipc_table(const RecordIndex& ix, const std::string& mean,
                bool counters = false) {
  std::vector<std::string> header = {"benchmark"};
  for (const MachinePoint& m : ix.machines()) header.push_back(m.label);
  if (counters)
    for (const char* h :
         {"spec fwd tried", "spec fwd missed", "narrow results"})
      header.push_back(h);
  Table table(std::move(header));
  std::vector<double> sums(ix.machines().size(), 0.0);
  unsigned rows = 0;
  for (const Row& row : ix.rows()) {
    const auto s = ix.find(row, ix.machines());
    if (s.empty()) continue;
    std::vector<std::string> cells = {ix.label(row)};
    for (std::size_t i = 0; i < s.size(); ++i) {
      cells.push_back(Table::num(s[i]->ipc(), 3));
      sums[i] += s[i]->ipc();
    }
    if (counters)
      for (const u64 n : {s.back()->spec_forwards,
                          s.back()->spec_forward_misses,
                          s.back()->narrow_operands})
        cells.push_back(std::to_string(n));
    table.add_row(std::move(cells));
    ++rows;
  }
  if (!mean.empty() && rows > 0) {
    std::vector<std::string> cells = {mean};
    for (const double sum : sums) cells.push_back(Table::num(sum / rows, 3));
    table.add_row(std::move(cells));
  }
  return table;
}

void render_abl_slice_width(const std::vector<TaskRecord>& records, bool csv,
                            std::ostream& os) {
  os << "== Ablation: slice width (all techniques enabled) ==\n";
  emit(os, ipc_table(RecordIndex(records), "mean"), csv);
  os << "Expected: bit-sliced IPC degrades gracefully with slice "
        "count while simple pipelining collapses roughly linearly.\n";
}

void render_abl_extensions(const std::vector<TaskRecord>& records, bool csv,
                           std::ostream& os) {
  os << "== Ablation: speculative forwarding & narrow-width relaxation "
        "(slice-by-4) ==\n";
  emit(os, ipc_table(RecordIndex(records), "", true), csv);
  os << "The paper predicts speculative partial-match forwarding "
        "confirms with very high accuracy (Figure 2's single-match "
        "category converges to the exact match).\n";
}

void render_abl_sam(const std::vector<TaskRecord>& records, bool csv,
                    std::ostream& os) {
  os << "== Ablation: partial tag matching vs sum-addressed memory "
        "(slice-by-4) ==\n";
  emit(os, ipc_table(RecordIndex(records), "average"), csv);
  os << "Expected: each helps alone; the combination at least matches "
        "the better of the two (the paper calls them orthogonal).\n";
}

// Figure 11: IPC of base and each cumulative stack point, the average
// chart, and the §7.1 partial-tag replay rate.
void render_fig11(const std::vector<TaskRecord>& records, bool csv,
                  std::ostream& os) {
  const RecordIndex ix(records);
  os << "== Figure 11: IPC results for the bit-sliced microarchitecture ==\n";
  for (const unsigned slices : {2u, 4u}) {
    const auto stack = technique_stack(slices);
    std::vector<MachinePoint> points = stack_points(slices);
    points.insert(points.begin(), MachinePoint{});  // the base machine
    std::vector<std::string> header = {"benchmark", "base (ideal)"};
    for (const auto& p : stack) header.push_back(p.label);
    header.push_back("tag replay rate");
    Table table(std::move(header));
    std::vector<double> sums(points.size(), 0.0), simple, full;
    double replay_sum = 0;
    for (const Row& row : ix.rows()) {
      const auto s = ix.find(row, points);
      if (s.empty()) continue;
      std::vector<std::string> cells = {ix.label(row)};
      for (std::size_t i = 0; i < s.size(); ++i) {
        cells.push_back(Table::num(s[i]->ipc(), 3));
        sums[i] += s[i]->ipc();
      }
      cells.push_back(Table::pct(s.back()->way_mispredict_rate()));
      table.add_row(std::move(cells));
      simple.push_back(s[1]->ipc());
      full.push_back(s.back()->ipc());
      replay_sum += s.back()->way_mispredict_rate();
    }
    if (full.empty()) continue;
    const double rows = static_cast<double>(full.size());
    os << "slice-by-" << slices << ":\n";
    emit(os, table, csv);
    BarChart chart("average IPC, slice-by-" + std::to_string(slices) +
                   " ('|' marks the ideal base machine)");
    chart.set_reference(sums[0] / rows);
    for (std::size_t i = 0; i < stack.size(); ++i)
      chart.add_bar(stack[i].label, sums[i + 1] / rows);
    chart.print(os);
    os << "\naverages: base " << Table::num(sums[0] / rows, 3)
       << ", simple pipelining " << Table::num(sums[1] / rows, 3)
       << ", full bit-slice " << Table::num(sums.back() / rows, 3) << "\n"
       << "full vs base (ratio of mean IPCs):  "
       << Table::pct(sums.back() / sums[0] - 1.0)
       << (slices == 2 ? "   (paper: -0.01%)" : "   (paper: -18%)") << "\n"
       << "full vs simple pipelining (mean of per-benchmark ratios): "
       << Table::pct(mean_speedup(full, simple))
       << (slices == 2 ? "   (paper: +16%)" : "   (paper: +44%)") << "\n"
       << "avg partial-tag replay rate: " << Table::pct(replay_sum / rows)
       << (slices == 2 ? "   (paper: ~2%)" : "   (paper: ~1%)") << "\n\n";
  }
}

// Figure 12: each technique's cumulative IPC gain over simple pipelining.
void render_fig12(const std::vector<TaskRecord>& records, bool csv,
                  std::ostream& os) {
  const RecordIndex ix(records);
  os << "== Figure 12: speed-up of bit-slice pipelining over simple "
        "pipelining ==\n";
  for (const unsigned slices : {2u, 4u}) {
    const auto stack = technique_stack(slices);
    const std::vector<MachinePoint> points = stack_points(slices);
    std::vector<std::string> header = {"benchmark"};
    for (std::size_t i = 1; i < stack.size(); ++i)
      header.push_back(stack[i].label);
    header.push_back("total");
    header.push_back("new techniques");
    Table table(std::move(header));
    std::vector<double> simple, bypass, full;
    double new_sum = 0;
    for (const Row& row : ix.rows()) {
      std::vector<double> ipc;
      for (const SimStats* s : ix.find(row, points))
        ipc.push_back(s->ipc());
      if (ipc.empty()) continue;
      std::vector<std::string> cells = {ix.label(row)};
      for (std::size_t i = 1; i < ipc.size(); ++i)
        cells.push_back(Table::pct(ipc[i] / ipc[0] - ipc[i - 1] / ipc[0]));
      // "New techniques" = everything beyond partial operand bypassing
      // (ipc[1]): the three §5 proposals plus out-of-order slices.
      const double new_part = (ipc.back() - ipc[1]) / ipc.front();
      cells.push_back(Table::pct(ipc.back() / ipc.front() - 1.0));
      cells.push_back(Table::pct(new_part));
      table.add_row(std::move(cells));
      simple.push_back(ipc.front());
      bypass.push_back(ipc[1]);
      full.push_back(ipc.back());
      new_sum += new_part;
    }
    if (simple.empty()) continue;
    os << "slice-by-" << slices << " (contributions are cumulative "
       << "IPC gains relative to simple pipelining):\n";
    emit(os, table, csv);
    os << "average total speedup (mean of per-benchmark ratios): "
       << Table::pct(mean_speedup(full, simple))
       << (slices == 2 ? "   (paper: 16%)" : "   (paper: 44%)") << "\n"
       << "  from partial operand bypassing: "
       << Table::pct(mean_speedup(bypass, simple))
       << "   (paper: roughly half the benefit)\n"
       << "  from the newly proposed techniques: "
       << Table::pct(new_sum / simple.size())
       << (slices == 2 ? "   (paper: +8%)" : "   (paper: +13%)") << "\n\n";
  }
}

// Table 1: base-machine characteristics next to the paper's surviving
// branch accuracies.
void render_table1(const std::vector<TaskRecord>& records, bool csv,
                   std::ostream& os) {
  const RecordIndex ix(records);
  os << "== Table 1: benchmark programs simulated ==\n";
  Table table({"benchmark", "IPC", "% loads", "% stores", "branch acc",
               "paper branch acc"});
  double ipc_sum = 0, acc_sum = 0;
  unsigned rows = 0;
  for (const Row& row : ix.rows()) {
    for (const SimStats* s : ix.find(row, {MachinePoint{}})) {
      std::string paper = "(lost)";
      try {
        if (const auto acc =
                workload_info(row.workload).paper_branch_accuracy)
          paper = Table::pct(*acc, 0);
      } catch (const std::exception&) {
      }
      table.add_row({ix.label(row), Table::num(s->ipc(), 2),
                     Table::pct(s->load_fraction()),
                     Table::pct(static_cast<double>(s->stores) / s->committed),
                     Table::pct(s->branch_accuracy(), 0), paper});
      ipc_sum += s->ipc();
      acc_sum += s->branch_accuracy();
      ++rows;
    }
  }
  if (rows > 1)
    table.add_row({"average", Table::num(ipc_sum / rows, 2), "", "",
                   Table::pct(acc_sum / rows, 0), ""});
  emit(os, table, csv);
  os << "Note: kernels are synthetic SPEC surrogates (DESIGN.md §3); "
        "branch accuracies are tuned to Table 1, IPC/loads are "
        "reported for reference.\n";
}

void render_abl_seeds(const std::vector<TaskRecord>& records, bool csv,
                      std::ostream& os) {
  const RecordIndex ix(records);
  os << "== Ablation: seed sensitivity of the headline speedup ==\n";
  Table table({"benchmark", "seed", "base IPC", "simple IPC", "full IPC",
               "full/simple", "full/base"});
  const std::vector<MachinePoint> points = base_simple_full(ix.machines());
  const auto spread = [](const std::vector<double>& v) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return Table::pct(*lo) + ".." + Table::pct(*hi);
  };
  std::vector<double> speedup, recovery;
  const auto& rows = ix.rows();
  for (std::size_t i = 0; i < rows.size() && !points.empty(); ++i) {
    // Rows come grouped by workload; a spread row closes each group.
    const std::string& workload = rows[i].workload;
    const auto s = ix.find(rows[i], points);
    if (!s.empty()) {
      const double b = s[0]->ipc(), sp = s[1]->ipc(), f = s[2]->ipc();
      table.add_row({workload, std::to_string(rows[i].seed),
                     Table::num(b, 3), Table::num(sp, 3), Table::num(f, 3),
                     Table::pct(f / sp - 1.0), Table::pct(f / b - 1.0)});
      speedup.push_back(f / sp - 1.0);
      recovery.push_back(f / b - 1.0);
    }
    if ((i + 1 == rows.size() || rows[i + 1].workload != workload) &&
        !speedup.empty()) {
      table.add_row({workload, "spread", "", "", "", spread(speedup),
                     spread(recovery)});
      speedup.clear();
      recovery.clear();
    }
  }
  emit(os, table, csv);
  os << "Expected: the full bit-slice machine beats simple pipelining "
        "for every seed; spreads of a few points are workload noise.\n";
}

void render_abl_predictor(const std::vector<TaskRecord>& records, bool csv,
                          std::ostream& os) {
  const RecordIndex ix(records);
  os << "== Ablation: gshare (Table 2) vs small bimodal (slice-by-4) ==\n";
  Table table({"benchmark", "predictor", "branch acc", "full IPC",
               "IPC w/o early branch", "early-branch gain"});
  for (const Row& row : ix.rows()) {
    for (std::vector<MachinePoint> pair : by_overrides(ix.machines())) {
      // The point with early branch resolution first.
      std::stable_partition(pair.begin(), pair.end(),
                            [](const MachinePoint& m) {
                              return has_technique(m.techniques,
                                                   Technique::EarlyBranch);
                            });
      const auto s = pair.size() == 2 ? ix.find(row, pair)
                                      : std::vector<const SimStats*>{};
      if (s.empty()) continue;
      const auto branch = pair[0].build().branch;
      const std::string predictor =
          branch.use_bimodal
              ? "bimodal-" + std::to_string(branch.bimodal_entries / 1024)
              : "gshare-" + std::to_string(branch.gshare_entries / 1024);
      table.add_row({ix.label(row), predictor + "k",
                     Table::pct(s[0]->branch_accuracy(), 0),
                     Table::num(s[0]->ipc(), 3), Table::num(s[1]->ipc(), 3),
                     Table::pct(s[0]->ipc() / s[1]->ipc() - 1.0)});
    }
  }
  emit(os, table, csv);
  os << "Expected: the weaker predictor lowers accuracy and IPC, and "
        "widens the early-branch-resolution gain.\n";
}

void render_abl_way_policy(const std::vector<TaskRecord>& records, bool csv,
                           std::ostream& os) {
  const RecordIndex ix(records);
  os << "== Ablation: way-prediction policy (slice-by-2, all techniques) "
        "==\n";
  Table table({"benchmark", "policy", "tag replay rate", "IPC"});
  for (const Row& row : ix.rows())
    for (const MachinePoint& m : ix.machines())
      for (const SimStats* s : ix.find(row, {m}))
        table.add_row({ix.label(row), m.label,
                       Table::pct(s->way_mispredict_rate()),
                       Table::num(s->ipc(), 3)});
  emit(os, table, csv);
  os << "Expected: MRU tracks temporal locality and keeps the replay "
        "rate lowest, matching the paper's choice.\n";
}

void render_abl_window(const std::vector<TaskRecord>& records, bool csv,
                       std::ostream& os) {
  const RecordIndex ix(records);
  os << "== Ablation: window and width sizing (slice-by-2) ==\n";
  Table table({"benchmark", "window", "base IPC", "simple IPC", "full IPC",
               "technique gain"});
  const CoreConfig table2 = base_machine().core;
  for (const Row& row : ix.rows()) {
    for (const auto& group : by_overrides(ix.machines())) {
      const std::vector<MachinePoint> points = base_simple_full(group);
      const auto s = points.empty() ? std::vector<const SimStats*>{}
                                    : ix.find(row, points);
      if (s.empty()) continue;
      const CoreConfig core = points[0].build().core;
      std::string window = std::to_string(core.ruu_entries) + "/" +
                           std::to_string(core.lsq_entries) + ", " +
                           std::to_string(core.issue_width) + "-wide";
      if (core.ruu_entries == table2.ruu_entries &&
          core.lsq_entries == table2.lsq_entries &&
          core.issue_width == table2.issue_width)
        window += " (Table 2)";
      table.add_row({ix.label(row), window, Table::num(s[0]->ipc(), 3),
                     Table::num(s[1]->ipc(), 3), Table::num(s[2]->ipc(), 3),
                     Table::pct(s[2]->ipc() / s[1]->ipc() - 1.0)});
    }
  }
  emit(os, table, csv);
}

void render_abl_fp_corner(const std::vector<TaskRecord>& records, bool csv,
                          std::ostream& os) {
  const RecordIndex ix(records);
  os << "== Ablation: full-collect corner cases are handled but "
        "performance-neutral ==\n";
  Table table({"kernel", "slice config", "simple pipelining",
               "full bit-slice", "technique gain"});
  // The FP/div kernel's rows, then the integer suite's average (a ratio
  // of mean IPCs) at the same settings.
  for (const bool fp : {true, false}) {
    for (const unsigned slices : {2u, 4u}) {
      const MachinePoint* simple =
          find_kind(ix.machines(), MachineKind::Simple, slices);
      const MachinePoint* full =
          find_kind(ix.machines(), MachineKind::Sliced, slices);
      double simple_sum = 0, full_sum = 0;
      unsigned rows = 0;
      for (const Row& row : ix.rows()) {
        if ((row.workload == "fp_saxpy") != fp || !simple || !full) continue;
        const auto s = ix.find(row, {*simple, *full});
        if (s.empty()) continue;
        simple_sum += s[0]->ipc();
        full_sum += s[1]->ipc();
        ++rows;
      }
      if (rows == 0) continue;
      table.add_row({fp ? "fp/div saxpy" : "integer suite avg",
                     "slice-by-" + std::to_string(slices),
                     Table::num(simple_sum / rows, 3),
                     Table::num(full_sum / rows, 3),
                     Table::pct(full_sum / simple_sum - 1.0)});
    }
  }
  emit(os, table, csv);
  os << "Expected: the FP/div kernel's dependence chains run through "
        "full-collect units, so slice techniques barely move it; the "
        "integer suite gains its usual double-digit speedup.\n";
}

// IPC per measurement window: one row per (workload, warm-up), one column
// per instruction budget in the store.
void render_abl_stability(const std::vector<TaskRecord>& records, bool csv,
                          std::ostream& os) {
  os << "== Ablation: IPC vs simulation window (slice-by-2, all "
        "techniques) ==\n";
  std::map<std::pair<std::string, u64>, std::map<u64, double>> ipc;
  std::set<u64> windows;
  for (const TaskRecord& r : records) {
    if (!r.ok()) continue;
    ipc[{r.task.workload, r.task.warmup}][r.task.instructions] =
        r.stats.ipc();
    windows.insert(r.task.instructions);
  }
  const auto k = [](u64 n) {
    return n % 1000 ? std::to_string(n) : std::to_string(n / 1000) + "k";
  };
  std::vector<std::string> header = {"benchmark", "warmup"};
  for (const u64 n : windows) header.push_back(k(n));
  header.push_back(std::string("max drift vs ") +
                   (windows.empty() ? "" : k(*windows.rbegin())));
  Table table(std::move(header));
  for (const auto& [key, by_n] : ipc) {  // workload, then warm-up order
    std::vector<std::string> cells = {key.first, std::to_string(key.second)};
    std::vector<double> ipcs;
    for (const u64 n : windows) {
      const auto it = by_n.find(n);
      cells.push_back(it == by_n.end() ? "-" : Table::num(it->second, 3));
      if (it != by_n.end()) ipcs.push_back(it->second);
    }
    // Drift of the third-shortest window onward relative to the longest
    // (short windows legitimately include transients).
    double drift = 0;
    for (std::size_t i = 2; i + 1 < ipcs.size(); ++i)
      drift = std::max(drift, std::abs(ipcs[i] / ipcs.back() - 1.0));
    cells.push_back(Table::pct(drift));
    table.add_row(std::move(cells));
  }
  emit(os, table, csv);
  os << "Measurement windows start either at reset (warmup 0) or "
        "after the discarded warm-up the other campaigns use.\n";
}

}  // namespace

const std::vector<ReportView>& report_views() {
  static const std::vector<ReportView> views = {
      {"fig11", &render_fig11},
      {"fig12", &render_fig12},
      {"table1", &render_table1},
      {"abl_slice_width", &render_abl_slice_width},
      {"abl_extensions", &render_abl_extensions},
      {"abl_sam", &render_abl_sam},
      {"abl_seeds", &render_abl_seeds},
      {"abl_predictor", &render_abl_predictor},
      {"abl_way_policy", &render_abl_way_policy},
      {"abl_window", &render_abl_window},
      {"abl_fp_corner", &render_abl_fp_corner},
      {"abl_stability", &render_abl_stability},
  };
  return views;
}

const ReportView* find_view(const std::string& name) {
  for (const auto& v : report_views())
    if (v.name == name) return &v;
  return nullptr;
}

std::vector<MachineCpi> cpi_by_machine(
    const std::vector<TaskRecord>& records) {
  std::vector<MachineCpi> out;
  std::map<std::string, std::size_t> index;  // label -> out slot
  for (const TaskRecord& rec : records) {
    if (!rec.ok()) continue;
    const std::string& label = rec.task.machine.label;
    auto it = index.find(label);
    if (it == index.end()) {
      it = index.emplace(label, out.size()).first;
      out.push_back({label, rec.task.machine.build().core.commit_width,
                     SimStats{}, 0});
    }
    MachineCpi& agg = out[it->second];
    agg.stats.merge(rec.stats);
    ++agg.runs;
  }
  return out;
}

}  // namespace bsp::campaign
