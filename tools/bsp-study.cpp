// bsp-study: the paper's trace-driven characterisation studies (Figures
// 2/4/6, the operand profile, Figure 2 vs LSQ depth). Each streams the
// functional emulator's ExecRecords through a trace/studies.hpp engine and
// prints the figure's tables; none runs a timing simulation.
//
//   bsp-study fig2
//   bsp-study fig6 -n 50000 -w li -w go --csv
#include <iostream>
#include <string>
#include <vector>

#include "trace/studies.hpp"
#include "trace/trace.hpp"
#include "util/chart.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace bsp;

struct StudyOptions {
  u64 instructions = 200'000;  // visited instructions per workload
  u64 skip = 10'000;           // trace warm-up, not visited
  std::vector<std::string> workloads;
  bool csv = false;
};

void emit(const StudyOptions& opt, const Table& table) {
  if (opt.csv)
    table.print_csv(std::cout);
  else
    table.print(std::cout);
  std::cout << "\n";
}

// Streams `name`'s trace through `observe`.
template <class Observe>
void trace(const StudyOptions& opt, const std::string& name,
           Observe&& observe) {
  const Workload w = build_workload(name);
  run_trace(w.program, opt.skip, opt.instructions,
            [&](const ExecRecord& rec) {
              observe(rec);
              return true;
            });
}

// Figure 2: classify each load against prior store addresses as the number
// of compared low-order address bits grows. Expected: after ~9 compared
// bits virtually every load is resolved.
void fig2(const StudyOptions& opt) {
  std::cout << "== Figure 2: early load-store disambiguation (32-entry LSQ) "
               "==\n";
  LineChart chart("fraction of loads fully disambiguated vs compared bits",
                  60, 14);
  chart.set_y_range(0.0, 1.0);
  chart.set_x_label("address bits compared (bit 2 .. bit 31)");
  for (const auto& name : opt.workloads) {
    LsqAliasStudy study(32);
    trace(opt, name, [&](const ExecRecord& rec) { study.observe(rec); });
    std::cout << name << " (" << study.loads() << " loads):\n";
    std::vector<std::string> header = {"addr bit"};
    for (unsigned c = 0; c < kNumAliasCategories; ++c)
      header.push_back(alias_category_name(static_cast<AliasCategory>(c)));
    header.push_back("resolved");
    Table table(std::move(header));
    for (unsigned k = 0; k < kDisambigBits; ++k) {
      std::vector<std::string> row = {std::to_string(k + kDisambigLoBit)};
      for (unsigned c = 0; c < kNumAliasCategories; ++c)
        row.push_back(
            Table::pct(study.fraction(k, static_cast<AliasCategory>(c))));
      row.push_back(Table::pct(study.resolved_fraction(k)));
      table.add_row(std::move(row));
    }
    emit(opt, table);
    // The paper's headline claim: 9 compared bits (address bits 2..10,
    // category index 8) resolve essentially every load.
    std::cout << "resolved after 9 compared bits (through address bit 10): "
              << Table::pct(study.resolved_fraction(8)) << "\n\n";
    std::vector<double> series;
    for (unsigned k = 0; k < kDisambigBits; ++k)
      series.push_back(study.resolved_fraction(k));
    chart.add_series(name, std::move(series));
  }
  chart.print(std::cout);
}

// Figure 4: what a t-bit partial tag comparison concludes, for
// {64KB/64B-line, 8KB/32B-line} x {2,4,8}-way. Expected: the series
// converge to "single hit" (the hit rate) and "zero match" (the miss rate).
void fig4(const StudyOptions& opt) {
  std::cout << "== Figure 4: partial tag matching ==\n";
  struct GeometryCase {
    const char* label;
    u32 size, line;
  };
  const GeometryCase sizes[] = {{"64KB, 64B lines", 64 * 1024, 64},
                                {"8KB, 32B lines", 8 * 1024, 32}};
  using Outcome = PartialTagStudy::Outcome;
  for (const auto& name : opt.workloads) {
    for (const auto& g : sizes) {
      for (const unsigned ways : {2u, 4u, 8u}) {
        PartialTagStudy study(CacheGeometry{g.size, g.line, ways});
        trace(opt, name, [&](const ExecRecord& rec) { study.observe(rec); });
        std::cout << name << " - " << g.label << ", " << ways << "-way ("
                  << study.accesses() << " accesses):\n";
        Table table({"tag bits", "zero match", "single entry - hit",
                     "single entry - miss", "mult match"});
        for (unsigned t = 1; t <= study.tag_bits(); ++t)
          table.add_row({std::to_string(t),
                         Table::pct(study.fraction(t, Outcome::ZeroMatch)),
                         Table::pct(study.fraction(t, Outcome::SingleHit)),
                         Table::pct(study.fraction(t, Outcome::SingleMiss)),
                         Table::pct(study.fraction(t, Outcome::MultMatch))});
        emit(opt, table);
      }
    }
  }
}

// Figure 6: the lowest operand bit at which each gshare misprediction is
// provable. Expected (§5.3): ~28% at bit 0, most beq/bne within 8 bits, a
// spike at bit 31.
void fig6(const StudyOptions& opt) {
  std::cout << "== Figure 6: early branch misprediction detection ==\n";
  std::vector<std::string> header = {"bit"};
  for (const auto& name : opt.workloads) header.push_back(name);
  header.push_back("average");
  Table table(std::move(header));

  std::vector<EarlyBranchStudy> studies;
  for (const auto& name : opt.workloads) {
    EarlyBranchStudy study;
    trace(opt, name, [&](const ExecRecord& rec) { study.observe(rec); });
    studies.push_back(std::move(study));
  }
  const double n = static_cast<double>(studies.size());
  for (unsigned k = 0; k < kWordBits; ++k) {
    std::vector<std::string> row = {std::to_string(k)};
    double sum = 0;
    for (const auto& s : studies) {
      row.push_back(Table::pct(s.detected_by_bit(k), 0));
      sum += s.detected_by_bit(k);
    }
    row.push_back(Table::pct(sum / n, 0));
    table.add_row(std::move(row));
  }
  emit(opt, table);

  LineChart chart(
      "cumulative fraction of mispredictions detectable by operand bit k", 64,
      14);
  chart.set_y_range(0.0, 1.0);
  chart.set_x_label("operand bits available (0 .. 31)");
  std::vector<double> avg(kWordBits, 0.0);
  for (const auto& s : studies)
    for (unsigned k = 0; k < kWordBits; ++k) avg[k] += s.detected_by_bit(k) / n;
  chart.add_series("average", std::move(avg));
  // Over the whole suite, show the extremes next to the average, as the
  // paper's figure does.
  for (std::size_t i = 0; i < studies.size(); ++i) {
    const std::string& name = opt.workloads[i];
    if (opt.workloads != workload_names() || (name != "li" && name != "mcf"))
      continue;
    std::vector<double> series;
    for (unsigned k = 0; k < kWordBits; ++k)
      series.push_back(studies[i].detected_by_bit(k));
    chart.add_series(name, std::move(series));
  }
  chart.print(std::cout);
  std::cout << "\n";

  // §5.3 summary statistics.
  u64 branches = 0, eq_branches = 0, mispred = 0, eq_mispred = 0;
  double det0 = 0, det7 = 0;
  for (const auto& s : studies) {
    branches += s.branches();
    eq_branches += s.eq_branches();
    mispred += s.mispredictions();
    eq_mispred += s.eq_mispredictions();
    det0 += s.detected_by_bit(0);
    det7 += s.detected_by_bit(7);
  }
  std::cout << "beq/bne share of dynamic branches:  "
            << Table::pct(static_cast<double>(eq_branches) / branches)
            << "   (paper: 61%)\n"
            << "beq/bne share of mispredictions:    "
            << Table::pct(static_cast<double>(eq_mispred) / mispred)
            << "   (paper: 48%)\n"
            << "avg mispredicts detected at bit 0:  " << Table::pct(det0 / n)
            << "   (paper: 28%)\n"
            << "avg mispredicts detected by bit 7:  " << Table::pct(det7 / n)
            << "   (paper: most beq/bne cases within 8 bits)\n";
}

// The operand-criticality profile behind §2 ("dependent instructions can
// often begin their execution without entire knowledge of their operands")
// and §6's narrow-width remark.
void operand_profile(const StudyOptions& opt) {
  std::cout << "== Operand criticality profile (per dynamic instruction) "
               "==\n";
  Table table({"benchmark", "startable with low slice", "needs full operands",
               "results narrow @16b", "results narrow @8b"});
  double s_sum = 0, f_sum = 0, n16_sum = 0, n8_sum = 0;
  for (const auto& name : opt.workloads) {
    OperandProfile profile;
    trace(opt, name, [&](const ExecRecord& rec) { profile.observe(rec); });
    table.add_row({name, Table::pct(profile.startable_with_low_slice()),
                   Table::pct(profile.needs_full_operands()),
                   Table::pct(profile.narrow_results(16)),
                   Table::pct(profile.narrow_results(8))});
    s_sum += profile.startable_with_low_slice();
    f_sum += profile.needs_full_operands();
    n16_sum += profile.narrow_results(16);
    n8_sum += profile.narrow_results(8);
  }
  const double rows = static_cast<double>(opt.workloads.size());
  table.add_row({"average", Table::pct(s_sum / rows), Table::pct(f_sum / rows),
                 Table::pct(n16_sum / rows), Table::pct(n8_sum / rows)});
  emit(opt, table);
  std::cout << "Reading: the first column is why slice-granular wakeup works "
               "(paper §2); the narrow columns bound the §6 narrow-width "
               "extension's reach (refs [3,6] report similar rates for real "
               "SPECint).\n";
}

// Does Figure 2's convergence point depend on LSQ depth? Deeper queues
// hold more stores, so the 32-entry curve should sit between 16 and 64.
void abl_lsq_depth(const StudyOptions& opt) {
  std::cout << "== Ablation: LSQ depth sensitivity of early load-store "
               "disambiguation ==\n";
  const unsigned depths[] = {8, 16, 32, 64};
  for (const auto& name : opt.workloads) {
    std::vector<LsqAliasStudy> studies;
    for (const unsigned d : depths) studies.emplace_back(d);
    trace(opt, name, [&](const ExecRecord& rec) {
      for (auto& s : studies) s.observe(rec);
    });
    std::cout << name << ": fraction of loads resolved after k compared "
                 "bits\n";
    Table table({"bits", "lsq=8", "lsq=16", "lsq=32", "lsq=64"});
    for (unsigned k = 0; k < kDisambigBits; ++k)
      table.add_row({std::to_string(k + 1),
                     Table::pct(studies[0].resolved_fraction(k)),
                     Table::pct(studies[1].resolved_fraction(k)),
                     Table::pct(studies[2].resolved_fraction(k)),
                     Table::pct(studies[3].resolved_fraction(k))});
    emit(opt, table);
  }
}

struct Study {
  const char* name;
  void (*run)(const StudyOptions&);
  std::vector<std::string> workloads;  // default set; empty = the suite
};

const std::vector<Study>& studies() {
  static const std::vector<Study> all = {
      {"fig2", &fig2, {"bzip", "gcc"}},
      {"fig4", &fig4, {"mcf", "twolf"}},
      {"fig6", &fig6, {}},
      {"operand_profile", &operand_profile, {}},
      {"abl_lsq_depth", &abl_lsq_depth, {"gcc"}},
  };
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  StudyOptions opt;
  std::string names;
  for (const Study& s : studies())
    names += std::string(names.empty() ? "" : ", ") + s.name;
  ArgParser parser("bsp-study NAME: trace-driven characterisation study (" +
                   names + ")");
  parser.add_value("-n, --instructions", "N",
                   "visited instructions per workload (default " +
                       std::to_string(opt.instructions) + ")",
                   &opt.instructions);
  parser.add_value("--skip", "N",
                   "trace warm-up instructions (default " +
                       std::to_string(opt.skip) + ")",
                   &opt.skip);
  parser.add_value("-w, --workload", "NAME",
                   "restrict to one workload (repeatable; default: the "
                   "study's own set)",
                   &opt.workloads);
  parser.add_flag("--csv", "machine-readable tables", &opt.csv);

  std::string name;
  parser.set_positional([&](const std::string& v) { name = v; });
  parser.parse(argc, argv);

  for (const Study& s : studies()) {
    if (name != s.name) continue;
    if (opt.workloads.empty())
      opt.workloads = s.workloads.empty() ? workload_names() : s.workloads;
    s.run(opt);
    return 0;
  }
  std::cerr << "bsp-study: "
            << (name.empty() ? std::string("no study given")
                             : "unknown study '" + name + "'")
            << " (one of " << names << ")\n";
  return 2;
}
