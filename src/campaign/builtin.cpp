#include "campaign/builtin.hpp"

#include "workloads/workloads.hpp"

namespace bsp::campaign {
namespace {

using enum MachineKind;

constexpr unsigned tech(Technique t) { return static_cast<unsigned>(t); }

// "xN". (Built by appending: gcc-12 Release raises a -Wrestrict false
// positive on `const char* + std::string&&`.)
std::string xn(unsigned slices) {
  std::string s = "x";
  s += std::to_string(slices);
  return s;
}

MachinePoint point(std::string label, MachineKind kind, unsigned slices = 1,
                   TechniqueSet techniques = kNoTechniques,
                   std::string overrides = "") {
  MachinePoint p;
  p.label = std::move(label);
  p.kind = kind;
  p.slices = slices;
  p.techniques = techniques;
  p.overrides = std::move(overrides);
  return p;
}

SweepSpec spec(std::string name, std::vector<std::string> workloads,
               std::vector<MachinePoint> machines) {
  SweepSpec s;
  s.name = std::move(name);
  s.workloads = std::move(workloads);
  s.machines = std::move(machines);
  return s;
}

SweepSpec make_fig11() {
  SweepSpec s =
      spec("fig11", workload_names(), {point("base (ideal)", Base)});
  for (const unsigned n : {2u, 4u})
    for (MachinePoint& p : stack_points(n)) s.machines.push_back(p);
  return s;
}

SweepSpec make_abl_slice_width() {
  SweepSpec s = spec("abl_slice_width", {"bzip", "ijpeg", "li", "vortex"},
                     {point("base (ideal)", Base)});
  for (const unsigned n : {2u, 4u, 8u})
    s.machines.push_back(
        point(xn(n) + " full bit-slice", Sliced, n, kAllTechniques));
  for (const unsigned n : {2u, 4u, 8u})
    s.machines.push_back(point(xn(n) + " simple", Simple, n));
  return s;
}

// §5.1/§6 extensions on top of the full slice-by-4 stack.
SweepSpec make_abl_extensions() {
  const unsigned spec_fwd = tech(Technique::SpecForward);
  const unsigned narrow = tech(Technique::NarrowWidth);
  return spec("abl_extensions", workload_names(),
              {point("paper stack", Sliced, 4, kAllTechniques),
               point("+spec fwd", Sliced, 4, kAllTechniques | spec_fwd),
               point("+narrow width", Sliced, 4, kAllTechniques | narrow),
               point("+both", Sliced, 4, kExtendedTechniques)});
}

// Partial tag matching vs sum-addressed memory (§5.2), slice-by-4.
SweepSpec make_abl_sam() {
  const TechniqueSet common = kAllTechniques & ~tech(Technique::PartialTag);
  const unsigned tag = tech(Technique::PartialTag);
  const unsigned sam = tech(Technique::SumAddressed);
  return spec("abl_sam", workload_names(),
              {point("neither", Sliced, 4, common),
               point("partial tag", Sliced, 4, common | tag),
               point("SAM", Sliced, 4, common | sam),
               point("both", Sliced, 4, common | tag | sam)});
}

// The headline slice-by-2 comparison across workload seeds.
SweepSpec make_abl_seeds() {
  SweepSpec s = spec("abl_seeds", {"bzip", "gcc", "li", "vortex"},
                     {point("base", Base),
                      point("simple x2", Simple, 2),
                      point("full x2", Sliced, 2, kAllTechniques)});
  s.seeds = {0x5eed, 0xD00D, 0xBEE5, 0x1234, 0xFEED};
  return s;
}

// Table 2's gshare vs a small bimodal predictor, with and without early
// branch resolution, slice-by-4.
SweepSpec make_abl_predictor() {
  const TechniqueSet no_eb = kAllTechniques & ~tech(Technique::EarlyBranch);
  const std::string bimodal = "predictor=bimodal";
  return spec("abl_predictor", {"go", "gcc", "li", "parser"},
              {point("gshare-64k", Sliced, 4, kAllTechniques),
               point("gshare-64k w/o early branch", Sliced, 4, no_eb),
               point("bimodal-4k", Sliced, 4, kAllTechniques, bimodal),
               point("bimodal-4k w/o early branch", Sliced, 4, no_eb,
                     bimodal)});
}

// Partial-tag way-selection policy on the full slice-by-2 machine.
SweepSpec make_abl_way_policy() {
  SweepSpec s = spec("abl_way_policy", {"bzip", "gcc", "mcf", "twolf"}, {});
  for (const std::string policy : {"mru", "first-match", "random"})
    s.machines.push_back(point(policy == "mru" ? "MRU" : policy, Sliced, 2,
                               kAllTechniques, "way=" + policy));
  return s;
}

// RUU/LSQ/width sizing around Table 2's 64/32, 4-wide, slice-by-2.
SweepSpec make_abl_window() {
  SweepSpec s = spec("abl_window", {"bzip", "li", "vortex"}, {});
  for (const unsigned width : {2u, 4u, 8u}) {
    const std::string ruu = std::to_string(16 * width);
    const std::string lsq = std::to_string(8 * width);
    const std::string w = std::to_string(width);
    const std::string edit = "ruu=" + ruu + ",lsq=" + lsq + ",width=" + w;
    const std::string size = ruu + "/" + lsq + ", " + w + "-wide ";
    s.machines.push_back(point(size + "base", Base, 1, kNoTechniques, edit));
    s.machines.push_back(
        point(size + "simple x2", Simple, 2, kNoTechniques, edit));
    s.machines.push_back(
        point(size + "full x2", Sliced, 2, kAllTechniques, edit));
  }
  return s;
}

// §6: an FP/div kernel next to the integer suite, simple vs full stack.
SweepSpec make_abl_fp_corner() {
  SweepSpec s = spec("abl_fp_corner", {"fp_saxpy"}, {});
  for (const auto& w : workload_names()) s.workloads.push_back(w);
  for (const unsigned n : {2u, 4u}) {
    s.machines.push_back(point(std::string("simple ") + xn(n), Simple, n));
    s.machines.push_back(
        point(std::string("full ") + xn(n), Sliced, n, kAllTechniques));
  }
  return s;
}

// IPC vs measurement window: one point, swept over -n/--warmup into one
// store (scripts/run_all_benches.sh runs the window grid).
SweepSpec make_abl_stability() {
  return spec("abl_stability", {"bzip", "gcc", "mcf"},
              {point("full x2", Sliced, 2, kAllTechniques)});
}

}  // namespace

std::vector<MachinePoint> stack_points(unsigned slices) {
  std::vector<MachinePoint> points;
  for (const StackPoint& sp : technique_stack(slices)) {
    const TechniqueSet t = sp.config.core.techniques;
    points.push_back(point(xn(slices) + " " + sp.label,
                           t == kNoTechniques ? Simple : Sliced, slices, t));
  }
  return points;
}

const std::vector<BuiltinCampaign>& builtin_campaigns() {
  static const std::vector<BuiltinCampaign> campaigns = {
      {"fig11", "Figure 11 (and the fig12, table1 views): x2/x4 stacks",
       &make_fig11},
      {"abl_slice_width", "x2/x4/x8 full stack vs simple pipelining",
       &make_abl_slice_width},
      {"abl_extensions", "spec forwarding, narrow width on the x4 stack",
       &make_abl_extensions},
      {"abl_sam", "partial tag matching vs sum-addressed memory (x4)",
       &make_abl_sam},
      {"abl_seeds", "headline x2 speedup across workload seeds",
       &make_abl_seeds},
      {"abl_predictor", "gshare vs bimodal, with/without early branch (x4)",
       &make_abl_predictor},
      {"abl_way_policy", "partial-tag way-selection policy (x2)",
       &make_abl_way_policy},
      {"abl_window", "RUU/LSQ/width sizing (x2)", &make_abl_window},
      {"abl_fp_corner", "FP/div full-collect kernel vs the integer suite",
       &make_abl_fp_corner},
      {"abl_stability", "IPC vs window (sweep -n/--warmup into one store)",
       &make_abl_stability},
  };
  return campaigns;
}

const BuiltinCampaign* find_campaign(const std::string& name) {
  for (const auto& c : builtin_campaigns())
    if (c.name == name) return &c;
  return nullptr;
}

}  // namespace bsp::campaign
