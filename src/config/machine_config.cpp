#include "config/machine_config.hpp"

#include <algorithm>
#include <sstream>

namespace bsp {

const char* technique_name(Technique t) {
  switch (t) {
    case Technique::PartialBypass: return "partial operand bypassing";
    case Technique::OooSlices: return "out-of-order slices";
    case Technique::EarlyBranch: return "early branch resolution";
    case Technique::EarlyLsq: return "early l/s disambiguation";
    case Technique::PartialTag: return "partial tag matching";
    case Technique::SpecForward: return "speculative partial forwarding";
    case Technique::NarrowWidth: return "narrow-width slice relaxation";
    case Technique::SumAddressed: return "sum-addressed memory";
  }
  return "?";
}

const std::vector<Technique>& technique_order() {
  static const std::vector<Technique> order = {
      Technique::PartialBypass, Technique::OooSlices, Technique::EarlyBranch,
      Technique::EarlyLsq, Technique::PartialTag};
  return order;
}

std::string MachineConfig::describe() const {
  std::ostringstream os;
  os << "out-of-order: " << core.fetch_width << "-wide fetch/issue/commit, "
     << core.ruu_entries << "-entry RUU, " << core.lsq_entries
     << "-entry LSQ\n";
  os << "pipeline: " << core.front_end_stages << " front-end + "
     << core.issue_to_exec_stages << " issue/RF + " << core.slices
     << " EX stage(s)\n";
  os << "branch: " << (branch.use_bimodal ? "bimodal" : "gshare") << " "
     << (branch.use_bimodal ? branch.bimodal_entries : branch.gshare_entries)
     << " entries, " << branch.ras_depth << "-entry RAS, " << branch.btb_ways
     << "-way " << branch.btb_sets << "-set BTB\n";
  const auto cache_line = [&](const char* name, const CacheGeometry& g,
                              unsigned lat) {
    os << name << ": " << g.size_bytes / 1024 << "KB (" << g.ways << "-way, "
       << g.line_bytes << "B line), " << lat << "-cycle\n";
  };
  cache_line("L1 I$", memory.l1i, memory.l1i_latency);
  cache_line("L1 D$", memory.l1d, memory.l1d_latency);
  cache_line("L2 unified", memory.l2, memory.l2_latency);
  os << "main memory: " << memory.memory_latency << "-cycle latency\n";
  os << "FUs: " << core.int_alus << " int ALU (per-slice), "
     << core.int_mul_div << " int mult/div (" << core.mul_latency << "/"
     << core.div_latency << "-cycle), " << core.fp_alus << " FP ALU ("
     << core.fp_alu_latency << "-cycle), " << core.fp_mul_div
     << " FP mult/div/sqrt (" << core.fp_mul_latency << "/"
     << core.fp_div_latency << "/" << core.fp_sqrt_latency << "-cycle)\n";
  if (core.sliced()) {
    os << "bit-slicing: " << core.slices << " x "
       << core.slice_geometry().width() << "-bit slices; techniques:";
    bool any = false;
    for (const auto t :
         {Technique::PartialBypass, Technique::OooSlices,
          Technique::EarlyBranch, Technique::EarlyLsq, Technique::PartialTag,
          Technique::SpecForward, Technique::NarrowWidth,
          Technique::SumAddressed}) {
      if (core.has(t)) {
        os << (any ? ", " : " ") << technique_name(t);
        any = true;
      }
    }
    if (!any) os << " none (simple pipelining)";
    os << "\n";
  }
  return os.str();
}

MachineConfig base_machine() {
  return MachineConfig{};  // defaults are Table 2 with a 1-cycle EX
}

MachineConfig simple_pipelined_machine(unsigned slices) {
  MachineConfig cfg = base_machine();
  cfg.core.slices = slices;
  cfg.core.techniques = kNoTechniques;
  if (slices >= 4) cfg.memory.l1d_latency = 2;  // §7.1
  return cfg;
}

MachineConfig bitsliced_machine(unsigned slices, TechniqueSet techniques) {
  MachineConfig cfg = simple_pipelined_machine(slices);
  cfg.core.techniques = techniques;
  return cfg;
}

namespace {

bool parse_count(const std::string& v, unsigned* out) {
  if (v.empty() || v.size() > 6 ||
      v.find_first_not_of("0123456789") != std::string::npos)
    return false;
  *out = static_cast<unsigned>(std::stoul(v));
  return *out > 0;
}

// One row per override key: how `key=value` edits a MachineConfig.
struct OverrideKey {
  const char* key;
  bool (*apply)(MachineConfig& cfg, const std::string& value);
};

const OverrideKey kOverrideKeys[] = {
    {"ruu",
     [](MachineConfig& c, const std::string& v) {
       return parse_count(v, &c.core.ruu_entries);
     }},
    {"lsq",
     [](MachineConfig& c, const std::string& v) {
       return parse_count(v, &c.core.lsq_entries);
     }},
    {"width",
     [](MachineConfig& c, const std::string& v) {
       unsigned w = 0;
       if (!parse_count(v, &w)) return false;
       c.core.fetch_width = c.core.issue_width = c.core.commit_width = w;
       return true;
     }},
    {"predictor",
     [](MachineConfig& c, const std::string& v) {
       if (v != "gshare" && v != "bimodal") return false;
       c.branch.use_bimodal = v == "bimodal";
       return true;
     }},
    {"way",
     [](MachineConfig& c, const std::string& v) {
       const std::string names[] = {"mru", "first-match", "random"};
       const auto i = std::find(names, names + 3, v) - names;
       if (i < 3) c.core.way_policy = static_cast<WayPolicy>(i);  // in order
       return i < 3;
     }},
};

}  // namespace

bool apply_overrides(MachineConfig& cfg, const std::string& overrides,
                     std::string* error) {
  if (overrides.empty()) return true;
  // Every item ends in ','; a trailing comma leaves an empty, bad item.
  std::istringstream items(overrides + ",");
  for (std::string item; std::getline(items, item, ',');) {
    const std::size_t eq = item.find('=');
    const std::string key = item.substr(0, eq);
    const OverrideKey* row = nullptr;
    for (const OverrideKey& k : kOverrideKeys)
      if (key == k.key) row = &k;
    if (eq == std::string::npos || !row ||
        !row->apply(cfg, item.substr(eq + 1))) {
      if (error) *error = "bad machine override '" + item + "'";
      return false;
    }
  }
  return true;
}

std::string pipeline_diagram(const MachineConfig& cfg) {
  std::ostringstream os;
  os << "Fetch1 Fetch2 Dec1 Dec2 DP1 DP2 Sch1 Sch2 Sch3 Iss RF1 RF2";
  if (cfg.core.slices == 1) {
    os << " EX";
  } else {
    for (unsigned s = 1; s <= cfg.core.slices; ++s) os << " EX" << s;
  }
  os << " [Mem] RE CT";
  return os.str();
}

std::vector<StackPoint> technique_stack(unsigned slices) {
  std::vector<StackPoint> stack;
  stack.push_back({"simple pipelining", simple_pipelined_machine(slices)});
  TechniqueSet set = kNoTechniques;
  for (const Technique t : technique_order()) {
    set |= static_cast<unsigned>(t);
    stack.push_back({std::string("+") + technique_name(t),
                     bitsliced_machine(slices, set)});
  }
  return stack;
}

}  // namespace bsp
