#include "workloads/workloads.hpp"

#include <functional>
#include <map>
#include <stdexcept>

#include "asm/assembler.hpp"
#include "workloads/kernels.hpp"

namespace bsp {

namespace {

struct KernelDef {
  std::function<std::string(const WorkloadParams&)> generate;
  const char* description;
  double paper_branch_accuracy;  // <0: lost in the archival copy
};

const std::map<std::string, KernelDef>& registry() {
  static const std::map<std::string, KernelDef> defs = {
      {"bzip",
       {kernels::bzip,
        "block compression: sequential byte scan, run detection, frequency "
        "table updates",
        0.93}},
      {"gcc",
       {kernels::gcc,
        "compiler surrogate: pointer-chasing tree walk with data-dependent "
        "branches",
        0.90}},
      {"go",
       {kernels::go,
        "game-tree evaluation: pattern-random branches over a small board",
        0.84}},
      {"gzip",
       {kernels::gzip,
        "LZ window matching: rolling hash, chain heads, byte-compare inner "
        "loop",
        0.93}},
      {"ijpeg",
       {kernels::ijpeg,
        "integer DCT butterflies: long add/sub/shift dependence chains",
        0.93}},
      {"li",
       {kernels::li,
        "lisp interpreter: cons-cell mark loop (the paper's Figure 5 idiom)",
        0.95}},
      {"mcf",
       {kernels::mcf,
        "network simplex surrogate: dependent scattered loads over 1 MB",
        0.98}},
      {"parser",
       {kernels::parser,
        "dictionary lookups: hash probe plus collision-chain walk",
        -1.0}},  // Table 1's value did not survive the archival text
      {"twolf",
       {kernels::twolf,
        "placement/annealing: random small-record read-modify-write",
        0.93}},
      {"vortex",
       {kernels::vortex,
        "OO database: Figure 9 address-generation chain and store-to-load "
        "forwarding",
        0.89}},
      {"vpr",
       {kernels::vpr,
        "routing: grid random walk with rarely-taken bounds checks",
        0.96}},
  };
  return defs;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "bzip", "gcc",    "go",    "gzip",   "ijpeg", "li",
      "mcf",  "parser", "twolf", "vortex", "vpr"};
  return names;
}

std::string workload_source(const std::string& name,
                            const WorkloadParams& params) {
  const auto it = registry().find(name);
  if (it == registry().end())
    throw std::runtime_error("unknown workload: " + name);
  return it->second.generate(params);
}

WorkloadInfo workload_info(const std::string& name) {
  const auto it = registry().find(name);
  if (it == registry().end())
    throw std::runtime_error("unknown workload: " + name);
  WorkloadInfo info;
  info.name = name;
  info.description = it->second.description;
  if (it->second.paper_branch_accuracy >= 0)
    info.paper_branch_accuracy = it->second.paper_branch_accuracy;
  return info;
}

Workload build_workload(const std::string& name,
                        const WorkloadParams& params) {
  Workload w;
  w.info = workload_info(name);
  AsmResult r = assemble(workload_source(name, params));
  if (!r.ok())
    throw std::runtime_error("workload '" + name +
                             "' failed to assemble:\n" + r.error_text());
  w.program = std::move(r.program);
  return w;
}

}  // namespace bsp
