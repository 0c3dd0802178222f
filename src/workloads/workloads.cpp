#include "workloads/workloads.hpp"

#include <cstring>
#include <map>
#include <stdexcept>

#include "asm/assembler.hpp"
#include "workloads/kernels.hpp"

namespace bsp {

namespace {

struct KernelDef {
  std::string (*generate)(const WorkloadParams&, kernels::DataBlocks*);
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
      // Outside workload_names(): the abl_fp_corner campaign's §6 kernel.
      {"fp_saxpy",
       {kernels::fp_saxpy,
        "FP/div saxpy with reduction: dataflow through full-collect units",
        -1.0}},
  };
  return defs;
}

const KernelDef& kernel(const std::string& name) {
  const auto it = registry().find(name);
  if (it == registry().end())
    throw std::runtime_error("unknown workload: " + name);
  return it->second;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "bzip", "gcc",    "go",    "gzip",   "ijpeg", "li",
      "mcf",  "parser", "twolf", "vortex", "vpr"};
  return names;
}

bool is_workload(const std::string& name) {
  return registry().count(name) != 0;
}

std::string workload_source(const std::string& name,
                            const WorkloadParams& params) {
  return kernel(name).generate(params, nullptr);
}

WorkloadInfo workload_info(const std::string& name) {
  const KernelDef& def = kernel(name);
  WorkloadInfo info;
  info.name = name;
  info.description = def.description;
  if (def.paper_branch_accuracy >= 0)
    info.paper_branch_accuracy = def.paper_branch_accuracy;
  return info;
}

Workload build_workload(const std::string& name,
                        const WorkloadParams& params) {
  Workload w;
  w.info = workload_info(name);
  kernels::DataBlocks blocks;
  AsmResult r = assemble(kernel(name).generate(params, &blocks));
  if (!r.ok())
    throw std::runtime_error("workload '" + name +
                             "' failed to assemble:\n" + r.error_text());
  w.program = std::move(r.program);
  // The source reserved each block at its label; fill it in place.
  Program& prog = w.program;
  for (const kernels::DataBlock& b : blocks) {
    const std::size_t bytes = b.words.size() * sizeof(u32);
    const std::size_t offset = prog.symbol(b.label) - prog.data_base;
    if (!prog.has_symbol(b.label) || offset % sizeof(u32) != 0 ||
        offset > prog.data.size() || bytes > prog.data.size() - offset)
      throw std::runtime_error("workload '" + name + "': data block '" +
                               b.label + "' is not reserved in its data");
    // Little-endian host == little-endian target, as for `.word`.
    std::memcpy(prog.data.data() + offset, b.words.data(), bytes);
  }
  return w;
}

}  // namespace bsp
