// Machine configuration: the paper's Table 2 parameters plus the bit-slice
// controls of §6/§7. Presets construct the three pipeline configurations of
// Figure 10 and the cumulative technique stacks of Figures 11/12.
#pragma once

#include <string>
#include <vector>

#include "branch/predictor.hpp"
#include "mem/cache.hpp"
#include "mem/hierarchy.hpp"

namespace bsp {

// The five partial-operand techniques, as independent switches. The paper
// enables them cumulatively in this order (Figure 12 legend, bottom-up).
enum class Technique : unsigned {
  PartialBypass = 1u << 0,  // slice-granular dependences (TIDBITS/P4 style)
  OooSlices     = 1u << 1,  // logic-op slices may execute out of order
  EarlyBranch   = 1u << 2,  // beq/bne mispredicts signalled from low slices
  EarlyLsq      = 1u << 3,  // early load-store disambiguation
  PartialTag    = 1u << 4,  // partial tag match + MRU way prediction in L1D

  // Extensions the paper suggests but does not evaluate:
  SpecForward   = 1u << 5,  // §5.1: forward store data on a unique *partial*
                            // address match, verified when the full
                            // comparison completes
  NarrowWidth   = 1u << 6,  // §6: results that are sign-extensions of their
                            // low slice release all high slices at once
                            // (significance-compression style, refs [3,6])
  SumAddressed  = 1u << 7,  // §5.2: sum-addressed memory (ref [18]) — the
                            // base+offset add is folded into the cache
                            // decoder, so a full-tag access starts at the
                            // agen's *select* rather than its completion;
                            // the paper notes it is orthogonal to partial
                            // tag matching and combinable with it
};

using TechniqueSet = unsigned;

inline constexpr TechniqueSet kNoTechniques = 0;
// The paper's evaluated configuration (Figures 11/12).
inline constexpr TechniqueSet kAllTechniques =
    static_cast<unsigned>(Technique::PartialBypass) |
    static_cast<unsigned>(Technique::OooSlices) |
    static_cast<unsigned>(Technique::EarlyBranch) |
    static_cast<unsigned>(Technique::EarlyLsq) |
    static_cast<unsigned>(Technique::PartialTag);
// Everything, including the suggested-but-unevaluated extensions.
inline constexpr TechniqueSet kExtendedTechniques =
    kAllTechniques | static_cast<unsigned>(Technique::SpecForward) |
    static_cast<unsigned>(Technique::NarrowWidth);

inline bool has_technique(TechniqueSet set, Technique t) {
  return (set & static_cast<unsigned>(t)) != 0;
}

const char* technique_name(Technique t);
// The paper's cumulative order: PartialBypass, OooSlices, EarlyBranch,
// EarlyLsq, PartialTag.
const std::vector<Technique>& technique_order();

struct CoreConfig {
  // Widths and window sizes (Table 2).
  unsigned fetch_width = 4;
  unsigned issue_width = 4;
  unsigned commit_width = 4;
  unsigned ruu_entries = 64;
  unsigned lsq_entries = 32;

  // Pipeline depth (Figure 10): 6 front-end stages (Fetch1 Fetch2 Dec1 Dec2
  // DP1 DP2) before an instruction enters the RUU, then 5 more (Sch1 Sch2
  // Sch3 Iss RF1/RF2 overlapped with select) before its first slice-op can be
  // selected; execution completes one or more cycles after select. EX is
  // therefore the 13th stage, as in the paper's 15-stage base pipeline.
  unsigned front_end_stages = 6;      // fetch -> dispatch delay
  unsigned issue_to_exec_stages = 5;  // dispatch -> earliest select delay

  // Execution-stage slicing (Figure 10): 1 = single-cycle EX (the "ideal"
  // base), 2 = two 16-bit slices, 4 = four 8-bit slices.
  unsigned slices = 1;

  // Which partial-operand techniques are enabled. Ignored when slices == 1.
  TechniqueSet techniques = kNoTechniques;

  // Functional units (Table 2).
  unsigned int_alus = 4;
  unsigned int_mul_div = 1;
  unsigned mul_latency = 3;
  unsigned div_latency = 20;
  unsigned fp_alus = 4;          // 4 FP ALUs, 2-cycle
  unsigned fp_mul_div = 1;       // 1 FP mult/div/sqrt unit, unpipelined
  unsigned fp_alu_latency = 2;
  unsigned fp_mul_latency = 4;
  unsigned fp_div_latency = 12;
  unsigned fp_sqrt_latency = 24;

  // Way-selection policy for partial tag matching (§7: MRU).
  WayPolicy way_policy = WayPolicy::MRU;

  SliceGeometry slice_geometry() const { return SliceGeometry{slices}; }
  bool sliced() const { return slices > 1; }
  bool has(Technique t) const {
    return sliced() && has_technique(techniques, t);
  }
  bool operator==(const CoreConfig&) const = default;
};

struct MachineConfig {
  CoreConfig core;
  HierarchyConfig memory;
  FrontEndPredictor::Config branch;

  // Human-readable one-line-per-parameter dump (Table 2 reproduction).
  std::string describe() const;
  bool operator==(const MachineConfig&) const = default;
};

// --- presets (Figure 10) ------------------------------------------------------

// (a) Base: single-cycle execution stage — the paper's "best case" machine.
MachineConfig base_machine();

// (b)/(c) Naive pipelining: EX takes `slices` cycles, operands stay atomic.
MachineConfig simple_pipelined_machine(unsigned slices);

// Bit-sliced machine with the given technique set. Per §7.1, slice-by-4
// raises the L1D latency to 2 cycles.
MachineConfig bitsliced_machine(unsigned slices, TechniqueSet techniques);

// Applies a comma-separated "key=value" list of edits, e.g.
// "ruu=32,lsq=16,width=2": ruu=N, lsq=N, width=N (fetch, issue and commit
// together), predictor=gshare|bimodal, way=mru|first-match|random. "" is
// no edit. False, with the reason in *error, on a bad key or value.
bool apply_overrides(MachineConfig& cfg, const std::string& overrides,
                     std::string* error = nullptr);

// Pipeline-stage listing for Figure 10 (`bsp-sim --print-config`).
std::string pipeline_diagram(const MachineConfig& cfg);

// The cumulative technique stacks of Figures 11/12 for one slice count:
// simple pipelining, then +bypass, +ooo slices, +early branch, +early lsq,
// +partial tag (the paper's order). Shared by the campaign definitions and
// the report views so both name exactly the same configurations.
struct StackPoint {
  std::string label;
  MachineConfig config;
};

std::vector<StackPoint> technique_stack(unsigned slices);

}  // namespace bsp
