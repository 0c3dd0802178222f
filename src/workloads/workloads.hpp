// The benchmark suite: 11 synthetic kernels standing in for the paper's
// SPECint 95/2000 programs (Table 1). Each kernel is generated as BSP-32
// assembly and reproduces the code idioms and bottleneck structure the paper
// attributes to its namesake (see DESIGN.md §4 for the substitution
// rationale); the real SPEC binaries and reference inputs are not available
// in this environment.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "asm/program.hpp"

namespace bsp {

struct WorkloadParams {
  // Upper bound on loop iterations; kernels exit cleanly when it is reached.
  // Simulations normally cap dynamic instructions first.
  u64 iterations = 1u << 22;
  u64 seed = 0x5eedu;
};

struct WorkloadInfo {
  std::string name;
  std::string description;
  // Reference values from the paper's Table 1 where the published text
  // preserves them (branch prediction accuracy); nullopt where the archival
  // copy lost the digits.
  std::optional<double> paper_branch_accuracy;
};

struct Workload {
  WorkloadInfo info;
  Program program;
};

// The 11 benchmark names, in the paper's order. The registry also builds
// "fp_saxpy", the §6 FP/div corner-case kernel, which is not in the suite.
const std::vector<std::string>& workload_names();

// True when the registry builds `name`: one of workload_names() or
// "fp_saxpy".
bool is_workload(const std::string& name);

// Generated assembly for the kernel, its data blocks rendered as `.word`
// text (useful for tests and examples).
std::string workload_source(const std::string& name,
                            const WorkloadParams& params = {});

// Builds the kernel's image, equal to assemble(workload_source()): the
// code is assembled with each data block reserved, and the blocks' words
// are copied in without being formatted and parsed as text. Throws
// std::runtime_error on generator/assembler bugs (they are internal
// errors, not user input).
Workload build_workload(const std::string& name,
                        const WorkloadParams& params = {});

WorkloadInfo workload_info(const std::string& name);

}  // namespace bsp
