// Internal: per-benchmark assembly generators. Exposed for white-box tests;
// applications should use workloads.hpp.
#pragma once

#include <string>

#include "workloads/workloads.hpp"

namespace bsp::kernels {

std::string bzip(const WorkloadParams& p);
std::string gcc(const WorkloadParams& p);
std::string go(const WorkloadParams& p);
std::string gzip(const WorkloadParams& p);
std::string ijpeg(const WorkloadParams& p);
std::string li(const WorkloadParams& p);
std::string mcf(const WorkloadParams& p);
std::string parser(const WorkloadParams& p);
std::string twolf(const WorkloadParams& p);
std::string vortex(const WorkloadParams& p);
std::string vpr(const WorkloadParams& p);
// The §6 FP/div corner-case kernel (registered, but not in the suite).
std::string fp_saxpy(const WorkloadParams& p);

}  // namespace bsp::kernels
