// Internal: per-benchmark assembly generators. Exposed for white-box tests;
// applications should use workloads.hpp.
#pragma once

#include <string>
#include <vector>

#include "workloads/workloads.hpp"

namespace bsp::kernels {

// One block of a kernel's initialised data: `words`, laid out from the data
// label `label`.
struct DataBlock {
  std::string label;
  std::vector<u32> words;
};
using DataBlocks = std::vector<DataBlock>;

// Each generator returns the kernel's assembly. With `binary` null, every
// data block is rendered as `.word` text (workload_source()). Otherwise the
// text only reserves each block (`.space`, same size and address) and the
// block is appended to *binary, for build_workload() to copy into
// Program::data after assembly: the words never pass through text.
std::string bzip(const WorkloadParams& p, DataBlocks* binary);
std::string gcc(const WorkloadParams& p, DataBlocks* binary);
std::string go(const WorkloadParams& p, DataBlocks* binary);
std::string gzip(const WorkloadParams& p, DataBlocks* binary);
std::string ijpeg(const WorkloadParams& p, DataBlocks* binary);
std::string li(const WorkloadParams& p, DataBlocks* binary);
std::string mcf(const WorkloadParams& p, DataBlocks* binary);
std::string parser(const WorkloadParams& p, DataBlocks* binary);
std::string twolf(const WorkloadParams& p, DataBlocks* binary);
std::string vortex(const WorkloadParams& p, DataBlocks* binary);
std::string vpr(const WorkloadParams& p, DataBlocks* binary);
// The §6 FP/div corner-case kernel (registered, but not in the suite).
std::string fp_saxpy(const WorkloadParams& p, DataBlocks* binary);

}  // namespace bsp::kernels
