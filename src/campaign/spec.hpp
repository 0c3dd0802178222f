// Declarative experiment sweeps (the campaign engine's front half).
//
// A SweepSpec is a parameter grid — machine points x workloads x seeds at a
// fixed instruction budget — that expands into a deterministic,
// duplicate-free task list. Every task carries a stable string id derived
// only from its parameters; the JSONL result store keys resume on these
// ids, so the same spec always re-expands to the same ids across runs and
// processes.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "config/machine_config.hpp"
#include "sampling/plan.hpp"

namespace bsp::campaign {

// How a task's MachineConfig is built from its parameters.
enum class MachineKind {
  Base,    // base_machine(): single-cycle EX, the paper's "best case"
  Simple,  // simple_pipelined_machine(slices): naive EX pipelining
  Sliced,  // bitsliced_machine(slices, techniques)
};

const char* machine_kind_name(MachineKind k);

// One machine column of the sweep grid.
struct MachinePoint {
  std::string label;  // display name for tables, e.g. "x2 +partial tag"
  MachineKind kind = MachineKind::Base;
  unsigned slices = 1;                      // ignored for Base
  TechniqueSet techniques = kNoTechniques;  // Sliced only
  // Edits applied on top of the preset (config/machine_config.hpp
  // apply_overrides), e.g. "ruu=32,lsq=16,width=2". "" = the preset as is.
  std::string overrides;

  // Throws std::invalid_argument on a malformed override string.
  MachineConfig build() const;
  // Canonical id fragment: "base", "simple-x2", "sliced-x2-t0x1f"; a
  // non-empty override string appends "+<overrides>" (none adds nothing,
  // so pre-existing stores resume unchanged).
  std::string key() const;
};

// One fully specified simulation: the unit the scheduler runs and the
// result store records.
struct TaskSpec {
  std::string campaign;
  std::string workload;
  u64 seed = 0x5eed;
  MachinePoint machine;
  u64 instructions = 200'000;
  u64 warmup = 300'000;
  // Instructions to fast-forward on the functional emulator before detailed
  // timing starts (the paper skips ~1B per benchmark). 0 = start at reset.
  u64 fast_forward = 0;
  // Sampled simulation (src/sampling/): the measured window split into K
  // intervals, each after `sample_warmup` discarded warm-up commits
  // (interval 0 keeps `warmup`). 0 = monolithic.
  unsigned sample_intervals = 0;
  u64 sample_warmup = sampling::kDefaultSampleWarmup;

  // Canonical unique key, e.g.
  // "fig11/li/seed=0x5eed/sliced-x2-t0x1f/n=200000/w=300000"; a nonzero
  // fast_forward appends "/ff=N" and a sampled task "/k=K/sw=N" (a
  // monolithic task at reset adds nothing, so pre-existing stores resume
  // unchanged).
  std::string id() const;
};

// The functional offsets a task's detailed timing starts from, one
// checkpoint each: {fast_forward} for a monolithic task, the distinct
// interval offsets of sampling::plan_intervals for a sampled one; offset 0
// (reset) needs none. Tasks with the same (workload, seed, offsets) share
// one set of checkpoints, in the sweep's prewarm and the runner's memo.
std::set<u64> checkpoint_offsets(const TaskSpec& task);

struct SweepSpec {
  std::string name;
  std::vector<MachinePoint> machines;
  std::vector<std::string> workloads;
  std::vector<u64> seeds = {0x5eedu};
  u64 instructions = 200'000;
  u64 warmup = 300'000;
  // Applied to every expanded task.
  u64 fast_forward = 0;
  unsigned sample_intervals = 0;
  u64 sample_warmup = sampling::kDefaultSampleWarmup;

  // Deterministic expansion: workload-major, then seed, then machine point,
  // in declaration order. Duplicate grid entries (a repeated workload, seed
  // or identical machine point) expand once — the first occurrence wins —
  // so the task list is always duplicate-free.
  std::vector<TaskSpec> expand() const;
};

}  // namespace bsp::campaign
