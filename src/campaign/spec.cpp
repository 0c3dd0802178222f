#include "campaign/spec.hpp"

#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace bsp::campaign {

const char* machine_kind_name(MachineKind k) {
  switch (k) {
    case MachineKind::Base: return "base";
    case MachineKind::Simple: return "simple";
    case MachineKind::Sliced: return "sliced";
  }
  return "?";
}

MachineConfig MachinePoint::build() const {
  MachineConfig cfg = kind == MachineKind::Simple
                          ? simple_pipelined_machine(slices)
                      : kind == MachineKind::Sliced
                          ? bitsliced_machine(slices, techniques)
                          : base_machine();
  std::string error;
  if (!apply_overrides(cfg, overrides, &error))
    throw std::invalid_argument(error);
  return cfg;
}

std::string MachinePoint::key() const {
  std::ostringstream os;
  os << machine_kind_name(kind);
  if (kind != MachineKind::Base) os << "-x" << slices;
  if (kind == MachineKind::Sliced) os << "-t0x" << std::hex << techniques;
  if (!overrides.empty()) os << "+" << overrides;
  return os.str();
}

std::string TaskSpec::id() const {
  std::ostringstream os;
  os << campaign << "/" << workload << "/seed=0x" << std::hex << seed
     << std::dec << "/" << machine.key() << "/n=" << instructions
     << "/w=" << warmup;
  if (fast_forward != 0) os << "/ff=" << fast_forward;
  if (sample_intervals > 0)
    os << "/k=" << sample_intervals << "/sw=" << sample_warmup;
  return os.str();
}

std::set<u64> checkpoint_offsets(const TaskSpec& task) {
  std::set<u64> offsets = {task.fast_forward};  // interval 0's offset too
  if (task.sample_intervals > 0)
    for (const sampling::IntervalSpec& iv :
         sampling::plan_intervals(task.instructions, task.warmup,
                                  task.fast_forward, task.sample_intervals,
                                  task.sample_warmup)
             .intervals)
      offsets.insert(iv.offset);
  offsets.erase(0);
  return offsets;
}

std::vector<TaskSpec> SweepSpec::expand() const {
  std::vector<TaskSpec> tasks;
  std::unordered_set<std::string> seen;
  for (const auto& workload : workloads) {
    for (const u64 seed : seeds) {
      for (const auto& machine : machines) {
        TaskSpec t;
        t.campaign = name;
        t.workload = workload;
        t.seed = seed;
        t.machine = machine;
        t.instructions = instructions;
        t.warmup = warmup;
        t.fast_forward = fast_forward;
        t.sample_intervals = sample_intervals;
        t.sample_warmup = sample_warmup;
        if (seen.insert(t.id()).second) tasks.push_back(std::move(t));
      }
    }
  }
  return tasks;
}

}  // namespace bsp::campaign
