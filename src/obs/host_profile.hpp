// Host-phase profiling: where does the simulator's *host* time go?
//
// `SimStats::host_seconds` says how long the cycle loop ran; this breaks
// that wall-clock down by scheduler phase so a BENCH_simcore.json
// regression can be attributed ("commit got slower") instead of
// merely observed. Opt-in (`Simulator::enable_host_profile()`): the
// per-phase `steady_clock` reads cost real nanoseconds per simulated
// cycle, so the default run keeps the loop clean and `enabled` false.
//
// Phase buckets mirror the cycle loop's stage order. `replay` (the
// relaxation pass reverting illegal selects) is *nested inside* `memory`
// and must not be double-counted when summing; total() therefore sums the
// six top-level phases only.
#pragma once

#include <array>

#include "util/bitops.hpp"

namespace bsp::obs {

struct HostProfile {
  bool enabled = false;

  // Top-level phases, in pipeline-stage order (seconds of host time).
  double commit = 0;    // retire + commit-stream check
  double resolve = 0;   // branch resolution + recovery
  double select = 0;    // wakeup/select + slice-op execute
  double memory = 0;    // LSQ disambiguation + cache access/verify
                        // (includes replay)
  double dispatch = 0;  // RUU/LSQ insert + rename + oracle step
  double fetch = 0;     // front-end fetch/predict

  // Always 0: the commit-stream check is O(1) and untimed. Kept so stored
  // records keep their "host_phases" keys.
  double cosim = 0;
  // Nested sub-phase (already counted in memory above).
  double replay = 0;    // selective-replay relaxation  (subset of memory)

  // Pre-loop phase: functional fast-forward to the task's start checkpoint
  // (campaign tasks with fast_forward > 0; 0 on a checkpoint-cache hit).
  // Happens before the cycle loop, so it is outside total() — total()
  // remains "seconds inside the instrumented loop".
  double ffwd = 0;

  // Simulated cycles the instrumented loop executed (idle skips count as
  // one loop iteration, not their skipped length) — denominator for
  // ns-per-loop-cycle reporting.
  u64 loop_cycles = 0;

  double total() const {
    return commit + resolve + select + memory + dispatch + fetch;
  }

  // Accumulates another run's profile (phase sums; enabled if either side
  // was). Host time is additive across runs whether they executed serially
  // or in parallel — the sum is total CPU time spent, not wall clock.
  void merge(const HostProfile& other);
};

// Every phase by its record key, in the order the campaign store writes its
// "host_phases" object (loop_cycles, a count, follows them there): the one
// list the store's writer and reader and merge() walk.
struct HostPhaseDesc {
  const char* name;
  double HostProfile::*field;
};
inline constexpr std::array<HostPhaseDesc, 9> kHostPhaseFields = {{
    {"commit", &HostProfile::commit},
    {"resolve", &HostProfile::resolve},
    {"select", &HostProfile::select},
    {"memory", &HostProfile::memory},
    {"dispatch", &HostProfile::dispatch},
    {"fetch", &HostProfile::fetch},
    {"cosim", &HostProfile::cosim},
    {"replay", &HostProfile::replay},
    {"ffwd", &HostProfile::ffwd},
}};
// The two words beside the phases are `enabled` (padded) and loop_cycles.
static_assert(sizeof(HostProfile) ==
                  (kHostPhaseFields.size() + 2) * sizeof(double),
              "kHostPhaseFields must list every HostProfile phase");

inline void HostProfile::merge(const HostProfile& other) {
  enabled = enabled || other.enabled;
  for (const HostPhaseDesc& p : kHostPhaseFields)
    this->*p.field += other.*p.field;
  loop_cycles += other.loop_cycles;
}

}  // namespace bsp::obs
