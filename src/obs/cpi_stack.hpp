// Top-down CPI-stack cycle accounting over the simulator's commit slots.
//
// The scheduler core charges every cycle x commit-width slot of a measured
// run to exactly one leaf of the stall taxonomy below (the charging rules
// live in core/simulator.cpp and are documented in ARCHITECTURE.md §13).
// This header names the taxonomy once — enum, leaf registry (name, group,
// SimStats member), identity checker and text renderer — so the simulator,
// the CLIs, the campaign report and the tests all agree on it.
//
// Hard invariant, enabled runs only:
//   sum over leaves of SimStats::cpi_*  ==  SimStats::cycles * commit_width
// exactly and deterministically (bit-identical across reruns). Disabled
// runs leave every leaf at zero, so the identity degenerates to 0 == 0
// only when cycles == 0 — use cpi_enabled() to tell the cases apart.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.hpp"

namespace bsp::obs {

// One leaf per distinct "why did this commit slot not retire an
// instruction" answer (plus Base for the slots that did). Enum order is
// the report order and follows the cpi_* block in simstats_counters(),
// which also holds the reserved, never-charged cpi_spec_forward.
enum class CpiCause : u8 {
  Base = 0,     // useful slot: an instruction retired
  FeIcache,     // front end stalled on an I-cache miss
  FeFill,       // RUU empty, front-end pipeline still filling
  BrSquash,     // post-misprediction refill (squash shadow)
  RuuFull,      // head executing while the RUU is full (window-limited)
  SliceLow,     // head waiting for its low-slice operands
  SliceChain,   // head waiting on a cross-slice carry chain
  ExecUnit,     // head op selected, execution latency in flight
  BrResolve,    // head branch computed, resolution outstanding
  LsqDisambig,  // head load blocked on LSQ address disambiguation
  Dcache,       // head load waiting on D-cache data
  PartialTag,   // partial-tag way speculation being verified
  StoreData,    // head store waiting for its address/data ops
  Drain,        // program-exit drain / end-of-measurement clamp
  Other,        // unattributed backstop (keeps the identity hard)
};

inline constexpr unsigned kNumCpiCauses =
    static_cast<unsigned>(CpiCause::Other) + 1;

struct CpiLeafDesc {
  CpiCause cause;
  const char* name;   // matches the SimStats counter name, "cpi_" prefix
  const char* group;  // coarse rollup: "base","frontend","backend","memory",
                      // "speculation","drain","other"
  const char* desc;
  u64 SimStats::* field;
};

// All leaves, indexed by static_cast<unsigned>(cause).
const std::vector<CpiLeafDesc>& cpi_leaves();

const char* cpi_cause_name(CpiCause cause);

// Sum of every leaf counter — the left side of the accounting identity.
u64 cpi_slot_total(const SimStats& s);

// True when the run carried CPI accounting (any leaf nonzero, or a
// zero-cycle run — a disabled run with cycles > 0 has an all-zero stack).
bool cpi_enabled(const SimStats& s);

// Checks sum(leaves) == cycles * commit_width; on failure returns false
// and, when `why` is non-null, describes the mismatch.
bool cpi_identity_holds(const SimStats& s, unsigned commit_width,
                        std::string* why = nullptr);

// A leaf's conventional CPI contribution: slots / (committed * width).
// The contributions sum to the run's true CPI, with the base leaf pinned
// at the ideal 1/width.
double cpi_contribution(u64 slots, u64 committed, unsigned commit_width);

// Multi-line human-readable stack: one row per nonzero leaf with slot
// count, CPI contribution and share, plus the identity line. Used by
// bsp-sim and bsp-report.
std::string format_cpi_stack(const SimStats& s, unsigned commit_width);

// One-line JSON object {"cpi_base":N,...,"cycles":C,"commit_width":W} in
// registry order — the machine-readable form bsp-report emits.
std::string cpi_stack_json(const SimStats& s, unsigned commit_width);

}  // namespace bsp::obs
