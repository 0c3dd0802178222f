// Structured event tracing: the simulator's single event-emission path.
//
// The timing core used to carry one ad-hoc text trace (`tlog()` calls
// sprinkled through the hot paths). Every observable pipeline event now
// flows through one narrow funnel instead — a `TraceEvent` handed to every
// attached `TraceSink` — and the sinks decide the representation: the
// original human-readable pipe text, Chrome trace-event JSON for
// Perfetto/`chrome://tracing`, or the Konata pipeline-viewer format (see
// obs/sinks.hpp). With no sink attached the emission sites reduce to one
// predictable `if (false)` per event point, so an untraced run pays
// nothing; with sinks attached, tracing is a pure observer — it must never
// change a single timing decision (pinned by tests/test_obs.cpp).
//
// This header is deliberately dependency-light (util only): the core
// includes it without creating a core <-> obs cycle, and sinks can be
// implemented out of tree.
#pragma once

#include <string>

#include "util/bitops.hpp"

namespace bsp::obs {

// One event per interesting scheduling decision. Payload fields `a`/`b` are
// kind-specific (cycles unless noted):
//
//   kind          op_idx      a                  b
//   ------------  ----------  -----------------  ------------------------
//   Dispatch      -           -                  -          text=disasm
//   OpSelect      slice-op    done cycle         -
//   OpReplay      slice-op    -                  -          (select reverted)
//   LsqDecision   -           known addr bits    decision (0 issue,
//                                                 1 forward)
//   CacheAccess   -           spec. data cycle   known addr bits
//   CacheVerify   -           final data cycle   outcome (0 confirmed,
//                                                 1 hit-spec miss, 2 way
//                                                 mispredict, 3 miss)
//   BranchResolve -           resolve cycle      -
//   Squash        -           -                  stall cause (recovery victim)
//   Commit        -           dispatch cycle     -
//   IdleSkip      -           cycles skipped     stall cause (seq/pc unused)
//
// "stall cause" is 1 + CpiCause (obs/cpi_stack.hpp) — the CPI-stack leaf
// the span's wasted commit slots are charged to (0: unannotated, e.g. a
// pre-taxonomy producer). Sinks render it as the leaf name so traces and
// CPI stacks agree on attribution.
enum class EventKind : u8 {
  Dispatch,
  OpSelect,
  OpReplay,
  LsqDecision,
  CacheAccess,
  CacheVerify,
  BranchResolve,
  Squash,
  Commit,
  IdleSkip,
};

// Event flags (meaning depends on kind; unrelated bits stay 0).
inline constexpr u32 kFlagBogus = 1u << 0;        // wrong-path entry
inline constexpr u32 kFlagMispredicted = 1u << 1; // branch disagrees w/ oracle
inline constexpr u32 kFlagEarly = 1u << 2;        // early resolve / early miss
inline constexpr u32 kFlagPartial = 1u << 3;      // partial-bits LSQ / tag
inline constexpr u32 kFlagMultiOp = 1u << 4;      // entry is per-slice ops
inline constexpr u32 kFlagReplay = 1u << 5;       // outcome forced a replay

struct TraceEvent {
  EventKind kind{};
  u64 cycle = 0;
  u64 seq = 0;   // instruction sequence number (0: not instruction-bound)
  u32 pc = 0;
  u32 flags = 0;
  u32 op_idx = 0;
  u64 a = 0;
  u64 b = 0;
  // Dispatch only: disassembly. Borrowed — valid for the duration of the
  // event() call; sinks that need it later must copy.
  const char* text = nullptr;
};

// Run-level context handed to sinks before the first event.
struct TraceMeta {
  unsigned slices = 1;
  std::string config;  // MachineConfig::describe(), possibly multi-line
};

// Sink contract: begin() once before any event, event() in emission order
// (cycle-monotonic — within a cycle, in pipeline-stage order: commit,
// resolve, select, memory, dispatch, fetch), end() once after the last.
// Sinks observe; they must not throw into the simulator's cycle loop.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void begin(const TraceMeta&) {}
  virtual void event(const TraceEvent& ev) = 0;
  virtual void end() {}
};

}  // namespace bsp::obs
