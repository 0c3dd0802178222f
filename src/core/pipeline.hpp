// In-flight instruction state for the bit-sliced out-of-order core.
//
// The core uses a unified RUU (register update unit: ROB + issue window, as
// in SimpleScalar's sim-outorder) plus a unified load/store queue. Each RUU
// entry carries per-slice-op scheduling state; values are supplied by the
// dispatch-time oracle emulator, timing is decided here.
#pragma once

#include <array>
#include <deque>
#include <vector>

#include "core/sliced_value.hpp"
#include "emu/emulator.hpp"
#include "obs/host_profile.hpp"
#include "stats/stats.hpp"

namespace bsp {

// Rename-map ids are the ISA's extended-register ids: GPRs, HI, LO, the FP
// registers, and the FP condition flag (see isa.hpp kExt*).
inline constexpr unsigned kHiReg = kExtHi;
inline constexpr unsigned kLoReg = kExtLo;
inline constexpr unsigned kNumRenameRegs = kNumExtRegs;

// Reference to a producing RUU entry; an entry index is only trusted while
// the sequence numbers still agree (entries are recycled after commit).
struct ProducerRef {
  int index = -1;  // -1: value comes from the architectural register file
  u64 seq = 0;

  bool from_regfile() const { return index < 0; }
};

// One schedulable micro-operation: a bit-slice of an instruction's execution
// (or the whole instruction for full-collect classes / unsliced machines).
// The simulator keeps these as struct-of-arrays slabs indexed by RUU slot
// (select and done cycles in separate dense arrays) rather than embedded in
// RuuEntry; this struct remains the conceptual unit and is still used by
// standalone scheduling helpers/tests.
struct SliceOp {
  Cycle select_cycle = kNever;  // cycle the scheduler picked it
  Cycle done_cycle = kNever;    // cycle its result slice(s) broadcast

  bool selected() const { return select_cycle != kNever; }
  bool done_by(Cycle now) const { return done_cycle <= now; }
  void reset() { select_cycle = done_cycle = kNever; }
};

// Result-time class of an entry, fixed at dispatch: which completion time(s)
// a consumer of slice `k` of the result must wait for. Collapses the
// per-wakeup branching over (is-load, exec class, op count, narrow-width)
// into one dense switch on the hottest path in the simulator.
enum : u8 {
  kResSliced = 0,  // slice k available at ops[k].done
  kResLoad,        // all slices at data_cycle (loads)
  kResLast,        // all slices at the last op's done (compares)
  kResSingle,      // one op: everything at ops[0].done
  kResNarrow,      // narrow-width release: every slice at ops[0].done
};

// Dispatch-invariant schedule shape of one static instruction (one text
// word), predecoded once at Simulator construction under the machine's
// slice geometry and technique set. Dispatch copies a few bytes out of this
// row instead of re-deriving class, order, latency, rename ids and
// source-need masks per dynamic instance — those per-dispatch lookups
// (slice_order / needed_source_slices / reads_amount_slice0 and friends)
// dominated dispatch-phase profiles.
struct StaticInst {
  // Flat predicate bits; the per-cycle state machines branch on these
  // instead of re-deriving ExecClass properties through the op-info table.
  enum : u16 {
    kFlagLoad = 1u << 0,
    kFlagStore = 1u << 1,
    kFlagMem = 1u << 2,
    kFlagControl = 1u << 3,
    kFlagCondBranch = 1u << 4,   // includes FP branches
    kFlagJumpReg = 1u << 5,
    kFlagWritesHiLo = 1u << 6,
    kFlagIntMulDiv = 1u << 7,    // single unpipelined integer mul/div unit
    kFlagFpMulDiv = 1u << 8,     // single unpipelined FP mul/div/sqrt unit
    kFlagFpAlu = 1u << 9,        // FP ALU pool (incl. FP compare/branch)
    kFlagNarrowCand = 1u << 10,  // NarrowWidth on, non-FP register dest:
                                 // dispatch runs the dynamic narrow test
    kFlagEarlyEq = 1u << 11,     // multi-op BranchEq under EarlyBranch:
                                 // resolve_time walks the compare slices
    kFlagWatched = 1u << 12,     // cond branch or jr: joins branch_watch
  };

  DecodedInst inst;
  u16 flags = 0;
  u8 kind = 0;            // ExecClass, dense for flat switches
  u8 num_ops = 1;         // slice-ops (geometry count) or 1 (collect)
  u16 op_latency = 1;     // cycles from select to done, per op
  SliceOrder order = SliceOrder::Collect;
  u8 res_kind = kResSliced;  // static part; narrow upgraded at dispatch
  u8 src1_ext = 0, src2_ext = 0, dest_ext = 0;  // rename-map ids
  u8 hilo_src = 0;        // HI/LO source rename id (mfhi/mflo), 0: none
  // Source-slice need masks, [op_idx][which] (0=src1, 1=src2, 2=HI/LO);
  // a pure function of (opcode, slice order, geometry, techniques).
  std::array<std::array<u32, 3>, kMaxSlices> need{};
};

// Progress of a load/store through the memory system.
enum class MemPhase : u8 {
  Agen,      // effective address still being generated / LSQ undecided
  Access,    // (loads) cache access in flight, data time is speculative
  Done,      // data final (loads) / address+data complete (stores)
};

struct RuuEntry {
  // --- hot scheduler header --------------------------------------------------
  // Everything the wakeup/select/replay loops read when this entry is
  // consulted as a producer lives up front, so a producer probe touches the
  // entry's first cache line only (the per-op select/done cycles are
  // struct-of-arrays slabs in the simulator, indexed by RUU slot).
  bool valid = false;
  bool bogus = false;      // wrong-path: occupies resources, no effects
  u8 res_kind = kResSliced;  // result-time class (kRes*), fixed at dispatch
  u8 num_ops = 1;            // slice-ops (geometry count) or 1 (collect)
  SliceOrder order = SliceOrder::Collect;
  u16 flags = 0;             // StaticInst flag bits, copied at dispatch
  u16 op_latency = 1;        // cycles from select to done, per op
  u64 seq = 0;
  Cycle data_cycle = kNever;  // load data availability (speculative
                              // until verified)
  Cycle ready_floor = 0;      // dispatch_cycle + issue_to_exec_stages
  // Register sources resolved at dispatch: [0]=src1, [1]=src2, [2]=HI/LO.
  std::array<ProducerRef, 3> sources;
  const StaticInst* si = nullptr;  // predecoded row (source-need masks,
                                   // rename ids)

  // --- cold state ------------------------------------------------------------
  u32 pc = 0;
  DecodedInst inst;
  ExecRecord oracle;       // architectural effects (valid when !bogus)
  Cycle dispatch_cycle = 0;

  // --- memory state (loads & stores) ---
  MemPhase mem_phase = MemPhase::Agen;
  Cycle lsq_decision_cycle = kNever;  // when the LSQ let the load proceed
  Cycle access_start_cycle = kNever;  // cache probe start (loads)
  bool data_final = false;            // verification complete
  bool forwarded = false;             // data came from an older store
  int forward_store = -1;             // RUU index of that store
  u64 forward_store_seq = 0;
  bool used_partial_lsq = false;      // issued before full address compare
  bool used_partial_tag = false;      // accessed cache with partial tag
  bool early_miss = false;            // partial tag proved a miss early
  int predicted_way = -1;             // way-predictor choice; -2 marks a
                                      // plain hit-speculated miss, -3 a
                                      // speculative partial-match forward
  Cycle true_data_cycle = kNever;     // actual data time on a known miss
  u32 spec_forward_value = 0;         // value forwarded speculatively
  bool narrow_result = false;         // result is a sign-extension of its
                                      // low slice (NarrowWidth extension)

  // --- control state (branches/jumps) ---
  bool predicted_taken = false;
  u32 predicted_target = 0;
  u32 history_checkpoint = 0;  // gshare history at prediction time
  bool mispredicted = false;     // prediction disagrees with the oracle
  bool resolved = false;
  Cycle resolve_cycle = kNever;
  bool recovery_done = false;    // flush+redirect already performed
  bool caused_exit = false;      // oracle executed SYS_EXIT at this entry's
                                 // dispatch (drives commit-time exit when
                                 // the co-sim checker is off)

  // --- rename undo log ---
  // The map entries this instruction displaced at dispatch. Recovery walks
  // the squashed tail youngest-first restoring these, which rebuilds the
  // rename map in O(squashed) instead of O(RUU). A restored reference may
  // point at a producer that has since committed; such a stale reference
  // fails its sequence check everywhere it is consulted and therefore
  // behaves exactly like a from-regfile (always-ready) source.
  ProducerRef prev_dest;
  ProducerRef prev_hi;
  ProducerRef prev_lo;

  bool is_load() const { return !bogus ? oracle.is_load : inst.is_load(); }
  bool is_store() const { return !bogus ? oracle.is_store : inst.is_store(); }

  // Dispatch-time reset: clears exactly the fields a recycled slot could
  // otherwise leak into the new incarnation. Everything not listed is
  // either written unconditionally by dispatch before any read (valid,
  // bogus, seq, pc, si, inst, flags/num_ops/op_latency/order/res_kind,
  // ready_floor, dispatch_cycle, sources[0..1], prediction state from the
  // fetch slot) or only ever read behind a guard that dispatch re-arms
  // (prev_* behind dest/hi-lo renames, forward_store_seq and
  // spec_forward_value behind `forwarded`/way markers, narrow_result
  // behind the narrow-candidate branch). Clearing the whole entry instead
  // is correct but rewrites ~3 cache lines of cold state per dispatch.
  void reset_for_dispatch() {
    data_cycle = kNever;
    sources[2] = ProducerRef{};
    mem_phase = MemPhase::Agen;
    lsq_decision_cycle = kNever;
    access_start_cycle = kNever;
    data_final = false;
    forwarded = false;
    forward_store = -1;
    used_partial_lsq = false;
    used_partial_tag = false;
    early_miss = false;
    predicted_way = -1;
    true_data_cycle = kNever;
    mispredicted = false;
    resolved = false;
    resolve_cycle = kNever;
    recovery_done = false;
    caused_exit = false;
  }
};

// A pre-decoded instruction travelling down the front end: a pointer into
// the static-instruction table plus per-fetch prediction state (the front
// end no longer copies a DecodedInst per slot per cycle).
struct FetchSlot {
  u32 pc = 0;
  const StaticInst* si = nullptr;
  Cycle dispatch_ready = 0;  // earliest cycle it can enter the RUU
  bool predicted_taken = false;
  u32 predicted_target = 0;
  u32 history_checkpoint = 0;
};

// Aggregate counters reported after a timing run.
struct SimStats {
  u64 cycles = 0;
  u64 committed = 0;
  u64 dispatched = 0;
  u64 bogus_dispatched = 0;

  u64 branches = 0;             // committed conditional branches
  u64 branch_mispredicts = 0;
  u64 early_resolved_branches = 0;  // mispredicts signalled before last slice

  u64 loads = 0;
  u64 stores = 0;
  u64 load_forwards = 0;
  u64 loads_issued_partial_lsq = 0;
  u64 partial_tag_accesses = 0;
  u64 way_mispredicts = 0;      // partial-tag way prediction replays
  u64 early_miss_detects = 0;
  u64 load_replays = 0;         // any load-latency mis-speculation replay
  u64 op_replays = 0;           // slice-ops squashed by selective replay
  u64 spec_forwards = 0;        // speculative partial-match forwards tried
  u64 spec_forward_misses = 0;  // ... that verification refuted
  u64 narrow_operands = 0;      // results eligible for narrow-width release

  u64 l1d_hits = 0;
  u64 l1d_misses = 0;

  // --- simulator-throughput accounting -------------------------------------
  // `idle_cycles_skipped` counts simulated cycles the event-driven scheduler
  // fast-forwarded because nothing could happen (see ARCHITECTURE.md §"Event-
  // driven scheduling"); it is deterministic for a given config + program.
  // `host_seconds` is the wall-clock time Simulator::run spent in its cycle
  // loop. It is host-side only: equivalence comparisons must ignore it, and
  // the campaign store records it next to duration_ms rather than with the
  // architectural counters.
  u64 idle_cycles_skipped = 0;

  // --- CPI-stack cycle accounting (obs/cpi_stack.hpp) ----------------------
  // Per-commit-slot attribution, filled only when Simulator::
  // enable_cpi_stack() was called (all-zero otherwise, keeping the disabled
  // path bit-identical to the equivalence goldens). Unit: commit slots —
  // one cycle of one commit port. When enabled the leaves obey the exact
  // identity  sum(cpi_*) == cycles * commit_width;  cpi_base counts slots
  // that retired an instruction inside the measured window (it can trail
  // `committed` by up to one commit batch when the run crosses the warm-up
  // boundary or ends mid-cycle — see ARCHITECTURE.md §13). Every leaf is a
  // plain registered u64, so merge(), the campaign store and the interval
  // sampler handle them like any other counter.
  u64 cpi_base = 0;          // useful slots: an instruction retired
  u64 cpi_fe_icache = 0;     // front end stalled on an I-cache miss
  u64 cpi_fe_fill = 0;       // front-end refill: RUU empty, pipe filling
  u64 cpi_br_squash = 0;     // post-misprediction refill (squash shadow)
  u64 cpi_ruu_full = 0;      // head executing while the RUU is full
  u64 cpi_slice_low = 0;     // head waiting for its low-slice operands
  u64 cpi_slice_chain = 0;   // head waiting on a cross-slice carry chain
  u64 cpi_exec_unit = 0;     // head op selected, execution in flight
  u64 cpi_br_resolve = 0;    // head branch done, resolution outstanding
  u64 cpi_lsq_disambig = 0;  // head load blocked on LSQ disambiguation
  u64 cpi_dcache = 0;        // head load waiting on D-cache data
  u64 cpi_partial_tag = 0;   // partial-tag speculation being verified
  u64 cpi_spec_forward = 0;  // speculative partial-match forward pending
  u64 cpi_store_data = 0;    // head store waiting for address/data
  u64 cpi_drain = 0;         // program exit drain / end-of-measurement
  u64 cpi_other = 0;         // unattributed (kept for the hard identity)

  double host_seconds = 0.0;
  // Per-phase breakdown of host_seconds (zero / disabled unless
  // Simulator::enable_host_profile() was called). Host-side only, like
  // host_seconds: excluded from equivalence comparisons.
  obs::HostProfile host_profile;

  double ipc() const {
    return cycles ? static_cast<double>(committed) / cycles : 0.0;
  }
  double branch_accuracy() const {
    return branches
               ? 1.0 - static_cast<double>(branch_mispredicts) / branches
               : 1.0;
  }
  double way_mispredict_rate() const {
    return partial_tag_accesses
               ? static_cast<double>(way_mispredicts) / partial_tag_accesses
               : 0.0;
  }
  double load_fraction() const {
    return committed ? static_cast<double>(loads) / committed : 0.0;
  }

  // Accumulates another run's counters into this one — the sampled-
  // simulation stitcher's primitive (src/sampling/). Every registered u64
  // counter (obs/interval.hpp registry, so a newly added counter merges
  // automatically) is summed; merging the per-interval stats of a sharded
  // run in any order reproduces what one monolithic accumulation would have
  // counted. `host_seconds` is also summed, which makes the merged value
  // the *serial* host cost (sum over intervals, i.e. total CPU time); the
  // wall clock of a parallel sampled run is the max over concurrent
  // intervals plus the prewarm and is reported separately by the sampling
  // engine (SampledResult::wall_sec) — never read merged host_seconds as
  // elapsed time. host_profile phases sum likewise (CPU time, not wall).
  // Defined in core/stats_merge.cpp.
  void merge(const SimStats& other);

  // Simulated commits (cycles) retired per host-second: the simulator-
  // throughput figures the campaign engine reports.
  double commits_per_host_second() const {
    return host_seconds > 0 ? static_cast<double>(committed) / host_seconds
                            : 0.0;
  }
  double cycles_per_host_second() const {
    return host_seconds > 0 ? static_cast<double>(cycles) / host_seconds
                            : 0.0;
  }
};

// Optional per-cycle/per-event histograms (Simulator::enable_detail()):
// queue occupancies, load-to-use latencies and branch resolution delays —
// the distributions behind the headline IPC numbers.
struct DetailedStats {
  Histogram ruu_occupancy{64};         // sampled every cycle
  Histogram lsq_occupancy{32};
  Histogram load_to_use{200};          // load data time - dispatch cycle
  Histogram branch_resolve_delay{100}; // resolve cycle - dispatch cycle
  Histogram commit_width{4};           // commits per cycle
  Histogram idle_skip_length{256};     // cycles jumped per idle-skip event

  // Folds another run's distributions into this one (per-histogram sample
  // union); used when stitching per-interval detail stats.
  void merge(const DetailedStats& other) {
    ruu_occupancy.merge(other.ruu_occupancy);
    lsq_occupancy.merge(other.lsq_occupancy);
    load_to_use.merge(other.load_to_use);
    branch_resolve_delay.merge(other.branch_resolve_delay);
    commit_width.merge(other.commit_width);
    idle_skip_length.merge(other.idle_skip_length);
  }
};

}  // namespace bsp
