#include "core/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <array>
#include <chrono>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/event_wheel.hpp"
#include "core/select_order.hpp"
#include "lsq/disambig.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/interval.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "stats/stats.hpp"

namespace bsp {

namespace {

// Deadlock watchdog: abort a run if nothing commits for this many cycles,
// 100,000 or four times the longest access path, whichever is larger, so
// a healthy run at a long memory latency never trips it.
Cycle watchdog_cycles(const HierarchyConfig& m) {
  const Cycle path = std::max(m.l1i_latency, m.l1d_latency) + m.l2_latency +
                     Cycle{m.memory_latency};
  return std::max<Cycle>(100000, 4 * path);
}

// Memory ports into the L1 D-cache (load accesses started per cycle).
constexpr unsigned kDCachePorts = 2;

// Invariant build (-DBSP_CHECK_INVARIANTS=ON): every cycle, the memory and
// resolve phases also evaluate their "can this advance now?" predicate on
// each LSQ entry and branch they skipped, and fail the run on any that
// could have; the event wheel checks its own structure, and commit checks
// that nothing still waits on the retiring entry.
#ifdef BSP_CHECK_INVARIANTS
constexpr bool kCheckInvariants = true;
#else
constexpr bool kCheckInvariants = false;
#endif

// Classes whose execution can be decomposed into per-slice micro-ops.
bool is_sliceable(ExecClass cls) {
  switch (cls) {
    case ExecClass::Logic:
    case ExecClass::Add:
    case ExecClass::ShiftLeft:
    case ExecClass::ShiftRight:
    case ExecClass::Compare:
    case ExecClass::MfHiLo:
    case ExecClass::Load:
    case ExecClass::Store:
    case ExecClass::BranchEq:
    case ExecClass::BranchSign:
      return true;
    case ExecClass::Mul:
    case ExecClass::Div:
    case ExecClass::Jump:
    case ExecClass::JumpReg:
    case ExecClass::Syscall:
    case ExecClass::FpAlu:
    case ExecClass::FpMul:
    case ExecClass::FpDiv:
    case ExecClass::FpSqrt:
    case ExecClass::FpCompare:
    case ExecClass::FpBranch:
      return false;  // FP executes on full-collect units (paper §6)
  }
  return false;
}

bool uses_fp_mul_div_unit(ExecClass cls) {
  return cls == ExecClass::FpMul || cls == ExecClass::FpDiv ||
         cls == ExecClass::FpSqrt;
}

bool uses_fp_alu(ExecClass cls) {
  return cls == ExecClass::FpAlu || cls == ExecClass::FpCompare ||
         cls == ExecClass::FpBranch;
}

const MachineConfig& checked_config(const MachineConfig& config) {
  if (!config.core.slice_geometry().valid())
    throw std::invalid_argument(
        "invalid slice geometry: " + std::to_string(config.core.slices) +
        " slices (must be 1, 2, 4 or 8)");
  return config;
}

}  // namespace

struct Simulator::Impl {
  // --- construction ---------------------------------------------------------

  Impl(const MachineConfig& config, const Program& program)
      : cfg(config),
        core(cfg.core),
        geom(core.slice_geometry()),
        sliced_sched(core.has(Technique::PartialBypass)),
        sum_addressed(core.has(Technique::SumAddressed)),
        text_base(program.text_base),
        text_end(program.text_end()),
        oracle(program),
        predictor(cfg.branch),
        mem(cfg.memory),
        ruu(core.ruu_entries),
        op_sel_(core.ruu_entries * kMaxSlices, kNever),
        op_done_(core.ruu_entries * kMaxSlices, kNever),
        op_token(core.ruu_entries * kMaxSlices, 0),
        wait_stride(geom.count + 1),
        waiters(std::size_t{core.ruu_entries} * wait_stride),
        consumers(core.ruu_entries),
        relax_queued(core.ruu_entries, 0),
        ifq_capacity(std::max<unsigned>(32, 8 * core.fetch_width)),
        watchdog(watchdog_cycles(cfg.memory)) {
    lsq.init(core.lsq_entries);
    lsq_due.assign((lsq.capacity() + 63) / 64, 0);
    lsq_store_wait.assign(lsq_due.size(), 0);
    fetch_q.init(ifq_capacity + core.fetch_width);
    // Pre-size the node pools and scheduler buffers from the machine shape:
    // at most ruu_entries * geometry slice-ops are in flight, each resident
    // in exactly one waiter list / wheel slot / pending (stale refs add a
    // small constant factor), and each selected memory or branch op holds
    // at most one timed wake for the memory / resolve phases, plus one
    // verify or store-data wake per LSQ entry. Reserving here keeps the
    // steady state free of heap allocation on the dispatch/wakeup hot
    // paths; the steady-state test asserts these capacities never grow
    // (scratch_reallocations()).
    const std::size_t max_ops = std::size_t{core.ruu_entries} * geom.count;
    wait_pool.reserve(3 * max_ops + 2 * std::size_t{core.lsq_entries} + 64);
    cons_pool.reserve(4 * core.ruu_entries + 64);
    pending.reserve(2 * max_ops + 64);
    cand_scratch.reserve(2 * max_ops + 64);
    views_scratch.reserve(core.lsq_entries);
    relax_work.reserve(core.ruu_entries);
    branch_due.reserve(2 * core.ruu_entries);
    wheel.reserve_far(64);
    wake_scratch.reserve(max_ops);
    // Test-only divergence injection: BSP_COSIM_INJECT="N" advances the
    // expected step index by one at the Nth total commit, modelling an
    // entry the core lost, so the tests can pin the commit-stream check's
    // detection point without a hand-built broken core. Armed only when the
    // whole value is a positive decimal number.
    if (const char* inj = std::getenv("BSP_COSIM_INJECT")) {
      char* end = nullptr;
      const u64 at = std::strtoull(inj, &end, 10);
      if (end != inj && *end == '\0') inject_at_ = at;
    }
    rename.fill(ProducerRef{});
    fetch_pc = program.entry;
    // Dense predecoded table: one row per text word (plus a shared nop row
    // for off-image wrong-path fetches), built once under this machine's
    // geometry/techniques. Dispatch and fetch index it by pc.
    nop_si = build_static(make_nop());
    stab.reserve(program.text.size());
    stab_ok.reserve(program.text.size());
    for (const u32 raw : program.text) {
      const auto d = decode(raw);
      stab_ok.push_back(d.has_value());
      stab.push_back(d ? build_static(*d) : nop_si);
    }
    scratch_baseline_ = scratch_capacities();
  }

  // --- scratch-growth accounting -------------------------------------------
  // Capacities of every hot-path scratch vector and node pool. Snapshotted
  // at the end of construction; scratch_reallocations() counts how many
  // have since grown — any nonzero count means a steady-state reallocation
  // slipped onto the dispatch/wakeup path (pinned by the no-growth test).
  static constexpr std::size_t kScratchVecs = 9;
  std::array<std::size_t, kScratchVecs> scratch_capacities() const {
    return {wait_pool.capacity(),     cons_pool.capacity(),
            pending.capacity(),       cand_scratch.capacity(),
            views_scratch.capacity(), relax_work.capacity(),
            branch_due.capacity(),    wheel.far_capacity(),
            wake_scratch.capacity()};
  }
  std::array<std::size_t, kScratchVecs> scratch_baseline_{};
  unsigned scratch_reallocations() const {
    const auto caps = scratch_capacities();
    unsigned grown = 0;
    for (std::size_t i = 0; i < kScratchVecs; ++i)
      grown += caps[i] > scratch_baseline_[i] ? 1u : 0u;
    return grown;
  }

  const MachineConfig cfg;
  const CoreConfig& core;
  const SliceGeometry geom;
  const bool sliced_sched;
  const bool sum_addressed;  // loads may access the cache once every agen
                             // op is selected (Technique::SumAddressed)
  // Bounds of the text image the predecoded table covers; the image itself
  // lives in the oracle's memory.
  const u32 text_base;
  const u32 text_end;

  Emulator oracle;  // steps at dispatch: supplies values & outcomes

  // Commit-stream check: oracle_steps_ numbers the correct-path entries at
  // dispatch (RuuEntry::step), commit_steps_ counts commits; both run from
  // construction, warm-up included. A committing entry must be the step
  // commit_steps_ names. Pure check — it never feeds timing.
  u64 oracle_steps_ = 0;
  u64 commit_steps_ = 0;
  // BSP_COSIM_INJECT (see the constructor): 0 = no injection armed.
  u64 inject_at_ = 0;

  FrontEndPredictor predictor;
  MemoryHierarchy mem;

  // RUU: circular buffer, `head` = oldest, `count` entries in flight.
  std::vector<RuuEntry> ruu;
  unsigned ruu_head = 0;
  unsigned ruu_count = 0;

  // --- event-driven scheduler state ----------------------------------------
  // Instead of walking the whole RUU every cycle, each unselected slice-op
  // lives in exactly one of three places: the event wheel (its
  // operand-ready cycle is known), the waiter list of one operand time
  // that is still undefined, or `pending` (ready this cycle but not yet
  // selected — e.g. blocked on an issue slot or a busy unit). References are
  // validated lazily: an (index, seq, token) triple that no longer matches
  // is a dead ref and is dropped on sight, so squash/commit/replay never
  // have to search the queues.
  struct OpRef {
    unsigned idx;     // RUU index
    u64 seq;          // entry incarnation
    unsigned op_idx;  // slice-op within the entry
    u32 token;        // scheduling incarnation of that op
    // Selection-order key, precomputed at queue time: (seq << 3) | the
    // op's slice visit position. Sorting candidates by this single integer
    // reproduces the scan scheduler's oldest-entry-then-visit-order walk
    // without touching the RUU inside the comparator. (A dead ref's key is
    // frozen at its old incarnation — harmless, it is dropped on sight.)
    u64 key;
    // sched_epoch at queue time. Every path that moves a recorded time
    // *later* (replay, load retime, spec-forward miss) bumps sched_epoch,
    // and times otherwise only transition kNever -> finite (which cannot
    // raise a ready time that was already finite when this ref was
    // queued), so while the epoch still matches, the ready time computed
    // at queue time is still exact and select can skip re-deriving it.
    u64 epoch;
  };
  // Two wake kinds share the wheels, waiter lists and node pool with
  // slice-op refs, told apart by an op_idx no op has: an LSQ entry the
  // memory phase must examine, and a branch the resolve phase must check.
  // They carry no token — the entry's seq alone validates them.
  static constexpr unsigned kMemWake = kMaxSlices;
  static constexpr unsigned kBranchWake = kMaxSlices + 1;
  struct ConsumerRef {
    unsigned idx;
    u64 seq;
  };

  // --- struct-of-arrays scheduler slabs ------------------------------------
  // Per-slice-op select/done cycles and scheduling tokens live in dense
  // slabs indexed [ruu_idx * kMaxSlices + op_idx] instead of inside the
  // (large) RuuEntry: a producer probe on the wakeup path touches the
  // producer's hot header line plus one slab line, never the cold body.
  std::vector<Cycle> op_sel_;
  std::vector<Cycle> op_done_;
  // Per-op scheduling incarnation: bumped whenever the op is (re)queued or
  // selected, invalidating any refs still floating in the queues.
  std::vector<u32> op_token;

  unsigned eidx(const RuuEntry& e) const {
    return static_cast<unsigned>(&e - ruu.data());
  }
  Cycle& op_sel(unsigned idx, unsigned op) {
    return op_sel_[idx * kMaxSlices + op];
  }
  Cycle& op_done(unsigned idx, unsigned op) {
    return op_done_[idx * kMaxSlices + op];
  }
  const Cycle* op_done_row(unsigned idx) const {
    return &op_done_[idx * kMaxSlices];
  }
  bool op_selected(unsigned idx, unsigned op) const {
    return op_sel_[idx * kMaxSlices + op] != kNever;
  }
  // All slice-ops of entry `idx` complete by `c`? (kNever compares greater.)
  bool ops_done(unsigned idx, Cycle c) const {
    const Cycle* d = op_done_row(idx);
    const unsigned n = ruu[idx].num_ops;
    for (unsigned i = 0; i < n; ++i)
      if (d[i] > c) return false;
    return true;
  }
  Cycle last_op_done(unsigned idx) const {
    const Cycle* d = op_done_row(idx);
    const unsigned n = ruu[idx].num_ops;
    Cycle m = 0;
    for (unsigned i = 0; i < n; ++i) {
      if (d[i] == kNever) return kNever;
      m = std::max(m, d[i]);
    }
    return m;
  }
  void reset_ops(unsigned idx) {
    for (unsigned i = 0; i < kMaxSlices; ++i)
      op_sel(idx, i) = op_done(idx, i) = kNever;
  }

  // --- dependence-edge pools ------------------------------------------------
  // Waiter and consumer lists are NodePool lists (core/event_wheel.hpp):
  // O(1) append in registration order (replay worklist order depends on
  // it) and O(1) whole-list recycling at dispatch. The pools are reserved
  // at construction, so the steady state allocates nothing. Wheel slots
  // share the waiter pool, so a woken op's node is relinked, not copied.
  NodePool<OpRef> wait_pool;
  NodePool<ConsumerRef> cons_pool;

  // Ops blocked on one still-undefined time, one list per time: list
  // op_list(idx, k) holds ops waiting for op_done(idx, k) and
  // data_list(idx) ops waiting for load idx's data_cycle. A list is
  // consumed (detached, then walked) exactly when its time is published.
  // Entry idx owns the wait_stride lists starting at idx * wait_stride.
  const unsigned wait_stride;  // lists per RUU entry: geom.count + 1
  std::vector<NodeList> waiters;
  unsigned op_list(unsigned idx, unsigned op) const {
    return idx * wait_stride + op;
  }
  unsigned data_list(unsigned idx) const {
    return idx * wait_stride + geom.count;
  }
  bool waiters_empty(unsigned idx) const {
    for (unsigned l = 0; l < wait_stride; ++l)
      if (!waiters[idx * wait_stride + l].empty()) return false;
    return true;
  }
  // Producer entry -> dependent entries, registered at rename (plus the
  // store -> forwarded-load edges added when a forward is recorded). These
  // persist for the producer's lifetime: selective replay walks them to
  // revert only the transitive dependents of a re-timed value.
  std::vector<NodeList> consumers;
  // Every future event: ops whose computed ready cycle is in the future and
  // timed memory/branch wakes (pool nodes in the wheel's slots, or past
  // its 1,024-cycle horizon in its far tier), plus timers — cycles at
  // which something can happen without a queued ref (op completions, load
  // data returns), which the idle skip must not jump past. Within-slot
  // order is irrelevant: candidates are sorted by their unique
  // (seq, visit-pos) key before selection, and woken branches by seq.
  EventWheel<OpRef> wheel{wait_pool};
  // Ops ready at (or before) the current cycle, awaiting selection.
  std::vector<OpRef> pending;
  // Reused scratch buffers (capacity reserved at construction; the
  // steady-state test asserts they never grow).
  std::vector<OpRef> cand_scratch;
  std::vector<StoreView> views_scratch;
  // Waiter lists of the ops selected this cycle, woken after the candidate
  // walk (an op selects at most once per cycle, so no list repeats).
  std::vector<unsigned> wake_scratch;
  // Host-side scheduler event counts (Simulator::host_events()).
  HostEvents hev;
  // Correct-path branches whose resolve time may have arrived this cycle
  // (kBranchWake refs drained from the wheel), checked in seq order by
  // the resolve phase; duplicates and dead refs are skipped there.
  std::vector<ConsumerRef> branch_due;
  // Selective-replay worklist (entry indices) + membership flags.
  std::vector<unsigned> relax_work;
  std::vector<u8> relax_queued;
  // Bumped whenever replay regresses any recorded time; tells the in-cycle
  // store-view cache to rebuild and the memory phase to re-examine every
  // active LSQ entry.
  u64 sched_epoch = 0;
  // Set by any state mutation this cycle; a fully quiet cycle with no
  // same-cycle retry pending is when the idle skip may fast-forward.
  bool cycle_activity = false;
  // A load was ready to access the cache but lost the port race: it retries
  // next cycle, so the idle skip must not jump.
  bool retry_this_cycle = false;
  // When dispatch stops because the front slot is still in flight (rather
  // than for lack of RUU/LSQ space), the cycle it becomes dispatchable.
  Cycle dispatch_blocked_until = kNever;

  // Unified LSQ: RUU indices of in-flight memory ops, oldest first, in a
  // ring sized by the machine config. An entry keeps its ring slot
  // (RuuEntry::lsq_slot) from dispatch to commit or squash, so per-slot
  // bitmaps can track it.
  Ring<int> lsq;

  // Per-ring-slot bitmaps. `lsq_due`: entries the memory phase must
  // examine at its next run; a bit set behind the walk's position carries
  // over to the next cycle, exactly when a polling walk would next have
  // looked. `lsq_store_wait`: loads whose last disambiguation waited on an
  // older store, woken together whenever a store's view changes.
  std::vector<u64> lsq_due;
  std::vector<u64> lsq_store_wait;
  // Count of LSQ entries not yet in MemPhase::Done: when zero the memory
  // phase has nothing to advance and is skipped wholesale. Every phase
  // transition funnels through set_mem_phase() so the counter cannot drift
  // from the queue contents.
  int mem_active_ = 0;
  // Line address of the last I-cache probe (see fetch()); ~0u is never a
  // line address, so the first fetch always probes.
  u32 last_fetch_line_ = ~0u;
  void set_mem_phase(RuuEntry& e, MemPhase p) {
    mem_active_ += static_cast<int>(e.mem_phase == MemPhase::Done) -
                   static_cast<int>(p == MemPhase::Done);
    e.mem_phase = p;
  }

  std::array<ProducerRef, kNumRenameRegs> rename;

  // Front end: fetch slots in a ring bounded by the IFQ capacity plus one
  // fetch group.
  Ring<FetchSlot> fetch_q;
  const unsigned ifq_capacity;
  const Cycle watchdog;  // watchdog_cycles() of this machine
  u32 fetch_pc = 0;
  Cycle fetch_stall_until = 0;
  bool wrong_path = false;
  bool halted = false;  // exit syscall dispatched: stop fetching

  Cycle now = 0;
  u64 next_seq = 1;
  Cycle mul_div_busy_until = 0;
  Cycle fp_mul_div_busy_until = 0;

  // Optional detailed histograms.
  std::unique_ptr<DetailedStats> detail;

  // Observability: every pipeline event funnels through emit() to the
  // attached sinks (obs/trace.hpp). `obs_on` keeps each emission site to a
  // single predictable branch when nothing is attached; set_pipe_trace()
  // is now sugar for attaching an owned PipeTextSink.
  std::vector<obs::TraceSink*> sinks;
  bool obs_on = false;
  std::unique_ptr<obs::PipeTextSink> owned_pipe_sink;
  void emit(const obs::TraceEvent& ev) {
    for (obs::TraceSink* s : sinks) s->event(ev);
  }
  // CacheVerify outcome codes are documented in obs/trace.hpp.
  void emit_verify(const RuuEntry& e, u64 outcome, Cycle data, bool replay) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::CacheVerify;
    ev.cycle = now;
    ev.seq = e.seq;
    ev.pc = e.pc;
    ev.a = data;
    ev.b = outcome;
    ev.flags = replay ? obs::kFlagReplay : 0u;
    emit(ev);
  }

  // Interval time-series sampling (obs/interval.hpp); not owned.
  obs::IntervalSampler* sampler = nullptr;

  // CPI-stack cycle accounting (obs/cpi_stack.hpp): opt-in like obs_on —
  // one predictable branch per loop iteration when off, so the disabled
  // path stays bit-identical to the equivalence goldens. `cpi_refill_pending`
  // distinguishes an empty RUU refilling after a misprediction squash from
  // an ordinary front-end fill; it is maintained unconditionally (plain
  // bool writes with no stats effect) to keep the hot path branch-free.
  bool cpi_on = false;
  bool cpi_refill_pending = false;

  // Host-phase profiling accumulator (opt-in: the per-phase clock reads
  // cost real time per simulated cycle). Copied into stats.host_profile
  // when run() finishes.
  bool host_profile_on = false;
  obs::HostProfile hprof;
  using HpClock = std::chrono::steady_clock;
  static void hp_take(HpClock::time_point& t, double& acc) {
    const HpClock::time_point n = HpClock::now();
    acc += std::chrono::duration<double>(n - t).count();
    t = n;
  }

  SimStats stats;
  std::string error;
  bool exited = false;
  int exit_code = 0;
  Cycle last_commit_cycle = 0;

  // ---------------------------------------------------------------------------
  // small helpers
  // ---------------------------------------------------------------------------

  // Both terms are below ruu_entries, so one conditional subtract wraps.
  unsigned ruu_index(unsigned pos) const {
    const unsigned i = ruu_head + pos;
    return i >= core.ruu_entries ? i - core.ruu_entries : i;
  }
  RuuEntry& entry_at(unsigned pos) { return ruu[ruu_index(pos)]; }
  RuuEntry& youngest() { return entry_at(ruu_count - 1); }

  void fail(const std::string& why) {
    if (error.empty()) error = "cycle " + std::to_string(now) + ": " + why;
  }

  // Source-slice requirement of slice-op `op_idx` on source `which`, for an
  // instruction dispatched with slice order `order`. Pure in dispatch-time
  // constants; build_static() bakes it into the predecoded table.
  u32 static_source_need(const DecodedInst& inst, SliceOrder order,
                         unsigned which, unsigned op_idx) const {
    if (order == SliceOrder::Collect) return low_mask(geom.count);
    if (which == 0 && reads_amount_slice0(inst.op))
      return 0x1;  // variable-shift amount lives in the low slice of rs
    if (which == 2) {
      // HI/LO source: produced atomically by mul/div; positional need.
      return u32{1} << op_idx;
    }
    return needed_source_slices(inst.cls(), op_idx, geom);
  }

  // Of producer `pidx`'s still-undefined slice-ops named by `mask`, the one
  // its slice order defines last (right shifts run high to low, everything
  // else low to high or unordered), so a consumer needing several of them
  // is woken once rather than once per slice.
  unsigned last_undefined_op(unsigned pidx, u32 mask) const {
    const Cycle* d = op_done_row(pidx);
    u32 undef = 0;
    for (u32 m = mask; m; m &= m - 1) {
      const unsigned k = static_cast<unsigned>(std::countr_zero(m));
      if (d[k] == kNever) undef |= u32{1} << k;
    }
    assert(undef);
    return ruu[pidx].order == SliceOrder::HighToLow
               ? static_cast<unsigned>(std::countr_zero(undef))
               : 31u - static_cast<unsigned>(std::countl_zero(undef));
  }

  // When the slices `mask` of source operand `which` of `e` all exist: 0
  // for a register-file or committed producer, kNever while one is still
  // unproduced — then `blocker` (when given) receives the waiter list of
  // one undefined time among them: a producer slice-op's done time or a
  // load's data time. The producer is resolved once per call: a dense
  // switch on its result class, where slice-uniform classes (loads,
  // collects, compares, narrow) short-circuit the per-slice walk. Forced
  // inline: op_ready_time, the hottest path, calls it once per source.
  [[gnu::always_inline]] Cycle source_time(const RuuEntry& e, unsigned which,
                                           u32 mask, unsigned* blocker) const {
    if (!mask) return 0;
    const ProducerRef& ref = e.sources[which];
    if (ref.from_regfile()) return 0;  // regfile: ready at 0
    const RuuEntry& p = ruu[ref.index];
    if (!p.valid || p.seq != ref.seq) return 0;  // producer committed
    Cycle t;
    const unsigned pidx = static_cast<unsigned>(ref.index);
    const Cycle* pd = op_done_row(pidx);
    switch (p.res_kind) {
      case kResLoad:
        t = p.data_cycle;
        break;
      case kResLast:
        t = last_op_done(pidx);  // sign/borrow defined only at the end
        break;
      case kResSingle:
      case kResNarrow:
        // Narrow-width: a result that is just the sign extension of its low
        // slice releases every slice the moment the low slice exists (its
        // significance tag says the rest is all-0s/all-1s).
        t = pd[0];
        break;
      default: {
        t = 0;
        for (u32 m = mask; m && t != kNever; m &= m - 1) {
          const unsigned k = static_cast<unsigned>(std::countr_zero(m));
          t = std::max(t, pd[k]);
        }
        break;
      }
    }
    if (t == kNever && blocker) {
      switch (p.res_kind) {
        case kResLoad:
          *blocker = data_list(pidx);
          break;
        case kResLast:
          *blocker =
              op_list(pidx, last_undefined_op(pidx, low_mask(p.num_ops)));
          break;
        case kResSingle:
        case kResNarrow:
          *blocker = op_list(pidx, 0);
          break;
        default:
          *blocker = op_list(pidx, last_undefined_op(pidx, mask));
          break;
      }
    }
    return t;
  }

  // Latest cycle at which every operand slice op `op_idx` needs exists; or
  // kNever if some requirement is still unproduced. In the kNever case
  // `blocker` (when given) receives the waiter list of one undefined time
  // the op needs: a producer slice-op's done time, a load's data time, or
  // the op's own chain predecessor. Outside replay a time only moves
  // kNever -> finite and that move wakes its list (replay, which moves
  // times back, re-queues the reverted ops through queue_op): each
  // recomputation either yields a finite time or registers on another
  // still-undefined time, so waiter-list wakeup is complete.
  Cycle op_ready_time(const RuuEntry& e, unsigned op_idx,
                      unsigned* blocker = nullptr) const {
    // Sch1..RF2 depth: nothing selects before the dispatch-time floor.
    Cycle ready = e.ready_floor;
    // Inter-slice chain (carry / shifted-in bits / forced in-order slices).
    // Checked first: at dispatch the predecessor is always undefined, so a
    // chained op parks on it without probing its sources.
    if (e.num_ops > 1) {
      int prev = -1;
      if (e.order == SliceOrder::LowToHigh)
        prev = static_cast<int>(op_idx) - 1;
      else if (e.order == SliceOrder::HighToLow)
        prev = static_cast<int>(op_idx) + 1;
      if (prev >= 0 && prev < static_cast<int>(e.num_ops)) {
        const unsigned k = static_cast<unsigned>(prev);
        const Cycle t = op_done_row(eidx(e))[k];
        if (t == kNever) {
          if (blocker) *blocker = op_list(eidx(e), k);
          return kNever;
        }
        ready = std::max(ready, t);
      }
    }
    const auto& need = e.si->need[op_idx];
    for (unsigned which = 0; which < 3; ++which) {
      const Cycle t = source_time(e, which, need[which], blocker);
      if (t == kNever) return kNever;
      ready = std::max(ready, t);
    }
    return ready;
  }

  // ---------------------------------------------------------------------------
  // event-driven scheduler plumbing
  // ---------------------------------------------------------------------------

  // Resolves an OpRef if it is still live: entry incarnation, op slot and
  // scheduling token must all match and the op must still be unselected.
  RuuEntry* ref_entry(const OpRef& r) {
    RuuEntry& e = ruu[r.idx];
    if (!e.valid || e.seq != r.seq) return nullptr;
    if (r.op_idx >= e.num_ops) return nullptr;
    if (op_token[r.idx * kMaxSlices + r.op_idx] != r.token) return nullptr;
    if (op_selected(r.idx, r.op_idx)) return nullptr;
    return &e;
  }

  // A fresh scheduling incarnation of op `op_idx` of entry `idx`: bumps
  // the op's token so any older refs die.
  OpRef fresh_ref(unsigned idx, unsigned op_idx) {
    const RuuEntry& e = ruu[idx];
    const u32 tok = ++op_token[idx * kMaxSlices + op_idx];
    return OpRef{idx, e.seq, op_idx, tok,
                 (e.seq << 3) | slice_visit_pos(e.order, e.num_ops, op_idx),
                 sched_epoch};
  }

  // Puts pool node `n` carrying `ref` where its time says: the waiter list
  // `blocker` while the time is undefined, the due sets once it has
  // arrived, else the event wheel at that cycle. Forced inline: every
  // wakeup and queue_op ends here.
  [[gnu::always_inline]] void place_node(int n, const OpRef& ref, Cycle ready,
                                         unsigned blocker) {
    if (ready == kNever) {
      wait_pool.link_back(waiters[blocker], n, ref);
    } else if (ready <= now) {
      route_due(ref);
      wait_pool.release(n);
    } else {
      hev.far_spills += wheel.push(ready, n, ref);
    }
  }

  // (Re)tracks an unselected op in exactly one scheduler structure, chosen
  // by its current ready time.
  void queue_op(unsigned idx, unsigned op_idx) {
    ++hev.queue_ops;
    unsigned blocker = 0;
    const Cycle ready = op_ready_time(ruu[idx], op_idx, &blocker);
    place_node(wait_pool.alloc(), fresh_ref(idx, op_idx), ready, blocker);
  }

  // A ref whose time has arrived: a slice-op becomes a select candidate,
  // an LSQ entry is examined by this cycle's memory phase, a branch is
  // checked by the next resolve phase.
  void route_due(const OpRef& r) {
    if (r.op_idx < kMaxSlices)
      pending.push_back(r);
    else
      route_wake(r);
  }
  void route_wake(const OpRef& r) {
    const RuuEntry& e = ruu[r.idx];
    if (!e.valid || e.seq != r.seq) return;  // squashed or committed
    if (r.op_idx == kMemWake) {
      if (e.mem_phase != MemPhase::Done) mark_mem_due(e);
    } else {
      branch_due.push_back(ConsumerRef{r.idx, r.seq});
    }
  }

  // Schedules a wake of kind `kind` for entry `idx` at cycle `c` — or, if
  // `c` is still undefined, when waiter list `blocker` is woken.
  void wake_at(Cycle c, unsigned idx, unsigned kind, unsigned blocker = 0) {
    place_node(wait_pool.alloc(), OpRef{idx, ruu[idx].seq, kind, 0, 0, 0}, c,
               blocker);
  }

  // The time waiter list `list` stands for was published (an op was
  // selected, or load data was scheduled): re-evaluate every op blocked on
  // it, and every store whose data waited on it. Each node is relinked
  // straight into its next list or wheel slot (place_node).
  void wake_waiters(unsigned list) {
    // Detach the whole list first: its time now exists, so the walk's
    // re-registrations all land on other lists.
    int n = wait_pool.take(waiters[list]);
    if (n < 0) return;
    ++hev.wakes;
    while (n >= 0) {
      ++hev.waiter_visits;
      const OpRef r = wait_pool[n].ref;
      const int next = wait_pool[n].next;
      unsigned blocker = 0;
      if (r.op_idx == kMemWake) {
        const RuuEntry& e = ruu[r.idx];
        if (e.valid && e.seq == r.seq && e.mem_phase != MemPhase::Done)
          place_node(n, r, store_data_time(e, &blocker), blocker);
        else
          wait_pool.release(n);
      } else if (ref_entry(r)) {
        const Cycle ready = op_ready_time(ruu[r.idx], r.op_idx, &blocker);
        if (ready == kNever) {
          ++hev.reregisters;
          hev.same_list_reregisters += blocker == list;
        }
        place_node(n, fresh_ref(r.idx, r.op_idx), ready, blocker);
      } else {
        wait_pool.release(n);
      }
      n = next;
    }
  }

  // Number of low effective-address bits produced by cycle `c`.
  unsigned addr_bits_known_at(const RuuEntry& e, Cycle c) const {
    const Cycle* d = op_done_row(eidx(e));
    if (e.order == SliceOrder::Collect) return d[0] <= c ? 32 : 0;
    unsigned n = 0;
    while (n < e.num_ops && d[n] <= c) ++n;
    return n * geom.width();
  }

  // Cycle the full effective address exists (kNever if not yet).
  Cycle agen_complete_cycle(const RuuEntry& e) const {
    return last_op_done(eidx(e));
  }

  // Cycle the cache can consume the full effective address. With
  // sum-addressed memory the base+offset add happens inside the array
  // decoder, so the access overlaps the agen ops themselves: the address is
  // usable the cycle the last agen op is *selected*.
  Cycle full_addr_cycle(const RuuEntry& e) const {
    if (!sum_addressed) return agen_complete_cycle(e);
    const unsigned idx = eidx(e);
    Cycle m = 0;
    for (unsigned i = 0; i < e.num_ops; ++i) {
      const Cycle s = op_sel_[idx * kMaxSlices + i];
      if (s == kNever) return kNever;
      m = std::max(m, s);
    }
    return m;
  }

  // When all slices of a store's *data* operand are available (kNever if the
  // producer has not finished; `blocker` then names one undefined time).
  Cycle store_data_time(const RuuEntry& e, unsigned* blocker = nullptr) const {
    return source_time(e, 1, low_mask(geom.count), blocker);
  }

  // ---------------------------------------------------------------------------
  // dispatch-time setup
  // ---------------------------------------------------------------------------

  // --- dense predecoded instruction table ----------------------------------
  // One StaticInst row per text word (plus a shared nop row for off-image
  // wrong-path fetches): the complete dispatch-invariant schedule shape of
  // each instruction, derived once at construction.
  std::vector<StaticInst> stab;
  std::vector<u8> stab_ok;  // row decodes to a valid instruction
  StaticInst nop_si;

  StaticInst build_static(const DecodedInst& inst) const {
    StaticInst s;
    s.inst = inst;
    const ExecClass cls = inst.cls();
    s.kind = static_cast<u8>(cls);
    s.order = slice_order(cls, core);
    const bool multi = sliced_sched && is_sliceable(cls);
    s.num_ops = static_cast<u8>(multi ? geom.count : 1);
    switch (cls) {
      case ExecClass::Mul:
        s.op_latency = static_cast<u16>(core.mul_latency);
        break;
      case ExecClass::Div:
        s.op_latency = static_cast<u16>(core.div_latency);
        break;
      case ExecClass::Jump:
      case ExecClass::JumpReg:
      case ExecClass::Syscall:
        // Redirect/serialising ops: a single cycle once the (full) operand
        // exists — these do not flow through the sliced ALU pipeline.
        s.op_latency = static_cast<u16>(sliced_sched ? 1 : core.slices);
        break;
      case ExecClass::FpAlu:
      case ExecClass::FpCompare:
        s.op_latency = static_cast<u16>(core.fp_alu_latency);
        break;
      case ExecClass::FpBranch:
        s.op_latency = 1;  // reads one condition bit
        break;
      case ExecClass::FpMul:
        s.op_latency = static_cast<u16>(core.fp_mul_latency);
        break;
      case ExecClass::FpDiv:
        s.op_latency = static_cast<u16>(core.fp_div_latency);
        break;
      case ExecClass::FpSqrt:
        s.op_latency = static_cast<u16>(core.fp_sqrt_latency);
        break;
      default:
        s.op_latency = static_cast<u16>(multi ? 1 : core.slices);
        break;
    }

    u16 f = 0;
    if (inst.is_load()) f |= StaticInst::kFlagLoad;
    if (inst.is_store()) f |= StaticInst::kFlagStore;
    if (inst.is_mem()) f |= StaticInst::kFlagMem;
    if (inst.is_control()) f |= StaticInst::kFlagControl;
    if (inst.is_cond_branch()) f |= StaticInst::kFlagCondBranch;
    if (cls == ExecClass::JumpReg) f |= StaticInst::kFlagJumpReg;
    if (inst.writes_hi_lo()) f |= StaticInst::kFlagWritesHiLo;
    if (cls == ExecClass::Mul || cls == ExecClass::Div)
      f |= StaticInst::kFlagIntMulDiv;
    if (uses_fp_mul_div_unit(cls)) f |= StaticInst::kFlagFpMulDiv;
    if (uses_fp_alu(cls)) f |= StaticInst::kFlagFpAlu;
    if (inst.dest() != 0 && !inst.is_fp() &&
        core.has(Technique::NarrowWidth))
      f |= StaticInst::kFlagNarrowCand;
    if (cls == ExecClass::BranchEq && s.num_ops > 1 &&
        core.has(Technique::EarlyBranch))
      f |= StaticInst::kFlagEarlyEq;
    if (inst.is_cond_branch() || cls == ExecClass::JumpReg)
      f |= StaticInst::kFlagWatched;
    s.flags = f;

    // Static part of the result-time class; dispatch upgrades kResSliced to
    // kResNarrow when the dynamic narrow-width test passes. Priority: load,
    // compare, single.
    if (cls == ExecClass::Load)
      s.res_kind = kResLoad;
    else if (cls == ExecClass::Compare)
      s.res_kind = kResLast;
    else if (s.num_ops == 1)
      s.res_kind = kResSingle;
    else
      s.res_kind = kResSliced;

    s.src1_ext = static_cast<u8>(inst.src1_ext());
    s.src2_ext = static_cast<u8>(inst.src2_ext());
    s.dest_ext = static_cast<u8>(inst.dest_ext());
    if (inst.reads_hi_lo())
      s.hilo_src =
          static_cast<u8>(inst.op == Op::MFHI ? kHiReg : kLoReg);

    for (unsigned i = 0; i < s.num_ops; ++i)
      for (unsigned which = 0; which < 3; ++which)
        s.need[i][which] = static_source_need(inst, s.order, which, i);
    return s;
  }

  ProducerRef rename_source(unsigned reg) const {
    if (reg == 0) return ProducerRef{};  // $zero is always ready
    return rename[reg];
  }

  void dispatch_one(const FetchSlot& slot) {
    const unsigned idx = ruu_index(ruu_count);
    RuuEntry& e = ruu[idx];
    e.reset_for_dispatch();
    // This slot's previous occupant is gone: recycle its dependence edges
    // onto the node free lists in O(1). (Refs *to* the old occupant
    // elsewhere die via their seq checks.)
    cons_pool.recycle(consumers[idx]);
    for (unsigned l = 0; l < wait_stride; ++l)
      wait_pool.recycle(waiters[idx * wait_stride + l]);
    const StaticInst* si = slot.si;
    e.valid = true;
    e.seq = next_seq++;
    e.pc = slot.pc;
    e.dispatch_cycle = now;
    e.predicted_taken = slot.predicted_taken;
    e.predicted_target = slot.predicted_target;
    e.history_checkpoint = slot.history_checkpoint;

    const bool correct_path = !wrong_path && slot.pc == oracle.pc();
    e.bogus = !correct_path;
    if (correct_path) {
      cpi_refill_pending = false;  // redirected path has reached the RUU
      const StepResult sr = oracle.step(&e.oracle);
      if (sr.kind == StepResult::Kind::Fault) {
        fail("oracle fault: " + sr.fault);
        return;
      }
      e.step = oracle_steps_++;
      // The oracle decodes from live memory; the table row decodes the
      // construction-time image. On the (unsupported) self-modifying-text
      // path they can differ — refresh the row so the predecoded shape
      // stays authoritative, exactly as the per-dispatch re-decode did.
      if (si != &nop_si && e.oracle.inst.raw != si->inst.raw) {
        const std::size_t row = (slot.pc - text_base) / 4;
        stab[row] = build_static(e.oracle.inst);
        stab_ok[row] = 1;
        si = &stab[row];
      }
      if (oracle.exited()) {
        halted = true;
        e.caused_exit = true;
      }

      const u32 predicted_next =
          slot.predicted_taken ? slot.predicted_target : slot.pc + 4;
      if ((si->flags & StaticInst::kFlagControl) &&
          predicted_next != e.oracle.next_pc) {
        e.mispredicted = true;
        wrong_path = true;
      }
      if (si->kind == static_cast<u8>(ExecClass::Jump)) {
        // Direct jumps carry their target; resolved at dispatch.
        e.resolved = true;
        e.resolve_cycle = now;
      }
    } else {
      ++stats.bogus_dispatched;
    }

    // Copy the predecoded schedule shape: this replaces the per-dispatch
    // class/order/latency/need-mask derivation entirely.
    e.si = si;
    e.inst = si->inst;
    e.flags = si->flags;
    e.num_ops = si->num_ops;
    e.op_latency = si->op_latency;
    e.order = si->order;
    e.ready_floor = now + core.issue_to_exec_stages;
    reset_ops(idx);

    e.res_kind = si->res_kind;
    if (!e.bogus && (si->flags & StaticInst::kFlagNarrowCand)) {
      const u32 v = e.oracle.dest_value;
      e.narrow_result = sign_extend(v & low_mask(geom.width()),
                                    geom.width()) == v;
      if (e.narrow_result) {
        ++stats.narrow_operands;
        if (e.res_kind == kResSliced) e.res_kind = kResNarrow;
      }
    }

    // Source renaming (extended ids: GPR/HI/LO/FP/FCC).
    e.sources[0] = rename_source(si->src1_ext);
    e.sources[1] = rename_source(si->src2_ext);
    if (si->hilo_src != 0) e.sources[2] = rename[si->hilo_src];

    // Register this entry on each in-flight producer's consumer list: the
    // selective-replay cascade walks these edges instead of the whole RUU.
    // A rename mapping restored by a squash can name a producer that has
    // since committed and whose slot was reused — possibly by this very
    // entry; such a source reads the register file, so it gets no edge.
    for (const ProducerRef& src : e.sources)
      if (src.index >= 0 &&
          ruu[static_cast<unsigned>(src.index)].seq == src.seq)
        cons_pool.append(consumers[static_cast<unsigned>(src.index)],
                         ConsumerRef{idx, e.seq});

    // Destination renaming (wrong-path results feed wrong-path consumers),
    // saving the displaced mappings for O(squashed) recovery.
    const unsigned dest = si->dest_ext;
    if (dest != 0) {
      e.prev_dest = rename[dest];
      rename[dest] = ProducerRef{static_cast<int>(idx), e.seq};
    }
    if (si->flags & StaticInst::kFlagWritesHiLo) {
      e.prev_hi = rename[kHiReg];
      e.prev_lo = rename[kLoReg];
      rename[kHiReg] = ProducerRef{static_cast<int>(idx), e.seq};
      rename[kLoReg] = ProducerRef{static_cast<int>(idx), e.seq};
    }

    if (si->flags & StaticInst::kFlagMem) {
      // Nothing can advance before an agen op completes, which wakes it.
      e.lsq_slot = lsq.push_back(static_cast<int>(idx));
      ++mem_active_;  // fresh mem ops enter in MemPhase::Agen
    }

    // Hand every slice-op to the scheduler queues (source-need masks come
    // from the predecoded row).
    for (unsigned i = 0; i < e.num_ops; ++i) queue_op(idx, i);

    ++ruu_count;
    ++stats.dispatched;
    cycle_activity = true;

    if (obs_on) {
      const std::string dis = disassemble(e.inst, e.pc);
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::Dispatch;
      ev.cycle = now;
      ev.seq = e.seq;
      ev.pc = e.pc;
      ev.flags = (e.bogus ? obs::kFlagBogus : 0u) |
                 (e.mispredicted ? obs::kFlagMispredicted : 0u);
      ev.text = dis.c_str();
      emit(ev);
    }
  }

  void dispatch() {
    dispatch_blocked_until = kNever;
    unsigned n = 0;
    while (n < core.fetch_width && !fetch_q.empty()) {
      const FetchSlot& slot = fetch_q.front();
      if (slot.dispatch_ready > now) {
        // Still in the front end: the idle skip may jump to this cycle.
        // (When dispatch stops for lack of RUU/LSQ space instead, the
        // unblocking commit is already covered by the wheel's timers.)
        dispatch_blocked_until = slot.dispatch_ready;
        break;
      }
      if (ruu_count >= core.ruu_entries) break;
      if ((slot.si->flags & StaticInst::kFlagMem) &&
          lsq.size() >= core.lsq_entries)
        break;
      if (halted) {
        // Exit syscall already dispatched: drop drained slots.
        fetch_q.pop_front();
        cycle_activity = true;
        continue;
      }
      dispatch_one(slot);
      fetch_q.pop_front();
      ++n;
      if (!error.empty()) return;
    }
  }

  // ---------------------------------------------------------------------------
  // fetch
  // ---------------------------------------------------------------------------

  // Fetch resolves straight into the predecoded static table (built once at
  // construction; decoding per fetch slot per cycle was ~25% of whole-run
  // profiles). Off-text or undecodable words fetch the shared nop row.
  const StaticInst* fetch_static(u32 pc) const {
    if (pc < text_base || pc >= text_end || pc % 4 != 0) return nullptr;
    const std::size_t row = (pc - text_base) / 4;
    return stab_ok[row] ? &stab[row] : nullptr;
  }

  void fetch() {
    if (halted || now < fetch_stall_until) return;
    if (fetch_q.size() >= ifq_capacity) return;

    // Same-line fast path: the I-cache is only ever touched here, so the
    // line probed by the previous fetch group is still resident — a repeat
    // probe is a hit by construction (LRU: the line is already MRU, so the
    // skipped touch is a no-op for replacement order).
    const u32 line = fetch_pc & ~(cfg.memory.l1i.line_bytes - 1);
    unsigned icache_lat;
    if (line == last_fetch_line_) {
      icache_lat = cfg.memory.l1i_latency;
    } else {
      icache_lat = mem.fetch_latency(fetch_pc);
      last_fetch_line_ = line;
    }
    Cycle ready = now + core.front_end_stages;
    if (icache_lat > cfg.memory.l1i_latency) {
      // I$ miss: the group arrives late and fetch stalls for the duration.
      ready += icache_lat - cfg.memory.l1i_latency;
      fetch_stall_until = now + (icache_lat - cfg.memory.l1i_latency);
    }

    for (unsigned i = 0; i < core.fetch_width; ++i) {
      FetchSlot slot;
      slot.pc = fetch_pc;
      slot.dispatch_ready = ready;
      const StaticInst* s = fetch_static(fetch_pc);
      slot.si = s ? s : &nop_si;  // off-the-end wrong path
      cycle_activity = true;
      if (slot.si->flags & StaticInst::kFlagControl) {
        const BranchPrediction p = predictor.predict(slot.pc, slot.si->inst);
        slot.predicted_taken = p.taken;
        slot.predicted_target = p.target;
        slot.history_checkpoint = p.history_checkpoint;
        fetch_q.push_back(slot);
        if (p.taken && p.target != slot.pc + 4) {
          fetch_pc = p.target;
          break;  // group ends at a taken branch
        }
        fetch_pc = slot.pc + 4;
      } else {
        fetch_q.push_back(slot);
        fetch_pc += 4;
      }
    }
  }

  // ---------------------------------------------------------------------------
  // select & execute
  // ---------------------------------------------------------------------------

  // Routes every wake whose cycle has arrived (route_due): slice-ops into
  // `pending`, LSQ entries into the memory phase's due set, branches into
  // `branch_due`. Runs first in the cycle, so the resolve phase sees its
  // branches before select. (The idle skip never jumps past the wheel's
  // next event, so nothing lies between the skipped cycles.)
  void drain_wakeups() {
    wheel.advance(now, [this](const OpRef& r) { route_due(r); });
  }

  // A selected slice-op publishes a done time the memory and resolve
  // phases wait on: its LSQ entry is examined when the op completes (an
  // address slice lands) — or at once if a sum-addressed load's address
  // just became usable — and a branch is checked when the op could prove
  // its outcome.
  void note_selected(const RuuEntry& e, unsigned idx, unsigned op,
                     Cycle done) {
    if ((e.flags & StaticInst::kFlagMem) && e.mem_phase != MemPhase::Done) {
      wake_at(done, idx, kMemWake);
      if (sum_addressed && (e.flags & StaticInst::kFlagLoad) &&
          full_addr_cycle(e) == now)
        mark_mem_due(e);
    }
    if ((e.flags & StaticInst::kFlagWatched) && !e.bogus && !e.resolved &&
        may_prove_outcome(e, idx, op))
      wake_at(done, idx, kBranchWake);
  }

  void select_and_execute() {
    if (pending.empty()) return;
    // Per-slice-datapath issue slots this cycle. Unsliced machines and
    // collect ops use datapath 0; FP ops use their own unit pool.
    std::array<unsigned, kMaxSlices> slots{};
    unsigned fp_alu_used = 0;
    const unsigned per_slice_limit = std::min(core.issue_width, core.int_alus);

    // Select in the order the scan-based scheduler examined ops: oldest
    // entry first, then slice visit order within the entry. Same-cycle
    // selections never make *other* ops ready this same cycle (op latency is
    // >= 1), so ordering the candidate set up front is exact, by the
    // single-integer key (see core/select_order.hpp).
    std::vector<OpRef>& cands = cand_scratch;
    cands.clear();
    cands.swap(pending);
    if (order_by_key(cands)) ++hev.sort_fallbacks;
    hev.select_candidates += cands.size();

    for (const OpRef& r : cands) {
      RuuEntry* pe = ref_entry(r);
      if (!pe) {  // squashed / committed / requeued since
        ++hev.dead_candidates;
        continue;
      }
      RuuEntry& e = *pe;
      const unsigned op_idx = r.op_idx;
      const u16 fl = e.flags;
      const bool fp_unit =
          (fl & (StaticInst::kFlagFpAlu | StaticInst::kFlagFpMulDiv)) != 0;

      // Issue-slot limit is checked before readiness, as in the scan.
      const unsigned datapath = e.num_ops > 1 ? op_idx : 0;
      if (!fp_unit && slots[datapath] >= per_slice_limit) {
        pending.push_back(r);  // slot-blocked: stays ready for next cycle
        continue;
      }

      // Re-derive readiness only when a replay may have regressed an
      // operand since this ref was queued (the epoch stamp went stale).
      // Times only move later, never earlier, so an op can need requeueing
      // but never selection *earlier* than its ref; with the epoch intact
      // the queue-time ready cycle is still exact and is <= now here.
      if (r.epoch != sched_epoch) {
        const Cycle ready = op_ready_time(e, op_idx);
        if (ready == kNever || ready > now) {
          queue_op(r.idx, op_idx);
          continue;
        }
      }

      // Structural hazards: single unpipelined integer and FP
      // mul/div(/sqrt) units; a pool of `fp_alus` FP ALUs.
      if (fl & StaticInst::kFlagIntMulDiv) {
        if (now < mul_div_busy_until) {
          pending.push_back(r);
          continue;
        }
        mul_div_busy_until = now + e.op_latency;
      }
      if (fl & StaticInst::kFlagFpMulDiv) {
        if (now < fp_mul_div_busy_until) {
          pending.push_back(r);
          continue;
        }
        fp_mul_div_busy_until = now + e.op_latency;
      }
      if (fl & StaticInst::kFlagFpAlu) {
        if (fp_alu_used >= core.fp_alus) {
          pending.push_back(r);
          continue;
        }
        ++fp_alu_used;
      }

      const Cycle done = now + e.op_latency;
      op_sel(r.idx, op_idx) = now;
      op_done(r.idx, op_idx) = done;
      ++op_token[r.idx * kMaxSlices + op_idx];  // selected: retire the ref
      ++hev.selections;
      if (!fp_unit) ++slots[datapath];
      wheel.mark(done);
      cycle_activity = true;
      if (fl & (StaticInst::kFlagMem | StaticInst::kFlagWatched))
        note_selected(e, r.idx, op_idx, done);
      // The newly defined done time may unblock the ops waiting on exactly
      // it. Wakes are deferred to one pass after the candidate walk: every
      // published done is >= now + 1, so a woken op can never become a
      // candidate this same cycle, and waking against the cycle's final
      // state spares re-registrations on a sibling slice selected later in
      // the walk.
      wake_scratch.push_back(op_list(r.idx, op_idx));
      if (obs_on) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::OpSelect;
        ev.cycle = now;
        ev.seq = e.seq;
        ev.pc = e.pc;
        ev.op_idx = op_idx;
        ev.a = done;
        ev.flags = e.num_ops > 1 ? obs::kFlagMultiOp : 0u;
        emit(ev);
      }
    }
    for (const unsigned list : wake_scratch) wake_waiters(list);
    wake_scratch.clear();
  }

  // ---------------------------------------------------------------------------
  // memory pipeline (loads & stores)
  // ---------------------------------------------------------------------------

  // View of the store at LSQ slot `slot` as the disambiguator sees it now.
  StoreView store_view_of(std::size_t slot) const {
    const RuuEntry& s = ruu[static_cast<unsigned>(lsq[slot])];
    StoreView v;
    v.id = lsq[slot];
    if (s.bogus) {
      v.addr_known_bits = 0;  // wrong-path store: address never produced
      return v;
    }
    v.addr = s.oracle.mem_addr;
    v.bytes = s.oracle.mem_bytes;
    v.data = s.oracle.store_value;
    if (s.mem_phase == MemPhase::Done) {
      // Done means address and data both exist: replay moves a store whose
      // times regress back to Agen.
      v.addr_known_bits = 32;
      v.data_ready = true;
      return v;
    }
    v.addr_known_bits = addr_bits_known_at(s, now);
    // Disambiguation reads data_ready only of a store whose address is
    // complete, so the producer is probed only then.
    if (v.addr_known_bits == 32) v.data_ready = store_data_time(s) <= now;
    return v;
  }

  // Publishes a (possibly speculative) load data time: arms the timer for
  // the data return, schedules the memory phase's look at its verification
  // point, and re-evaluates consumers blocked on the previously undefined
  // time.
  void publish_load_data(unsigned idx) {
    RuuEntry& e = ruu[idx];
    cycle_activity = true;
    if (e.data_cycle != kNever) {
      wheel.mark(e.data_cycle);
      if (!e.data_final) wake_at(e.data_cycle + 1, idx, kMemWake);
    }
    wake_waiters(data_list(idx));
  }

  void start_load_access(RuuEntry& e, unsigned bits_known) {
    const u32 addr = e.oracle.mem_addr;
    Cache& l1d = mem.l1d();
    const unsigned tag_lo = l1d.geometry().tag_lo_bit();
    e.access_start_cycle = now;

    if (bits_known < 32) {
      // Partial-tag early access (only reachable when the technique is on).
      const unsigned avail_tag = bits_known - tag_lo;
      assert(avail_tag >= 1 && avail_tag < l1d.geometry().tag_bits());
      const u32 ways = l1d.partial_match_ways(addr, avail_tag);
      if (ways == 0) {
        // Early, non-speculative miss: start the L2 path immediately.
        bool hit = false;
        const unsigned lat = mem.data_latency(addr, false, &hit);
        assert(!hit);
        ++stats.l1d_misses;
        ++stats.early_miss_detects;
        e.early_miss = true;
        e.used_partial_tag = true;
        e.data_cycle = now + lat;
        e.data_final = true;
        set_mem_phase(e, MemPhase::Done);
        return;
      }
      ++stats.partial_tag_accesses;
      e.used_partial_tag = true;
      u32 rng = static_cast<u32>(e.seq);
      const auto way =
          l1d.predict_way(addr, ways, core.way_policy, &rng);
      e.forward_store = -1;
      set_mem_phase(e, MemPhase::Access);
      e.data_cycle = now + l1d.hit_latency();  // speculative return
      e.data_final = false;
      // Remember the prediction in `predicted_target` is taken; use a
      // dedicated field instead:
      e.predicted_way = way ? static_cast<int>(*way) : -1;
      return;
    }

    // Conventional access with the complete address. Dependents are woken
    // assuming an L1 hit (speculative scheduling); a miss retimes the data
    // and replays them.
    bool hit = false;
    const unsigned lat = mem.data_latency(addr, false, &hit);
    if (hit) {
      ++stats.l1d_hits;
      e.data_cycle = now + lat;
      e.data_final = true;
      set_mem_phase(e, MemPhase::Done);
    } else {
      ++stats.l1d_misses;
      e.data_cycle = now + l1d.hit_latency();  // optimistic wakeup
      e.true_data_cycle = now + lat;
      e.data_final = false;
      set_mem_phase(e, MemPhase::Access);
      e.predicted_way = -2;  // marker: plain hit-speculation, not way pred.
    }
  }

  void verify_load(RuuEntry& e) {
    // Called when the full address exists (partial-tag path) or at the
    // optimistic wakeup time (hit-speculation path).
    Cache& l1d = mem.l1d();
    const u32 addr = e.oracle.mem_addr;

    if (e.predicted_way == -2) {
      // Hit-speculation on a known miss: retime and replay consumers.
      ++stats.load_replays;
      if (obs_on) emit_verify(e, 1, e.true_data_cycle, true);
      retime_load(e, e.true_data_cycle);
      return;
    }

    const auto actual = l1d.find(addr);
    bool hit = false;
    const unsigned lat = mem.data_latency(addr, false, &hit);
    if (hit) ++stats.l1d_hits; else ++stats.l1d_misses;

    if (hit && actual && e.predicted_way == static_cast<int>(*actual)) {
      e.data_final = true;  // speculation confirmed, data time stands
      set_mem_phase(e, MemPhase::Done);
      cycle_activity = true;
      if (obs_on) emit_verify(e, 0, e.data_cycle, false);
      return;
    }
    if (hit) {
      // Way misprediction: one replayed access.
      ++stats.way_mispredicts;
      ++stats.load_replays;
      if (obs_on) emit_verify(e, 2, now + l1d.hit_latency(), true);
      retime_load(e, now + l1d.hit_latency());
    } else {
      ++stats.load_replays;
      if (obs_on) emit_verify(e, 3, now + lat, true);
      retime_load(e, now + lat);
    }
  }

  void retime_load(RuuEntry& e, Cycle new_data_cycle) {
    const unsigned idx = static_cast<unsigned>(&e - ruu.data());
    e.data_cycle = new_data_cycle;
    e.data_final = true;
    set_mem_phase(e, MemPhase::Done);
    publish_load_data(idx);
    // The data moved later: everything scheduled against the speculative
    // time (and, transitively, its dependents) must be re-examined.
    ++sched_epoch;
    schedule_consumers(idx);
    run_relax();
  }

  // --- event-driven memory phase ------------------------------------------
  // The phase examines an LSQ entry only in a cycle when something it
  // depends on changed: one of its agen ops completes (or, sum-addressed,
  // its address becomes usable at select), an older store's view changes
  // (the store is examined, or commits), its store data or its verify
  // point arrives, it lost a D-cache port race last cycle, or a replay
  // regressed recorded times (every active entry). Due entries are still
  // visited in LSQ order, so ports and the store-view prefix behave
  // exactly as in a walk over the whole queue.

  static void bit_set(std::vector<u64>& bits, unsigned slot) {
    bits[slot >> 6] |= u64{1} << (slot & 63);
  }
  static void bit_clear(std::vector<u64>& bits, unsigned slot) {
    bits[slot >> 6] &= ~(u64{1} << (slot & 63));
  }
  void mark_mem_due(const RuuEntry& e) { bit_set(lsq_due, e.lsq_slot); }
  void wake_store_waiters() {
    for (std::size_t w = 0; w < lsq_due.size(); ++w)
      lsq_due[w] |= lsq_store_wait[w];
  }
  // An entry leaving the LSQ takes its slot's bits with it.
  void lsq_forget(const RuuEntry& e) {
    bit_clear(lsq_due, e.lsq_slot);
    bit_clear(lsq_store_wait, e.lsq_slot);
  }
  void mark_active_due() {
    for (std::size_t i = 0; i < lsq.size(); ++i)
      if (ruu[static_cast<unsigned>(lsq[i])].mem_phase != MemPhase::Done)
        bit_set(lsq_due, lsq.slot(i));
  }
  // First LSQ position >= pos whose due bit is set (lsq.size() if none).
  std::size_t next_due(std::size_t pos) const {
    const unsigned cap = lsq.capacity();
    while (pos < lsq.size()) {
      const unsigned s = lsq.slot(pos);
      const u64 w = lsq_due[s >> 6] >> (s & 63);
      if (w) return pos + static_cast<unsigned>(std::countr_zero(w));
      pos += std::min(64 - (s & 63), cap - s);
    }
    return lsq.size();
  }

  // Store views for the LSQ prefix below `upto`, extended incrementally as
  // the memory phase advances through the queue and rebuilt when a replay
  // regresses recorded times (a store's address/data availability may
  // have moved later). Reset at the start of each memory phase.
  std::size_t views_built_ = 0;
  u64 views_epoch_ = 0;
  void refresh_views(std::size_t upto) {
    if (views_epoch_ != sched_epoch) {
      views_scratch.clear();
      views_built_ = 0;
      views_epoch_ = sched_epoch;
    }
    for (; views_built_ < upto; ++views_built_) {
      const RuuEntry& s = ruu[static_cast<unsigned>(lsq[views_built_])];
      if (!s.valid || !(s.flags & StaticInst::kFlagStore)) continue;
      views_scratch.push_back(store_view_of(views_built_));
    }
  }

  // What the memory phase would do with the entry at LSQ position `pos`
  // this cycle. It is the one "can this entry advance now?" predicate:
  // the phase acts on it, and the invariant check requires kNone of every
  // entry the phase skipped. Pure apart from the store-view cache.
  enum class MemStep : u8 {
    kNone,       // nothing can change this cycle
    kStoreDone,  // store: address and data complete (wrong path: agen)
    kBogusLoad,  // wrong-path load: agen complete
    kLoadAgen,   // load: an LSQ decision to record, a forward, or an access
    kVerify,     // load: verification point with what it needs present
  };
  struct MemPlan {
    MemStep step = MemStep::kNone;
    bool store_wait = false;  // load: an older store blocks the decision
    bool access = false;      // kLoadAgen: start the cache access
    bool full_now = false;    // kLoadAgen: the full address is usable
    unsigned bits = 0;        // load: address bits known
    DisambigResult d;         // kLoadAgen: the LSQ decision
    Cycle addr_t = kNever;    // store: agen completion
    Cycle data_t = kNever;    // store: data availability
    unsigned data_blocker = 0;  // store: waiter list while data_t is kNever
  };
  MemPlan plan_mem(const RuuEntry& e, unsigned idx, std::size_t pos) {
    MemPlan p;
    if (e.mem_phase == MemPhase::Done) return p;
    if (e.flags & StaticInst::kFlagStore) {
      if (e.bogus) {
        if (ops_done(idx, now)) p.step = MemStep::kStoreDone;
        return p;
      }
      p.addr_t = agen_complete_cycle(e);
      p.data_t = store_data_time(e, &p.data_blocker);
      if (p.addr_t != kNever && p.addr_t <= now && p.data_t != kNever &&
          p.data_t <= now)
        p.step = MemStep::kStoreDone;
      return p;
    }
    if (e.bogus) {
      // Wrong-path load: occupies the queue; completes after agen.
      if (e.mem_phase == MemPhase::Agen && ops_done(idx, now))
        p.step = MemStep::kBogusLoad;
      return p;
    }
    if (e.mem_phase == MemPhase::Agen) {
      p.bits = addr_bits_known_at(e, now);
      if (p.bits == 0) return p;
      refresh_views(pos);
      p.d = disambiguate_load(
          LoadQuery{p.bits, e.oracle.mem_addr, e.oracle.mem_bytes},
          views_scratch, core.has(Technique::EarlyLsq),
          core.has(Technique::SpecForward));
      if (p.d.decision == LoadDecision::WaitStore) {
        p.store_wait = true;
        return p;
      }
      // Issue: start the cache access when enough address bits exist.
      const unsigned tag_lo = mem.l1d().geometry().tag_lo_bit();
      const Cycle full_at = full_addr_cycle(e);
      p.full_now = full_at != kNever && full_at <= now;
      const bool can_partial = core.has(Technique::PartialTag) &&
                               p.bits > tag_lo && p.bits < 32 && !p.full_now;
      p.access = p.d.decision == LoadDecision::Issue &&
                 (p.full_now || can_partial);
      if (p.d.decision != LoadDecision::Issue || p.access ||
          e.lsq_decision_cycle == kNever)
        p.step = MemStep::kLoadAgen;
      return p;
    }
    // Access. Verification happens the cycle *after* the speculative data
    // return (paper Figure 3: "verify with full tag bits on next cycle"),
    // so dependents selected against the speculative time are genuinely in
    // flight and must replay on a mis-speculation. A speculative
    // partial-match forward (way marker -3) and a partial-tag access need
    // the full address; a plain hit-speculated miss (-2) does not.
    if (now < e.data_cycle + 1) return p;
    const Cycle full_at = full_addr_cycle(e);
    const bool full_addr = full_at != kNever && full_at <= now;
    if (full_addr || (e.predicted_way == -2)) p.step = MemStep::kVerify;
    return p;
  }

  void memory_progress() {
    // Every resident memory op has reached MemPhase::Done: nothing can
    // advance. (Commit drains Done entries from the head; replay re-raises
    // the counter through set_mem_phase before anything can regress.)
    if (mem_active_ == 0) return;
    unsigned ports_used = 0;
    views_scratch.clear();
    views_built_ = 0;
    views_epoch_ = sched_epoch;
    u64 epoch = sched_epoch;
    // The invariant build visits every position, checking the skipped ones.
    const auto next = [&](std::size_t pos) {
      return kCheckInvariants ? pos : next_due(pos);
    };
    for (std::size_t pos = next(0); pos < lsq.size(); pos = next(pos + 1)) {
      const unsigned slot = lsq.slot(pos);
      const unsigned idx = static_cast<unsigned>(lsq[pos]);
      RuuEntry& e = ruu[idx];
      const bool due = (lsq_due[slot >> 6] >> (slot & 63)) & 1;
      if (kCheckInvariants && !due) {
        if (e.mem_phase != MemPhase::Done &&
            plan_mem(e, idx, pos).step != MemStep::kNone)
          fail("invariant: the memory phase skipped LSQ entry seq " +
               std::to_string(e.seq) + ", which could advance");
        continue;
      }
      bit_clear(lsq_due, slot);
      if (e.mem_phase == MemPhase::Done) continue;  // stale wake
      ++hev.lsq_visits;
      advance_mem(e, idx, pos, ports_used);
      if (sched_epoch != epoch) {
        // A replay regressed recorded times: re-examine every active entry
        // (those behind this position next cycle, as a full walk would).
        epoch = sched_epoch;
        mark_active_due();
      }
    }
  }

  void advance_mem(RuuEntry& e, unsigned idx, std::size_t pos,
                   unsigned& ports_used) {
    const MemPlan p = plan_mem(e, idx, pos);
    if (e.flags & StaticInst::kFlagStore) {
      // A correct-path store is examined because an address slice or its
      // data just landed (or a replay): the view younger loads
      // disambiguate against may have changed.
      if (!e.bogus) wake_store_waiters();
      if (p.step == MemStep::kStoreDone) {
        set_mem_phase(e, MemPhase::Done);
        cycle_activity = true;
      } else if (p.addr_t <= now) {
        // Address complete, data outstanding: look again when it lands.
        // (A wrong-path store's addr_t stays kNever.)
        wake_at(p.data_t, idx, kMemWake, p.data_blocker);
      }
      return;
    }
    if (p.store_wait)
      bit_set(lsq_store_wait, e.lsq_slot);
    else
      bit_clear(lsq_store_wait, e.lsq_slot);

    switch (p.step) {
      case MemStep::kNone:
      case MemStep::kStoreDone:
        return;
      case MemStep::kBogusLoad:
        e.data_cycle = now + mem.l1d().hit_latency();
        e.data_final = true;
        set_mem_phase(e, MemPhase::Done);
        publish_load_data(idx);  // wrong-path consumers still schedule
        return;
      case MemStep::kLoadAgen:
        load_agen(e, idx, p, ports_used);
        return;
      case MemStep::kVerify:
        if (e.predicted_way != -3) {
          verify_load(e);
          return;
        }
        // Speculative partial-match forward: the full address settles
        // whether the forwarded value was the architecturally loaded one.
        if (e.spec_forward_value == e.oracle.load_value) {
          e.data_final = true;
          set_mem_phase(e, MemPhase::Done);
          cycle_activity = true;
          if (obs_on) emit_verify(e, 4, e.data_cycle, false);
        } else {
          ++stats.spec_forward_misses;
          if (obs_on) emit_verify(e, 5, 0, true);
          reset_load(e);
          // Data regressed to undefined: replay the dependence cone.
          ++sched_epoch;
          cycle_activity = true;
          schedule_consumers(idx);
          run_relax();
        }
        return;
    }
  }

  void load_agen(RuuEntry& e, unsigned idx, const MemPlan& p,
                 unsigned& ports_used) {
    const DisambigResult& d = p.d;
    if (e.lsq_decision_cycle == kNever) {
      e.lsq_decision_cycle = now;
      cycle_activity = true;
      if (d.used_partial) {
        e.used_partial_lsq = true;
        ++stats.loads_issued_partial_lsq;
      }
      if (obs_on) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::LsqDecision;
        ev.cycle = now;
        ev.seq = e.seq;
        ev.pc = e.pc;
        ev.a = p.bits;
        ev.b = d.decision == LoadDecision::Forward       ? 1
               : d.decision == LoadDecision::SpecForward ? 2
                                                         : 0;
        ev.flags = d.used_partial ? obs::kFlagPartial : 0u;
        emit(ev);
      }
    }

    if (d.decision == LoadDecision::Forward) {
      ++stats.load_forwards;
      e.forwarded = true;
      e.forward_store = d.store_id;
      e.forward_store_seq = ruu[d.store_id].seq;
      e.data_cycle = now + 1;
      e.data_final = true;
      set_mem_phase(e, MemPhase::Done);
      // Replay edge: if the store's address/data times regress, this
      // load's forward must be revalidated.
      cons_pool.append(consumers[static_cast<unsigned>(d.store_id)],
                       ConsumerRef{idx, e.seq});
      publish_load_data(idx);
      return;
    }
    if (d.decision == LoadDecision::SpecForward) {
      ++stats.spec_forwards;
      e.forwarded = true;
      e.forward_store = d.store_id;
      e.forward_store_seq = ruu[d.store_id].seq;
      e.spec_forward_value = d.forwarded;
      e.data_cycle = now + 1;
      e.data_final = false;
      e.predicted_way = -3;
      set_mem_phase(e, MemPhase::Access);
      cons_pool.append(consumers[static_cast<unsigned>(d.store_id)],
                       ConsumerRef{idx, e.seq});
      publish_load_data(idx);
      return;
    }
    if (!p.access) return;
    if (ports_used >= kDCachePorts) {
      retry_this_cycle = true;  // port conflict: retry next cycle
      mark_mem_due(e);
      return;
    }
    ++ports_used;
    start_load_access(e, p.full_now ? 32 : p.bits);
    publish_load_data(idx);
    if (obs_on) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::CacheAccess;
      ev.cycle = now;
      ev.seq = e.seq;
      ev.pc = e.pc;
      ev.a = e.data_cycle;
      ev.b = p.bits;  // the text sink's label reads this, as the inline
                      // trace always did
      ev.flags = (e.used_partial_tag ? obs::kFlagPartial : 0u) |
                 (e.early_miss ? obs::kFlagEarly : 0u);
      emit(ev);
    }
  }

  // ---------------------------------------------------------------------------
  // selective replay: relaxation to a legal schedule
  // ---------------------------------------------------------------------------

  void schedule_relax(unsigned idx) {
    if (relax_queued[idx]) return;
    relax_queued[idx] = 1;
    relax_work.push_back(idx);
  }

  // Queue every live dependent of `idx` for replay revalidation, pruning
  // edges to recycled entries along the way. Order is preserved (the relax
  // work list order feeds the replay fixpoint exactly as the vector did);
  // dead edges are unlinked in place and returned to the node pool.
  void schedule_consumers(unsigned idx) {
    cons_pool.prune(consumers[idx], [this](const ConsumerRef& c) {
      const RuuEntry& d = ruu[c.idx];
      if (!d.valid || d.seq != c.seq) return false;
      schedule_relax(c.idx);
      return true;
    });
  }

  // Selective replay: relaxation to a legal schedule. The scan-based
  // scheduler re-validated the entire window to a global fixpoint after any
  // retiming; this walks only the transitive dependents of the changed
  // entries (the consumer edges registered at rename plus the dynamic
  // store->forwarded-load edges), which reaches the same fixpoint — an op's
  // legality depends only on its sources' recorded times, its own chain
  // predecessors and dispatch-time constants.
  void run_relax() {
    // Sub-phase timing: relaxation runs inside memory_progress, so this
    // time is *also* counted in hprof.memory (see obs/host_profile.hpp).
    HpClock::time_point t0;
    if (host_profile_on) t0 = HpClock::now();
    // Every slice-op reverts at most once per relaxation (nothing
    // re-selects inside it), loads, stores and branches regress at most
    // once each, and each regression re-queues at most a window of
    // consumers: a legal relaxation stays far below this many pops.
    // Passing it means the dependence graph has a cycle, reported as an
    // error instead of a hang.
    const std::size_t pop_limit = 8 * std::size_t{core.ruu_entries} *
                                  core.ruu_entries * (kMaxSlices + 4);
    std::size_t pops = 0;
    while (!relax_work.empty()) {
      const unsigned idx = relax_work.back();
      relax_work.pop_back();
      relax_queued[idx] = 0;
      RuuEntry& e = ruu[idx];
      if (++pops > pop_limit) {
        fail("selective replay did not converge after " +
             std::to_string(pop_limit) +
             " revalidations (at instruction seq " + std::to_string(e.seq) +
             ")");
        for (const unsigned i : relax_work) relax_queued[i] = 0;
        relax_work.clear();
        break;
      }
      if (!e.valid) continue;
      bool changed = false;

      // Revert this entry's slice-ops whose select is no longer legal, to a
      // local fixpoint (reverting one op can invalidate its chain
      // successor). Operand availability is checked against *current*
      // times: values never become available earlier than currently
      // recorded, so a select that still postdates every requirement
      // remains legal.
      bool again = true;
      while (again) {
        again = false;
        for (unsigned i = 0; i < e.num_ops; ++i) {
          Cycle& sel = op_sel(idx, i);
          if (sel == kNever) continue;  // not selected
          const Cycle ready = op_ready_time(e, i);
          if (ready == kNever || ready > sel) {
            sel = kNever;
            op_done(idx, i) = kNever;
            ++stats.op_replays;
            queue_op(idx, i);  // back into the scheduler queues
            changed = true;
            again = true;
            if (obs_on) {
              obs::TraceEvent ev;
              ev.kind = obs::EventKind::OpReplay;
              ev.cycle = now;
              ev.seq = e.seq;
              ev.pc = e.pc;
              ev.op_idx = i;
              ev.flags = e.num_ops > 1 ? obs::kFlagMultiOp : 0u;
              emit(ev);
            }
          }
        }
      }
      if ((e.flags & StaticInst::kFlagLoad) && !e.bogus) {
        changed |= revalidate_load(e);
      }
      if ((e.flags & StaticInst::kFlagStore) &&
          e.mem_phase == MemPhase::Done && !e.bogus) {
        const Cycle addr_t = agen_complete_cycle(e);
        const Cycle data_t = store_data_time(e);
        if (addr_t == kNever || addr_t > now || data_t == kNever ||
            data_t > now) {
          set_mem_phase(e, MemPhase::Agen);
          changed = true;
        }
      }
      if ((e.flags & StaticInst::kFlagCondBranch) && e.resolved &&
          !e.recovery_done) {
        // Resolution may have been based on a reverted compare op; let the
        // resolve scan recompute it. (A branch whose recovery already
        // redirected fetch keeps it: the direction was architecturally
        // correct, only its timing was optimistic.)
        ++hev.branch_checks;
        const Cycle rt = resolve_time(e);
        if (rt > e.resolve_cycle) {
          e.resolved = false;
          e.resolve_cycle = kNever;
          changed = true;
          // Still provable from the ops that stand: check again at the
          // next resolve phase (otherwise a re-selection wakes it).
          if (rt != kNever) wake_at(std::max(rt, now + 1), idx, kBranchWake);
        }
      }

      if (changed) {
        ++sched_epoch;
        cycle_activity = true;
      }
      // A store relays regressions onward even when nothing about the store
      // itself changed: a forwarded load compares against the store's
      // *source* times, which this entry-local check does not observe.
      if (changed || ((e.flags & StaticInst::kFlagStore) && !e.bogus))
        schedule_consumers(idx);
    }
    if (host_profile_on) hp_take(t0, hprof.replay);
  }

  bool revalidate_load(RuuEntry& e) {
    bool changed = false;
    // Forwarded data must still be legal: the decision cycle (data_cycle - 1)
    // must postdate the store's address, the store's data and — for a
    // confirmed (non-speculative) forward — the load's own full address.
    // A committed forwarding store is always legal.
    const bool spec_forward =
        e.forwarded && e.mem_phase == MemPhase::Access &&
        e.predicted_way == -3;
    if (e.forwarded && (e.mem_phase == MemPhase::Done || spec_forward)) {
      const Cycle decision = e.data_cycle - 1;
      bool legal = spec_forward ||
                   addr_bits_known_at(e, decision) == 32;
      const RuuEntry& s = ruu[e.forward_store];
      if (legal && s.valid && s.seq == e.forward_store_seq) {
        const Cycle dt = store_data_time(s);
        const Cycle at = agen_complete_cycle(s);
        legal = dt != kNever && dt <= decision && at != kNever &&
                at <= decision;
      }
      if (!legal) {
        reset_load(e);
        changed = true;
      }
    }
    // An access that started before its address bits were really there.
    if (e.access_start_cycle != kNever) {
      bool legal;
      if (e.used_partial_tag || e.early_miss) {
        const unsigned tag_lo = mem.l1d().geometry().tag_lo_bit();
        legal = addr_bits_known_at(e, e.access_start_cycle) > tag_lo;
      } else {
        const Cycle full_at = full_addr_cycle(e);
        legal = full_at != kNever && full_at <= e.access_start_cycle;
      }
      if (!legal) {
        reset_load(e);
        changed = true;
      }
    }
    return changed;
  }

  void reset_load(RuuEntry& e) {
    set_mem_phase(e, MemPhase::Agen);
    e.lsq_decision_cycle = kNever;
    e.access_start_cycle = kNever;
    e.data_cycle = kNever;
    e.true_data_cycle = kNever;
    e.data_final = false;
    e.forwarded = false;
    e.forward_store = -1;
    e.predicted_way = -1;
    ++stats.load_replays;
  }

  // ---------------------------------------------------------------------------
  // branch resolution & recovery
  // ---------------------------------------------------------------------------

  // Earliest cycle at which the branch outcome is provable from the compare
  // slice-ops that have executed; kNever if not yet provable.
  Cycle resolve_time(const RuuEntry& e) const {
    const unsigned idx = eidx(e);
    // kFlagEarlyEq is predecoded as: BranchEq, multi-op, EarlyBranch on.
    if (!(e.flags & StaticInst::kFlagEarlyEq)) return last_op_done(idx);

    // BranchEq with early resolution: a differing slice proves "not equal"
    // the moment its comparison completes; equality needs all slices.
    const u32 a = e.oracle.src1_value, b = e.oracle.src2_value;
    if (a == b) return last_op_done(idx);
    const Cycle* d = op_done_row(idx);
    Cycle best = kNever;
    for (unsigned s = 0; s < e.num_ops; ++s) {
      if (slice_get(geom, a, s) == slice_get(geom, b, s)) continue;
      if (d[s] != kNever) best = std::min(best, d[s]);
    }
    return best;
  }

  void squash_younger_than(u64 seq) {
    while (ruu_count > 0 && youngest().seq > seq) {
      RuuEntry& victim = youngest();
      if (obs_on) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::Squash;
        ev.cycle = now;
        ev.seq = victim.seq;
        ev.pc = victim.pc;
        ev.flags = victim.bogus ? obs::kFlagBogus : 0u;
        // Cause taxonomy (obs/trace.hpp): squashes are always charged to
        // the branch-squash leaf, so traces agree with the CPI stack.
        ev.b = 1 + static_cast<u64>(obs::CpiCause::BrSquash);
        emit(ev);
      }
      if (victim.flags & StaticInst::kFlagMem) {
        assert(!lsq.empty() &&
               lsq.back() == static_cast<int>(ruu_index(ruu_count - 1)));
        lsq_forget(victim);
        lsq.pop_back();
        if (victim.mem_phase != MemPhase::Done) --mem_active_;
      }
      // Unwind the rename map from the undo log, youngest-first and in
      // reverse of dispatch's write order. This replaces the scan-based
      // O(RUU) rebuild; a restored reference to a since-committed producer
      // fails its seq check everywhere and thus reads as from-regfile,
      // exactly as the rebuild (which never sees committed producers)
      // produced.
      if (victim.flags & StaticInst::kFlagWritesHiLo) {
        rename[kLoReg] = victim.prev_lo;
        rename[kHiReg] = victim.prev_hi;
      }
      const unsigned dest = victim.si->dest_ext;
      if (dest != 0) rename[dest] = victim.prev_dest;
      victim.valid = false;  // queued scheduler refs die via this
      --ruu_count;
    }
  }

  // Could selecting op `op` of branch `e` make its resolve time finite or
  // earlier? Mirrors resolve_time(): a differing compare slice proves
  // "not equal" on its own; otherwise the outcome needs every op, so only
  // the last one selected (which also completes last) can prove it.
  bool may_prove_outcome(const RuuEntry& e, unsigned idx, unsigned op) const {
    if (e.flags & StaticInst::kFlagEarlyEq) {
      const u32 a = e.oracle.src1_value, b = e.oracle.src2_value;
      if (a != b) return slice_get(geom, a, op) != slice_get(geom, b, op);
    }
    for (unsigned i = 0; i < e.num_ops; ++i)
      if (!op_selected(idx, i)) return false;
    return true;
  }

  // The one "can this branch resolve now?" predicate, shared by the
  // resolve phase and the invariant check: its outcome is provable by this
  // cycle (the proving cycle goes to `rt`).
  bool branch_resolvable(const RuuEntry& e, Cycle& rt) const {
    rt = resolve_time(e);
    return rt != kNever && rt <= now;
  }

  void resolve_and_recover() {
    // Only branches woken at a cycle their outcome may become provable
    // (note_selected, run_relax) are checked, oldest first: predictor
    // training and the first-mispredict recovery keep dispatch order, and
    // a recovery squashes every younger branch, whose refs then fail the
    // seq check.
    if (branch_due.size() > 1)
      std::sort(branch_due.begin(), branch_due.end(),
                [](const ConsumerRef& x, const ConsumerRef& y) {
                  return x.seq < y.seq;
                });
    u64 last_seq = 0;
    for (const ConsumerRef& c : branch_due) {
      RuuEntry& e = ruu[c.idx];
      if (c.seq == last_seq) continue;  // woken twice this cycle
      last_seq = c.seq;
      if (!e.valid || e.seq != c.seq || e.resolved) continue;
      ++hev.branch_checks;
      Cycle rt = kNever;
      if (!branch_resolvable(e, rt)) continue;
      ++hev.branch_resolves;
      e.resolved = true;
      e.resolve_cycle = rt;
      cycle_activity = true;
      if (!ops_done(c.idx, rt)) ++stats.early_resolved_branches;
      if (obs_on) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::BranchResolve;
        ev.cycle = now;
        ev.seq = e.seq;
        ev.pc = e.pc;
        ev.a = rt;
        ev.flags = (ops_done(c.idx, rt) ? 0u : obs::kFlagEarly) |
                   (e.mispredicted ? obs::kFlagMispredicted : 0u);
        emit(ev);
      }

      predictor.resolve(e.pc, e.inst, e.oracle.branch_taken,
                        e.oracle.next_pc, e.history_checkpoint);

      if (e.mispredicted && !e.recovery_done) {
        e.recovery_done = true;
        if (e.flags & StaticInst::kFlagCondBranch)
          predictor.repair_history(e.history_checkpoint,
                                   e.oracle.branch_taken);
        else
          predictor.repair_history_exact(e.history_checkpoint);
        squash_younger_than(e.seq);
        fetch_q.clear();
        fetch_pc = e.oracle.next_pc;
        fetch_stall_until = now + 1;
        wrong_path = false;
        cpi_refill_pending = true;  // empty-RUU cycles until the redirected
                                    // path dispatches are squash shadow
      }
    }
    branch_due.clear();
    if (kCheckInvariants) {
      for (unsigned pos = 0; pos < ruu_count; ++pos) {
        const RuuEntry& e = entry_at(pos);
        Cycle rt = kNever;
        if ((e.flags & StaticInst::kFlagWatched) && !e.bogus && !e.resolved &&
            branch_resolvable(e, rt))
          fail("invariant: the resolve phase skipped branch seq " +
               std::to_string(e.seq) + ", provable since cycle " +
               std::to_string(rt));
      }
    }
  }

  // ---------------------------------------------------------------------------
  // commit
  // ---------------------------------------------------------------------------

  bool committable(const RuuEntry& e) const {
    if (e.bogus) return false;
    if (!ops_done(eidx(e), now)) return false;
    const u16 fl = e.flags;
    if (fl & StaticInst::kFlagLoad)
      return e.data_final && e.data_cycle <= now;
    if (fl & StaticInst::kFlagStore) return e.mem_phase == MemPhase::Done;
    if (fl & StaticInst::kFlagWatched)
      return e.resolved && e.resolve_cycle <= now;
    return true;
  }

  // Batched commit: committability is a pure function of entry state and
  // `now` — it never depends on same-cycle commits — so the retirement run
  // length is fixed by one pre-scan of the head before any bookkeeping
  // starts. The run is then processed with stats deltas accumulated in
  // registers and flushed once. Invariant: the deltas are flushed before
  // *every* exit path, including commit-stream failures mid-run.
  void commit() {
    if (ruu_count == 0 || stats.committed >= max_commits_) return;
    const u64 budget = std::min<u64>(core.commit_width,
                                     max_commits_ - stats.committed);
    unsigned run = 0;
    while (run < budget && run < ruu_count) {
      const RuuEntry& e = entry_at(run);
      if (e.bogus || !committable(e)) break;
      ++run;
    }
    u64 d_committed = 0, d_loads = 0, d_stores = 0, d_branches = 0;
    u64 d_mispredicts = 0, d_l1d_hits = 0, d_l1d_misses = 0;
    const auto flush = [&] {
      stats.committed += d_committed;
      stats.loads += d_loads;
      stats.stores += d_stores;
      stats.branches += d_branches;
      stats.branch_mispredicts += d_mispredicts;
      stats.l1d_hits += d_l1d_hits;
      stats.l1d_misses += d_l1d_misses;
    };

    for (unsigned k = 0; k < run; ++k) {
      RuuEntry& e = entry_at(0);

      // Commit-stream check: the entry must be the next oracle step. A
      // wrong-path, skipped, repeated or reordered entry fails here.
      if (inject_at_ != 0 && commit_steps_ + 1 == inject_at_) ++commit_steps_;
      if (e.bogus || e.step != commit_steps_) {
        std::ostringstream os;
        os << "co-simulation divergence at pc 0x" << std::hex << e.pc
           << std::dec << ": committed "
           << (e.bogus ? "a wrong-path entry"
                       : "oracle step " + std::to_string(e.step))
           << ", expected step " << commit_steps_;
        flush();
        fail(os.str());
        return;
      }
      ++commit_steps_;

      // Stores drain to the cache at commit (write buffer hides latency).
      if (e.flags & StaticInst::kFlagStore) {
        bool hit = false;
        mem.data_latency(e.oracle.mem_addr, true, &hit);
        if (hit) ++d_l1d_hits; else ++d_l1d_misses;
        ++d_stores;
      }
      if (e.flags & StaticInst::kFlagLoad) {
        ++d_loads;
        if (detail && e.data_cycle >= e.dispatch_cycle)
          detail->load_to_use.add(e.data_cycle - e.dispatch_cycle);
      }
      if (e.flags & StaticInst::kFlagCondBranch) {
        ++d_branches;
        if (e.mispredicted) ++d_mispredicts;
        if (detail && e.resolve_cycle >= e.dispatch_cycle)
          detail->branch_resolve_delay.add(e.resolve_cycle - e.dispatch_cycle);
      }

      // Free the rename mapping if still pointing here.
      const unsigned idx = ruu_index(0);
      const unsigned dest = e.si->dest_ext;
      if (dest != 0 && rename[dest].index == static_cast<int>(idx) &&
          rename[dest].seq == e.seq)
        rename[dest] = ProducerRef{};
      for (const unsigned hr : {kHiReg, kLoReg})
        if (rename[hr].index == static_cast<int>(idx) &&
            rename[hr].seq == e.seq)
          rename[hr] = ProducerRef{};

      if (e.flags & StaticInst::kFlagMem) {
        assert(!lsq.empty() && lsq.front() == static_cast<int>(idx));
        lsq_forget(e);
        lsq.pop_front();  // committable mem ops are always Done
        // The store leaves every younger load's view of older stores.
        if (e.flags & StaticInst::kFlagStore) wake_store_waiters();
      }

      if (obs_on) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::Commit;
        ev.cycle = now;
        ev.seq = e.seq;
        ev.pc = e.pc;
        ev.a = e.dispatch_cycle;
        emit(ev);
      }
      e.valid = false;
      // Nothing waits on a committing entry: every one of its times is
      // defined (committable() checked), an op only registers on an
      // undefined time, and defining a time wakes its list. Dispatch
      // recycles the (empty) lists when the slot is reused.
      if (kCheckInvariants && !waiters_empty(idx))
        fail("invariant: committing entry seq " + std::to_string(e.seq) +
             " still has waiters");
      ruu_head = ruu_head + 1 == core.ruu_entries ? 0 : ruu_head + 1;
      --ruu_count;
      ++d_committed;

      // The oracle stepped the exit syscall when it dispatched this entry.
      if (e.caused_exit) {
        flush();
        last_commit_cycle = now;
        cycle_activity = true;
        exited = true;
        exit_code = oracle.exit_code();
        return;
      }
    }
    flush();
    if (run > 0) {
      last_commit_cycle = now;
      cycle_activity = true;
    }
    // A bogus entry *reaching the head* with retirement budget left is a
    // simulator bug (wrong-path state must be squashed before commit);
    // entries merely queued behind a non-committable head just wait.
    if (run < budget && ruu_count > 0 && entry_at(0).bogus)
      fail("bogus entry reached commit");
  }

  // ---------------------------------------------------------------------------
  // main loop
  // ---------------------------------------------------------------------------

  u64 max_commits_ = 0;
  Cycle measure_base_cycle = 0;

  // Why is the oldest RUU entry (or the empty RUU) not retiring this cycle?
  // Evaluated once per loop iteration, after the pipeline phases, and
  // applied to every wasted commit slot the iteration covers (the current
  // cycle plus any idle-skipped span — during a skip the head's state is
  // frozen, so one answer holds for the whole span). A requirement that
  // completed *exactly at* `now` still blocked this cycle's commit (commit
  // runs first), so the "outstanding" tests below are >= now, not > now.
  // Charging rules are documented in docs/ARCHITECTURE.md §13.
  obs::CpiCause classify_stall() {
    using obs::CpiCause;
    // The measurement budget was exhausted mid-cycle: the leftover slots
    // are an end-of-run artifact, not a pipeline stall.
    if (stats.committed >= max_commits_) return CpiCause::Drain;
    if (ruu_count == 0) {
      if (halted) return CpiCause::Drain;
      if (cpi_refill_pending) return CpiCause::BrSquash;
      if (now < fetch_stall_until) return CpiCause::FeIcache;
      return CpiCause::FeFill;
    }
    RuuEntry& e = entry_at(0);
    const unsigned idx = eidx(e);
    // Oldest outstanding slice-op: selected means execution latency (or a
    // full window behind it), unselected means operands — the low slice
    // for op 0, the cross-slice chain otherwise.
    const Cycle* d = op_done_row(idx);
    for (unsigned i = 0; i < e.num_ops; ++i) {
      if (d[i] < now) continue;
      if (op_selected(idx, i))
        return ruu_count >= core.ruu_entries ? CpiCause::RuuFull
                                             : CpiCause::ExecUnit;
      return i == 0 ? CpiCause::SliceLow : CpiCause::SliceChain;
    }
    const u16 fl = e.flags;
    if (fl & StaticInst::kFlagLoad) {
      if (!e.data_final || e.data_cycle >= now) {
        switch (e.mem_phase) {
          case MemPhase::Agen:
            // Address generated but the access has not started: the LSQ
            // has not (or only just) let the load proceed.
            return e.lsq_decision_cycle >= now ? CpiCause::LsqDisambig
                                               : CpiCause::Dcache;
          case MemPhase::Access:
            if (e.predicted_way == -3) return CpiCause::SpecForward;
            if (e.used_partial_tag) return CpiCause::PartialTag;
            return CpiCause::Dcache;
          case MemPhase::Done:
            // Data present but not final (or it only landed this cycle):
            // a verification / retiming window.
            if (e.used_partial_tag) return CpiCause::PartialTag;
            if (e.forwarded) return CpiCause::LsqDisambig;
            return CpiCause::Dcache;
        }
      }
    } else if (fl & StaticInst::kFlagStore) {
      if (e.mem_phase != MemPhase::Done) return CpiCause::StoreData;
    }
    if ((fl & StaticInst::kFlagWatched) &&
        (!e.resolved || e.resolve_cycle >= now))
      return CpiCause::BrResolve;
    return CpiCause::Other;
  }

  // Earliest future cycle at which anything can happen: a scheduled wakeup
  // or timer (op completions, load data returns, verify points), the front
  // slot becoming dispatchable, a fetch stall expiring — or, failing all of
  // those, the exact cycle the watchdog would trip.
  Cycle next_event_cycle() const {
    Cycle next = std::min(last_commit_cycle + watchdog + 1, wheel.next());
    next = std::min(next, dispatch_blocked_until);
    if (!halted && now < fetch_stall_until)
      next = std::min(next, fetch_stall_until);
    return std::max(next, now + 1);
  }

  SimResult run(u64 max_commits, u64 warmup_commits) {
    const WallTimer timer;
    max_commits_ = warmup_commits + max_commits;
    bool warm = warmup_commits == 0;
    SimResult result;
    obs_on = !sinks.empty();
    if (obs_on) {
      obs::TraceMeta meta;
      meta.slices = core.slices;
      meta.config = cfg.describe();
      for (obs::TraceSink* s : sinks) s->begin(meta);
    }
    if (sampler) sampler->begin(cfg.describe());
    // Host-phase profiling: one fence-post clock read per phase per cycle
    // when enabled (hp_take both accumulates and re-stamps); six dead
    // predictable branches per cycle when not.
    const bool hp = host_profile_on;
    HpClock::time_point hp_t;
    while (error.empty() && !exited && stats.committed < max_commits_) {
      if (!warm && stats.committed >= warmup_commits) {
        // Discard warm-up statistics; microarchitectural state stays hot.
        warm = true;
        max_commits_ = max_commits;
        measure_base_cycle = now;
        const u64 extra = stats.committed - warmup_commits;
        stats = SimStats{};
        stats.committed = extra;
        hev = HostEvents{};
        if (sampler) sampler->rebase(stats);  // cycles already 0-based here
      }
      if (detail) {
        detail->ruu_occupancy.add(ruu_count);
        detail->lsq_occupancy.add(lsq.size());
      }
      cycle_activity = false;
      retry_this_cycle = false;
      const u64 committed_before = stats.committed;
      if (hp) hp_t = HpClock::now();
      drain_wakeups();
      if (hp) hp_take(hp_t, hprof.select);
      commit();
      if (hp) hp_take(hp_t, hprof.commit);
      if (detail) detail->commit_width.add(stats.committed - committed_before);
      if (warm && sampler && sampler->due(stats.committed)) {
        // stats.cycles is only assigned after the run; rows need the
        // current measured-relative cycle, so sample an adjusted copy.
        SimStats snap = stats;
        snap.cycles = now - measure_base_cycle;
        sampler->sample(snap);
      }
      if (!error.empty() || exited) break;
      resolve_and_recover();
      if (hp) hp_take(hp_t, hprof.resolve);
      select_and_execute();
      if (hp) hp_take(hp_t, hprof.select);
      // After select so sum-addressed accesses can overlap the agen op that
      // was picked this very cycle; the done-based (conventional/partial)
      // paths see identical timing either way.
      memory_progress();
      if (hp) hp_take(hp_t, hprof.memory);
      dispatch();
      if (hp) hp_take(hp_t, hprof.dispatch);
      fetch();
      if (hp) {
        hp_take(hp_t, hprof.fetch);
        ++hprof.loop_cycles;
      }
      if (kCheckInvariants) {
        const std::string why = wheel.check(now);
        if (!why.empty()) fail("invariant: event wheel: " + why);
      }
      // Idle skip: a cycle in which nothing changed, nothing is awaiting
      // selection and no port-blocked load retries cannot enable anything
      // next cycle either — jump straight to the next scheduled event. The
      // skipped cycles are indistinguishable from singly-stepped idle ones,
      // so stats stay bit-identical; the occupancy histograms are backfilled
      // with the (frozen) per-cycle samples the stepped loop would have
      // taken.
      Cycle next = now + 1;
      if (!cycle_activity && !retry_this_cycle && pending.empty())
        next = next_event_cycle();
      // CPI-stack charging: this iteration consumes cycles [now, next-1] —
      // width slots each. `base_slots` of them retired instructions; every
      // other slot is charged to the one cause blocking the commit head.
      // The loop's exit paths (error/exit break above, run end) leave the
      // aborted cycle both uncounted in stats.cycles and uncharged, which
      // is what makes sum(cpi_*) == cycles * width exact for every run.
      const u64 base_slots = stats.committed - committed_before;
      const u64 width = core.commit_width;
      obs::CpiCause stall_cause = obs::CpiCause::Base;
      if ((cpi_on && (base_slots < width || next > now + 1)) ||
          (obs_on && next > now + 1))
        stall_cause = classify_stall();
      if (cpi_on) {
        stats.cpi_base += base_slots;
        const u64 stall = (width - base_slots) + width * (next - now - 1);
        if (stall) {
          const obs::CpiLeafDesc& leaf =
              obs::cpi_leaves()[static_cast<unsigned>(stall_cause)];
          stats.*leaf.field += stall;
        }
      }
      if (next > now + 1) {
        const u64 skipped = next - now - 1;
        stats.idle_cycles_skipped += skipped;
        if (obs_on) {
          obs::TraceEvent ev;
          ev.kind = obs::EventKind::IdleSkip;
          ev.cycle = now + 1;  // the skipped span starts next cycle
          ev.a = skipped;
          // Cause taxonomy (obs/trace.hpp): what the skipped span was
          // waiting for, so traces agree with the CPI stack.
          ev.b = 1 + static_cast<u64>(stall_cause);
          emit(ev);
        }
        if (detail) {
          detail->ruu_occupancy.add(ruu_count, skipped);
          detail->lsq_occupancy.add(lsq.size(), skipped);
          detail->commit_width.add(0, skipped);
          detail->idle_skip_length.add(skipped);
        }
      }
      now = next;
      if (now - last_commit_cycle > watchdog) {
        fail("watchdog: no instruction committed for " +
             std::to_string(watchdog) + " cycles");
      }
    }
    stats.cycles = now - measure_base_cycle;
    stats.host_seconds = timer.seconds();
    if (sampler && warm) sampler->finish(stats);
    if (host_profile_on) {
      hprof.enabled = true;
      stats.host_profile = hprof;
    }
    if (obs_on)
      for (obs::TraceSink* s : sinks) s->end();
    result.stats = stats;
    result.exited = exited;
    result.exit_code = exit_code;
    result.error = error;
    return result;
  }
};

Simulator::Simulator(const MachineConfig& config, const Program& program)
    : cfg_(checked_config(config)),
      impl_(std::make_unique<Impl>(config, program)) {}

Simulator::Simulator(const MachineConfig& config, const Program& program,
                     const Checkpoint& start)
    : Simulator(config, program) {
  restore_checkpoint(impl_->oracle, start);
  impl_->fetch_pc = start.pc;
}

Simulator::Simulator(Simulator&&) noexcept = default;
Simulator& Simulator::operator=(Simulator&&) noexcept = default;
Simulator::~Simulator() = default;

SimResult Simulator::run(u64 max_commits, u64 warmup_commits) {
  return impl_->run(max_commits, warmup_commits);
}

void Simulator::set_pipe_trace(std::ostream& os, Cycle start, Cycle end) {
  if (impl_->owned_pipe_sink) {  // re-target: drop the previous sink
    auto& v = impl_->sinks;
    v.erase(std::remove(v.begin(), v.end(), impl_->owned_pipe_sink.get()),
            v.end());
  }
  impl_->owned_pipe_sink =
      std::make_unique<obs::PipeTextSink>(os, start, end);
  impl_->sinks.push_back(impl_->owned_pipe_sink.get());
}

void Simulator::add_trace_sink(obs::TraceSink* sink) {
  if (sink) impl_->sinks.push_back(sink);
}

void Simulator::set_interval_sampler(obs::IntervalSampler* sampler) {
  impl_->sampler = sampler;
}

void Simulator::enable_cpi_stack() { impl_->cpi_on = true; }

void Simulator::enable_host_profile() { impl_->host_profile_on = true; }

unsigned Simulator::scratch_reallocations() const {
  return impl_->scratch_reallocations();
}

const HostEvents& Simulator::host_events() const { return impl_->hev; }

void Simulator::enable_detail() {
  if (!impl_->detail) impl_->detail = std::make_unique<DetailedStats>();
}

const DetailedStats& Simulator::detail() const {
  assert(impl_->detail && "enable_detail() before run()");
  return *impl_->detail;
}

SimResult simulate(const MachineConfig& config, const Program& program,
                   u64 max_commits, u64 warmup_commits) {
  return Simulator(config, program).run(max_commits, warmup_commits);
}

SimResult simulate(const MachineConfig& config, const Program& program,
                   const Checkpoint& start, u64 max_commits,
                   u64 warmup_commits) {
  return Simulator(config, program, start).run(max_commits, warmup_commits);
}

}  // namespace bsp
