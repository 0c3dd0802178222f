#include "core/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <array>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/mem_pipeline.hpp"
#include "core/ruu.hpp"
#include "core/select_order.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/interval.hpp"
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

// Classes whose execution can be decomposed into per-slice micro-ops. The
// rest run as one op: mul/div, jumps, syscalls, and FP, which executes on
// full-collect units (paper §6).
bool is_sliceable(ExecClass cls) {
  switch (cls) {
    case ExecClass::Logic: case ExecClass::Add: case ExecClass::ShiftLeft:
    case ExecClass::ShiftRight: case ExecClass::Compare:
    case ExecClass::MfHiLo: case ExecClass::Load: case ExecClass::Store:
    case ExecClass::BranchEq: case ExecClass::BranchSign:
      return true;
    default:
      return false;
  }
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

  Impl(const MachineConfig& config, const Program& program,
       const Checkpoint* start)
      : cfg(config),
        core(cfg.core),
        geom(core.slice_geometry()),
        sliced_sched(core.has(Technique::PartialBypass)),
        text_base(program.text_base),
        text_end(program.text_end()),
        oracle(program, start),
        predictor(cfg.branch),
        mem(cfg.memory),
        ruu(core.ruu_entries, geom, core.has(Technique::SumAddressed)),
        ifq_capacity(std::max<unsigned>(32, 8 * core.fetch_width)),
        watchdog(watchdog_cycles(cfg.memory)) {
    fetch_q.init(ifq_capacity + core.fetch_width);
    // Pre-size the waiter pool and scheduler buffers from the machine shape:
    // at most ruu_entries * geometry slice-ops are in flight, each resident
    // in exactly one waiter list / wheel slot / pending (stale refs add a
    // small constant factor), and each selected memory or branch op holds
    // at most one timed wake for the memory / resolve phases, plus one
    // verify or store-data wake per LSQ entry. Reserving here keeps the
    // steady state free of heap allocation on the dispatch/wakeup hot
    // paths; the steady-state test asserts these capacities never grow
    // (scratch_reallocations()).
    const std::size_t max_ops = std::size_t{core.ruu_entries} * geom.count;
    ruu.wait_pool.reserve(3 * max_ops + 2 * std::size_t{core.lsq_entries} +
                          64);
    pending.reserve(2 * max_ops + 64);
    cand_scratch.reserve(2 * max_ops + 64);
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
    fetch_pc = oracle.pc();
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
    return {ruu.wait_pool.capacity(),     ruu.cons_pool.capacity(),
            pending.capacity(),           cand_scratch.capacity(),
            mem_pipe.scratch_capacity(),  ruu.relax_work.capacity(),
            branch_due.capacity(),        wheel.far_capacity(),
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

  Ruu ruu;

  // Every future event: ops whose computed ready cycle is in the future and
  // timed memory/branch wakes (pool nodes in the wheel's slots, or past
  // its 1,024-cycle horizon in its far tier), plus timers — cycles at
  // which something can happen without a queued ref (op completions, load
  // data returns), which the idle skip must not jump past. Within-slot
  // order is irrelevant: candidates are sorted by their unique
  // (seq, visit-pos) key before selection, and woken branches by seq.
  EventWheel<OpRef> wheel{ruu.wait_pool};
  // Ops ready at (or before) the current cycle, awaiting selection.
  std::vector<OpRef> pending;
  // Reused scratch buffers (capacity reserved at construction; the
  // steady-state test asserts they never grow).
  std::vector<OpRef> cand_scratch;
  // Waiter lists of the ops selected this cycle, woken after the candidate
  // walk (an op selects at most once per cycle, so no list repeats).
  std::vector<unsigned> wake_scratch;
  // Host-side scheduler event counts (Simulator::host_events()).
  HostEvents hev;
  // Correct-path branches whose resolve time may have arrived this cycle
  // (kBranchWake refs drained from the wheel), checked in seq order by
  // the resolve phase; duplicates and dead refs are skipped there.
  std::vector<ConsumerRef> branch_due;
  // Set by any state mutation this cycle; a fully quiet cycle with no
  // load retrying a D-cache port is when the idle skip may fast-forward.
  bool cycle_activity = false;
  // When dispatch stops because the front slot is still in flight (rather
  // than for lack of RUU/LSQ space), the cycle it becomes dispatchable.
  Cycle dispatch_blocked_until = kNever;

  // Line address of the last I-cache probe (see fetch()); ~0u is never a
  // line address, so the first fetch always probes.
  u32 last_fetch_line_ = ~0u;

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
  // single predictable branch when nothing is attached.
  std::vector<obs::TraceSink*> sinks;
  bool obs_on = false;
  void emit(const obs::TraceEvent& ev) {
    for (obs::TraceSink* s : sinks) s->event(ev);
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

  // The LSQ and everything that moves a load or store through it; it calls
  // back into this scheduler (the Sched hooks below).
  MemPipeline<Impl> mem_pipe{ruu, mem, core, *this, stats, hev, now};

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

  // ---------------------------------------------------------------------------
  // event-driven scheduler plumbing
  // ---------------------------------------------------------------------------

  // Puts pool node `n` carrying `ref` where its time says: the waiter list
  // `blocker` while the time is undefined, the due sets once it has
  // arrived, else the event wheel at that cycle. Forced inline: every
  // wakeup and queue_op ends here.
  [[gnu::always_inline]] void place_node(int n, const OpRef& ref, Cycle ready,
                                         unsigned blocker) {
    if (ready == kNever) {
      ruu.wait_pool.link_back(ruu.waiters[blocker], n, ref);
    } else if (ready <= now) {
      route_due(ref);
      ruu.wait_pool.release(n);
    } else {
      hev.far_spills += wheel.push(ready, n, ref);
    }
  }

  // (Re)tracks an unselected op in exactly one scheduler structure, chosen
  // by its current ready time.
  void queue_op(unsigned idx, unsigned op_idx) {
    ++hev.queue_ops;
    unsigned blocker = 0;
    const Cycle ready = ruu.op_ready_time(ruu[idx], op_idx, &blocker);
    place_node(ruu.wait_pool.alloc(), ruu.fresh_ref(idx, op_idx), ready,
               blocker);
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
    if (r.op_idx == kMemWake)
      mem_pipe.mark_due(e);
    else
      branch_due.push_back(ConsumerRef{r.idx, r.seq});
  }

  // Schedules a wake of kind `kind` for entry `idx` at cycle `c` — or, if
  // `c` is still undefined, when waiter list `blocker` is woken.
  void wake_at(Cycle c, unsigned idx, unsigned kind, unsigned blocker = 0) {
    place_node(ruu.wait_pool.alloc(), OpRef{idx, ruu[idx].seq, kind, 0, 0, 0},
               c, blocker);
  }

  // The time waiter list `list` stands for was published (an op was
  // selected, or load data was scheduled): re-evaluate every op blocked on
  // it, and every store whose data waited on it. Each node is relinked
  // straight into its next list or wheel slot (place_node).
  void wake_waiters(unsigned list) {
    // Detach the whole list first: its time now exists, so the walk's
    // re-registrations all land on other lists.
    int n = ruu.wait_pool.take(ruu.waiters[list]);
    if (n < 0) return;
    ++hev.wakes;
    while (n >= 0) {
      ++hev.waiter_visits;
      const OpRef r = ruu.wait_pool[n].ref;
      const int next = ruu.wait_pool[n].next;
      unsigned blocker = 0;
      if (r.op_idx == kMemWake) {
        const RuuEntry& e = ruu[r.idx];
        if (e.valid && e.seq == r.seq && e.mem_phase != MemPhase::Done)
          place_node(n, r, ruu.store_data_time(e, &blocker), blocker);
        else
          ruu.wait_pool.release(n);
      } else if (ruu.ref_entry(r)) {
        const Cycle ready =
            ruu.op_ready_time(ruu[r.idx], r.op_idx, &blocker);
        if (ready == kNever) {
          ++hev.reregisters;
          hev.same_list_reregisters += blocker == list;
        }
        place_node(n, ruu.fresh_ref(r.idx, r.op_idx), ready, blocker);
      } else {
        ruu.wait_pool.release(n);
      }
      n = next;
    }
  }

  // --- the hooks MemPipeline calls (see core/mem_pipeline.hpp) --------------

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
    wake_waiters(ruu.data_list(idx));
  }
  // Load idx's data time moved later (or back to undefined): everything
  // scheduled against it, and transitively its dependents, is re-examined.
  void replay(unsigned idx) {
    ++ruu.sched_epoch;
    cycle_activity = true;
    ruu.schedule_consumers(idx);
    run_relax();
  }
  void note_activity() { cycle_activity = true; }
  bool tracing() const { return obs_on; }

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
    if (cls == ExecClass::FpMul || cls == ExecClass::FpDiv ||
        cls == ExecClass::FpSqrt)
      f |= StaticInst::kFlagFpMulDiv;
    if (cls == ExecClass::FpAlu || cls == ExecClass::FpCompare ||
        cls == ExecClass::FpBranch)
      f |= StaticInst::kFlagFpAlu;
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
    const unsigned idx = ruu.index(ruu.count);
    RuuEntry& e = ruu[idx];
    e.reset_for_dispatch();
    ruu.recycle_lists(idx);
    const StaticInst* si = slot.si;
    e.valid = true;
    e.seq = next_seq++;
    e.pc = slot.pc;
    e.dispatch_cycle = now;
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

    // Copy the predecoded schedule shape.
    e.si = si;
    e.inst = si->inst;
    e.flags = si->flags;
    e.num_ops = si->num_ops;
    e.op_latency = si->op_latency;
    e.order = si->order;
    e.ready_floor = now + core.issue_to_exec_stages;
    ruu.reset_ops(idx);

    e.res_kind = si->res_kind;
    if (!e.bogus && (si->flags & StaticInst::kFlagNarrowCand)) {
      // The result is a sign extension of its low slice.
      const u32 v = e.oracle.dest_value;
      if (sign_extend(v & low_mask(geom.width()), geom.width()) == v) {
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
        ruu.cons_pool.append(ruu.consumers[static_cast<unsigned>(src.index)],
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

    if (si->flags & StaticInst::kFlagMem) mem_pipe.insert(e, idx);

    // Hand every slice-op to the scheduler queues (source-need masks come
    // from the predecoded row).
    for (unsigned i = 0; i < e.num_ops; ++i) queue_op(idx, i);

    ++ruu.count;
    ++stats.dispatched;
    cycle_activity = true;

    if (obs_on) {
      const std::string dis = disassemble(e.inst, e.pc);
      emit({.kind = obs::EventKind::Dispatch, .cycle = now, .seq = e.seq,
            .pc = e.pc,
            .flags = (e.bogus ? obs::kFlagBogus : 0u) |
                     (e.mispredicted ? obs::kFlagMispredicted : 0u),
            .text = dis.c_str()});
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
      if (ruu.count >= core.ruu_entries) break;
      if ((slot.si->flags & StaticInst::kFlagMem) && mem_pipe.full()) break;
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

  // Fetch resolves straight into the predecoded static table; off-text or
  // undecodable words fetch the shared nop row.
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
    if (e.flags & StaticInst::kFlagMem)
      mem_pipe.note_agen_selected(e, idx, done);
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
      RuuEntry* pe = ruu.ref_entry(r);
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
      if (r.epoch != ruu.sched_epoch) {
        const Cycle ready = ruu.op_ready_time(e, op_idx);
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
      ruu.op_sel(r.idx, op_idx) = now;
      ruu.op_done(r.idx, op_idx) = done;
      ++ruu.op_token(r.idx, op_idx);  // selected: retire the ref
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
      wake_scratch.push_back(ruu.op_list(r.idx, op_idx));
      if (obs_on)
        emit({.kind = obs::EventKind::OpSelect, .cycle = now, .seq = e.seq,
              .pc = e.pc, .flags = e.num_ops > 1 ? obs::kFlagMultiOp : 0u,
              .op_idx = op_idx, .a = done});
    }
    for (const unsigned list : wake_scratch) wake_waiters(list);
    wake_scratch.clear();
  }

  // ---------------------------------------------------------------------------
  // selective replay: relaxation to a legal schedule
  // ---------------------------------------------------------------------------
  // Walks only the transitive dependents of the changed entries (the
  // consumer edges registered at rename plus the dynamic
  // store->forwarded-load edges), which reaches the whole window's fixpoint:
  // an op's legality depends only on its sources' recorded times, its own
  // chain predecessors and dispatch-time constants.
  void run_relax() {
    // Sub-phase timing: relaxation runs inside the memory phase, so this
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
    while (!ruu.relax_work.empty()) {
      const unsigned idx = ruu.relax_work.back();
      ruu.relax_work.pop_back();
      ruu.relax_queued[idx] = 0;
      RuuEntry& e = ruu[idx];
      if (++pops > pop_limit) {
        fail("selective replay did not converge after " +
             std::to_string(pop_limit) +
             " revalidations (at instruction seq " + std::to_string(e.seq) +
             ")");
        for (const unsigned i : ruu.relax_work) ruu.relax_queued[i] = 0;
        ruu.relax_work.clear();
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
          Cycle& sel = ruu.op_sel(idx, i);
          if (sel == kNever) continue;  // not selected
          const Cycle ready = ruu.op_ready_time(e, i);
          if (ready == kNever || ready > sel) {
            sel = kNever;
            ruu.op_done(idx, i) = kNever;
            ++stats.op_replays;
            queue_op(idx, i);  // back into the scheduler queues
            changed = true;
            again = true;
            if (obs_on)
              emit({.kind = obs::EventKind::OpReplay, .cycle = now,
                    .seq = e.seq, .pc = e.pc,
                    .flags = e.num_ops > 1 ? obs::kFlagMultiOp : 0u,
                    .op_idx = i});
          }
        }
      }
      if ((e.flags & StaticInst::kFlagMem) && !e.bogus)
        changed |= mem_pipe.revalidate(e);
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
        ++ruu.sched_epoch;
        cycle_activity = true;
      }
      // A store relays regressions onward even when nothing about the store
      // itself changed: a forwarded load compares against the store's
      // *source* times, which this entry-local check does not observe.
      if (changed || ((e.flags & StaticInst::kFlagStore) && !e.bogus))
        ruu.schedule_consumers(idx);
    }
    if (host_profile_on) hp_take(t0, hprof.replay);
  }

  // ---------------------------------------------------------------------------
  // branch resolution & recovery
  // ---------------------------------------------------------------------------

  // Earliest cycle at which the branch outcome is provable from the compare
  // slice-ops that have executed; kNever if not yet provable.
  Cycle resolve_time(const RuuEntry& e) const {
    const unsigned idx = ruu.index_of(e);
    // kFlagEarlyEq is predecoded as: BranchEq, multi-op, EarlyBranch on.
    if (!(e.flags & StaticInst::kFlagEarlyEq)) return ruu.last_op_done(idx);

    // BranchEq with early resolution: a differing slice proves "not equal"
    // the moment its comparison completes; equality needs all slices.
    const u32 a = e.oracle.src1_value, b = e.oracle.src2_value;
    if (a == b) return ruu.last_op_done(idx);
    const Cycle* d = ruu.op_done_row(idx);
    Cycle best = kNever;
    for (unsigned s = 0; s < e.num_ops; ++s) {
      if (slice_get(geom, a, s) == slice_get(geom, b, s)) continue;
      if (d[s] != kNever) best = std::min(best, d[s]);
    }
    return best;
  }

  void squash_younger_than(u64 seq) {
    while (ruu.count > 0 && ruu.youngest().seq > seq) {
      RuuEntry& victim = ruu.youngest();
      // Cause taxonomy (obs/trace.hpp): squashes are always charged to the
      // branch-squash leaf, so traces agree with the CPI stack.
      if (obs_on)
        emit({.kind = obs::EventKind::Squash, .cycle = now,
              .seq = victim.seq, .pc = victim.pc,
              .flags = victim.bogus ? obs::kFlagBogus : 0u,
              .b = 1 + static_cast<u64>(obs::CpiCause::BrSquash)});
      if (victim.flags & StaticInst::kFlagMem)
        mem_pipe.squash_tail(victim);
      // Unwind the rename map from the undo log, youngest-first and in
      // reverse of dispatch's write order. A restored reference to a
      // since-committed producer fails its seq check everywhere and so
      // reads as from-regfile.
      if (victim.flags & StaticInst::kFlagWritesHiLo) {
        rename[kLoReg] = victim.prev_lo;
        rename[kHiReg] = victim.prev_hi;
      }
      const unsigned dest = victim.si->dest_ext;
      if (dest != 0) rename[dest] = victim.prev_dest;
      victim.valid = false;  // queued scheduler refs die via this
      --ruu.count;
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
      if (!ruu.op_selected(idx, i)) return false;
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
      if (!ruu.ops_done(c.idx, rt)) ++stats.early_resolved_branches;
      if (obs_on)
        emit({.kind = obs::EventKind::BranchResolve, .cycle = now,
              .seq = e.seq, .pc = e.pc,
              .flags = (ruu.ops_done(c.idx, rt) ? 0u : obs::kFlagEarly) |
                       (e.mispredicted ? obs::kFlagMispredicted : 0u),
              .a = rt});

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
      for (unsigned pos = 0; pos < ruu.count; ++pos) {
        const RuuEntry& e = ruu.at(pos);
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
    if (!ruu.ops_done(ruu.index_of(e), now)) return false;
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
    if (ruu.count == 0 || stats.committed >= max_commits_) return;
    const u64 budget = std::min<u64>(core.commit_width,
                                     max_commits_ - stats.committed);
    unsigned run = 0;
    while (run < budget && run < ruu.count) {
      const RuuEntry& e = ruu.at(run);
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
      RuuEntry& e = ruu.at(0);

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
      const unsigned idx = ruu.index(0);
      const unsigned dest = e.si->dest_ext;
      if (dest != 0 && rename[dest].index == static_cast<int>(idx) &&
          rename[dest].seq == e.seq)
        rename[dest] = ProducerRef{};
      for (const unsigned hr : {kHiReg, kLoReg})
        if (rename[hr].index == static_cast<int>(idx) &&
            rename[hr].seq == e.seq)
          rename[hr] = ProducerRef{};

      if (e.flags & StaticInst::kFlagMem) mem_pipe.retire_head(e);

      if (obs_on)
        emit({.kind = obs::EventKind::Commit, .cycle = now, .seq = e.seq,
              .pc = e.pc, .a = e.dispatch_cycle});
      e.valid = false;
      // Nothing waits on a committing entry: every one of its times is
      // defined (committable() checked), an op only registers on an
      // undefined time, and defining a time wakes its list. Dispatch
      // recycles the (empty) lists when the slot is reused.
      if (kCheckInvariants && !ruu.waiters_empty(idx))
        fail("invariant: committing entry seq " + std::to_string(e.seq) +
             " still has waiters");
      ruu.pop_front();
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
    if (run < budget && ruu.count > 0 && ruu.at(0).bogus)
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
    if (ruu.count == 0) {
      if (halted) return CpiCause::Drain;
      if (cpi_refill_pending) return CpiCause::BrSquash;
      if (now < fetch_stall_until) return CpiCause::FeIcache;
      return CpiCause::FeFill;
    }
    RuuEntry& e = ruu.at(0);
    const unsigned idx = ruu.index_of(e);
    // Oldest outstanding slice-op: selected means execution latency (or a
    // full window behind it), unselected means operands — the low slice
    // for op 0, the cross-slice chain otherwise.
    const Cycle* d = ruu.op_done_row(idx);
    for (unsigned i = 0; i < e.num_ops; ++i) {
      if (d[i] < now) continue;
      if (ruu.op_selected(idx, i))
        return ruu.count >= core.ruu_entries ? CpiCause::RuuFull
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
        detail->ruu_occupancy.add(ruu.count);
        detail->lsq_occupancy.add(mem_pipe.size());
      }
      cycle_activity = false;
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
      mem_pipe.progress();
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
        const std::string edges = ruu.check();
        if (!edges.empty()) fail("invariant: consumer edges: " + edges);
      }
      // Idle skip: a cycle in which nothing changed, nothing is awaiting
      // selection and no port-blocked load retries cannot enable anything
      // next cycle either — jump straight to the next scheduled event. The
      // skipped cycles are indistinguishable from singly-stepped idle ones,
      // so stats stay bit-identical; the occupancy histograms are backfilled
      // with the (frozen) per-cycle samples the stepped loop would have
      // taken.
      Cycle next = now + 1;
      if (!cycle_activity && !mem_pipe.retry() && pending.empty())
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
        // The span starts next cycle; its cause (obs/trace.hpp taxonomy)
        // is what it waited for, so traces agree with the CPI stack.
        if (obs_on)
          emit({.kind = obs::EventKind::IdleSkip, .cycle = now + 1,
                .a = skipped, .b = 1 + static_cast<u64>(stall_cause)});
        if (detail) {
          detail->ruu_occupancy.add(ruu.count, skipped);
          detail->lsq_occupancy.add(mem_pipe.size(), skipped);
          detail->commit_width.add(0, skipped);
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

Simulator::Simulator(const MachineConfig& config, const Program& program,
                     const Checkpoint* start)
    : cfg_(checked_config(config)),
      impl_(std::make_unique<Impl>(config, program, start)) {}

Simulator::Simulator(Simulator&&) noexcept = default;
Simulator& Simulator::operator=(Simulator&&) noexcept = default;
Simulator::~Simulator() = default;

SimResult Simulator::run(u64 max_commits, u64 warmup_commits) {
  return impl_->run(max_commits, warmup_commits);
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

}  // namespace bsp
