#include "core/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <array>
#include <chrono>
#include <cstdlib>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/select_order.hpp"
#include "lsq/disambig.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/interval.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "stats/stats.hpp"

namespace bsp {

namespace {

// Deadlock watchdog: abort a run if nothing commits for this many cycles.
constexpr Cycle kWatchdogCycles = 100000;

// Memory ports into the L1 D-cache (load accesses started per cycle).
constexpr unsigned kDCachePorts = 2;

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
        text_base(program.text_base),
        text_end(program.text_end()),
        oracle(program),
        checker(program),
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
        ifq_capacity(std::max<unsigned>(32, 8 * core.fetch_width)) {
    wheel_head.fill(-1);
    far_min.fill(kNever);
    lsq.init(core.lsq_entries);
    fetch_q.init(ifq_capacity + core.fetch_width);
    // Pre-size the node pools and scheduler buffers from the machine shape:
    // at most ruu_entries * geometry slice-ops are in flight, each resident
    // in exactly one waiter list / wheel slot / pending (stale refs add a
    // small constant factor). Reserving here keeps the steady state free of
    // heap allocation on the dispatch/wakeup hot paths; the steady-state
    // test asserts these capacities never grow (scratch_reallocations()).
    const std::size_t max_ops = std::size_t{core.ruu_entries} * geom.count;
    wait_pool.reserve(2 * max_ops + 64);
    cons_pool.reserve(4 * core.ruu_entries + 64);
    pending.reserve(2 * max_ops + 64);
    cand_scratch.reserve(2 * max_ops + 64);
    views_scratch.reserve(core.lsq_entries);
    relax_work.reserve(core.ruu_entries);
    branch_watch.reserve(2 * core.ruu_entries);
    far_scratch.reserve(64);
    far_overflow.reserve(64);
    // Sortless select scratch: `tmp` swaps with cand_scratch, so all three
    // candidate vectors share one capacity; the bucket array bounds the
    // dense-burst key span the bucket path will take on.
    sel_scratch.init(32 * std::size_t{core.ruu_entries} + 64,
                     2 * max_ops + 64);
    wake_scratch.reserve(max_ops);
    // Test-only divergence injection: BSP_COSIM_INJECT="N:R" flips bit 0 of
    // checker register R just before the Nth total commit is (or would be)
    // checked, so the divergence-detection test can pin each co-sim mode's
    // detection latency without a hand-built broken program.
    if (const char* inj = std::getenv("BSP_COSIM_INJECT")) {
      char* end = nullptr;
      inject_at_ = std::strtoull(inj, &end, 10);
      if (end && *end == ':')
        inject_reg_ =
            static_cast<unsigned>(std::strtoul(end + 1, nullptr, 10));
      else
        inject_at_ = 0;
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
  static constexpr std::size_t kScratchVecs = 13;
  std::array<std::size_t, kScratchVecs> scratch_capacities() const {
    return {wait_pool.capacity(),    cons_pool.capacity(),
            pending.capacity(),      cand_scratch.capacity(),
            views_scratch.capacity(), relax_work.capacity(),
            branch_watch.capacity(), far_scratch.capacity(),
            far_overflow.capacity(), sel_scratch.head.capacity(),
            sel_scratch.next.capacity(), sel_scratch.tmp.capacity(),
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
  // lives in the emulators' memories.
  const u32 text_base;
  const u32 text_end;

  Emulator oracle;   // steps at dispatch: supplies values & outcomes
  Emulator checker;  // steps at commit: co-simulation reference

  // Co-simulation cadence (SimOptions). In spot mode the checker lags the
  // commit stream by `cosim_lag_` instructions and catches up through
  // run_fast() right before each checked commit; full mode keeps the lag at
  // zero, off mode never steps the checker at all. Pure check — none of
  // this feeds timing, so SimStats are mode-invariant.
  CosimMode cosim_mode_ = CosimMode::kFull;
  u64 cosim_period_ = 64;
  u64 cosim_countdown_ = 64;
  u64 cosim_lag_ = 0;
  // BSP_COSIM_INJECT state (see the constructor): 0 = no injection armed.
  u64 inject_at_ = 0;
  unsigned inject_reg_ = 0;

  FrontEndPredictor predictor;
  MemoryHierarchy mem;

  // RUU: circular buffer, `head` = oldest, `count` entries in flight.
  std::vector<RuuEntry> ruu;
  unsigned ruu_head = 0;
  unsigned ruu_count = 0;

  // --- event-driven scheduler state ----------------------------------------
  // Instead of walking the whole RUU every cycle, each unselected slice-op
  // lives in exactly one of three places: a time-indexed wakeup bucket (its
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

  // --- free-list-recycled dependence-edge pools ----------------------------
  // Waiter and consumer lists are singly-linked lists of pool nodes with
  // O(1) append (tail pointers preserve registration order — replay
  // worklist order depends on it) and O(1) whole-list recycling at
  // dispatch. The pools are reserved at construction, so the steady state
  // allocates nothing.
  struct WaitNode {
    OpRef ref;
    int next;
  };
  struct ConsNode {
    ConsumerRef ref;
    int next;
  };
  struct NodeList {
    int head = -1;
    int tail = -1;
  };
  std::vector<WaitNode> wait_pool;
  int wait_free = -1;
  std::vector<ConsNode> cons_pool;
  int cons_free = -1;

  int wait_alloc() {
    if (wait_free < 0) {
      wait_pool.push_back(WaitNode{});
      return static_cast<int>(wait_pool.size() - 1);
    }
    const int n = wait_free;
    wait_free = wait_pool[n].next;
    return n;
  }
  void wait_release(int n) {
    wait_pool[n].next = wait_free;
    wait_free = n;
  }
  int cons_alloc() {
    if (cons_free < 0) {
      cons_pool.push_back(ConsNode{});
      return static_cast<int>(cons_pool.size() - 1);
    }
    const int n = cons_free;
    cons_free = cons_pool[n].next;
    return n;
  }
  void wait_append(NodeList& l, const OpRef& r) {
    const int n = wait_alloc();
    wait_pool[n].ref = r;
    wait_pool[n].next = -1;
    if (l.tail < 0)
      l.head = n;
    else
      wait_pool[l.tail].next = n;
    l.tail = n;
  }
  void cons_append(NodeList& l, const ConsumerRef& r) {
    const int n = cons_alloc();
    cons_pool[n].ref = r;
    cons_pool[n].next = -1;
    if (l.tail < 0)
      l.head = n;
    else
      cons_pool[l.tail].next = n;
    l.tail = n;
  }
  // O(1) whole-list recycling: splice the list onto the free list.
  void wait_recycle(NodeList& l) {
    if (l.head < 0) return;
    wait_pool[l.tail].next = wait_free;
    wait_free = l.head;
    l.head = l.tail = -1;
  }
  void cons_recycle(NodeList& l) {
    if (l.head < 0) return;
    cons_pool[l.tail].next = cons_free;
    cons_free = l.head;
    l.head = l.tail = -1;
  }

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
      if (waiters[idx * wait_stride + l].head >= 0) return false;
    return true;
  }
  // Producer entry -> dependent entries, registered at rename (plus the
  // store -> forwarded-load edges added when a forward is recorded). These
  // persist for the producer's lifetime: selective replay walks them to
  // revert only the transitive dependents of a re-timed value.
  std::vector<NodeList> consumers;
  // Ops whose computed ready cycle is in the future: a timing wheel over the
  // next kWheelSize cycles (slot = cycle mod size; every entry's cycle lies
  // in (now, now + kWheelSize) so the slot is unambiguous), with a summary
  // bitmap for O(1)-ish next-event queries. Slot lists share the waiter
  // node pool (within-slot order is irrelevant: candidates are sorted by
  // the unique (seq, visit-pos) key before selection). Beyond-horizon
  // wakeups go to the hierarchical far wheel below.
  static constexpr unsigned kWheelBits = 10;
  static constexpr Cycle kWheelSize = Cycle{1} << kWheelBits;
  static constexpr unsigned kWheelWords = kWheelSize / 64;
  std::array<int, kWheelSize> wheel_head;
  std::array<u64, kWheelWords> wheel_bits{};
  u64 wheel_count = 0;
  // Beyond-horizon wakeups: a hierarchical coarse wheel over epochs of
  // kWheelSize cycles (epoch = cycle >> kWheelBits). A wakeup landing past
  // the fine horizon always lies in a strictly-future epoch; epochs within
  // the next kFarEpochs map unambiguously to bucket (epoch & 63), tracked
  // by a summary bitmap and a per-bucket minimum so both insertion and the
  // idle skip's next-event query are O(1) — no ordered-map node churn. The
  // (practically unreachable) beyond-window tail spills to a flat overflow
  // vector with its own minimum, redistributed only when that minimum
  // enters the window; each entry therefore moves O(1) times amortized.
  static constexpr unsigned kFarEpochs = 64;
  struct FarWake {
    Cycle c;
    OpRef ref;
  };
  std::array<std::vector<FarWake>, kFarEpochs> far_bucket;
  std::array<Cycle, kFarEpochs> far_min;
  u64 far_bits = 0;
  u64 far_count = 0;
  Cycle far_epoch = 0;  // epoch of `now` at the last drain
  std::vector<FarWake> far_overflow;
  Cycle far_overflow_min = kNever;
  std::vector<FarWake> far_scratch;  // drain staging

  void wheel_push(Cycle c, const OpRef& ref) {
    const unsigned slot = static_cast<unsigned>(c & (kWheelSize - 1));
    const int n = wait_alloc();
    wait_pool[static_cast<unsigned>(n)].ref = ref;
    wait_pool[static_cast<unsigned>(n)].next = wheel_head[slot];
    wheel_head[slot] = n;
    wheel_bits[slot >> 6] |= u64{1} << (slot & 63);
    ++wheel_count;
  }

  void far_push(Cycle c, const OpRef& ref) {
    const Cycle ep = c >> kWheelBits;
    if (ep - far_epoch < kFarEpochs) {
      const unsigned b = static_cast<unsigned>(ep & (kFarEpochs - 1));
      far_bucket[b].push_back(FarWake{c, ref});
      far_min[b] = std::min(far_min[b], c);
      far_bits |= u64{1} << b;
      ++far_count;
    } else {
      far_overflow.push_back(FarWake{c, ref});
      far_overflow_min = std::min(far_overflow_min, c);
    }
  }

  // Drains every bucket whose epoch `now` has reached or passed, routing
  // each staged entry to wherever it belongs under the advanced clock.
  void drain_far() {
    const Cycle cur = now >> kWheelBits;
    if (cur == far_epoch) return;
    if (far_count) {
      far_scratch.clear();
      const Cycle first =
          cur - far_epoch >= kFarEpochs ? cur - (kFarEpochs - 1)
                                        : far_epoch + 1;
      for (Cycle ep = first; ep <= cur; ++ep) {
        const unsigned b = static_cast<unsigned>(ep & (kFarEpochs - 1));
        const u64 bit = u64{1} << b;
        if (!(far_bits & bit)) continue;
        far_scratch.insert(far_scratch.end(), far_bucket[b].begin(),
                           far_bucket[b].end());
        far_count -= far_bucket[b].size();
        far_bucket[b].clear();
        far_min[b] = kNever;
        far_bits &= ~bit;
      }
      far_epoch = cur;
      for (const FarWake& fw : far_scratch) {
        if (fw.c <= now)
          pending.push_back(fw.ref);
        else if (fw.c - now < kWheelSize)
          wheel_push(fw.c, fw.ref);
        else
          far_push(fw.c, fw.ref);
      }
    }
    far_epoch = cur;
    if (!far_overflow.empty() &&
        (far_overflow_min >> kWheelBits) < cur + kFarEpochs) {
      far_scratch.clear();
      far_scratch.swap(far_overflow);
      far_overflow_min = kNever;
      for (const FarWake& fw : far_scratch) {
        if (fw.c <= now)
          pending.push_back(fw.ref);
        else if (fw.c - now < kWheelSize)
          wheel_push(fw.c, fw.ref);
        else
          far_push(fw.c, fw.ref);
      }
    }
  }

  // Earliest staged far wakeup (kNever if none): the nearest nonempty
  // epoch bucket holds the global bucket minimum (epochs partition time),
  // found by rotating the summary bitmap to the window start.
  Cycle far_next() const {
    Cycle best = far_overflow_min;
    if (far_bits) {
      const unsigned start =
          static_cast<unsigned>((far_epoch + 1) & (kFarEpochs - 1));
      const u64 rot =
          (far_bits >> start) | (far_bits << ((kFarEpochs - start) & 63));
      const unsigned k = static_cast<unsigned>(std::countr_zero(rot));
      best = std::min(best, far_min[(start + k) & (kFarEpochs - 1)]);
    }
    return best;
  }
  // Ops ready at (or before) the current cycle, awaiting selection.
  std::vector<OpRef> pending;
  // Reused scratch buffers (capacity reserved at construction; the
  // steady-state test asserts they never grow).
  std::vector<OpRef> cand_scratch;
  std::vector<StoreView> views_scratch;
  // Sortless-select scratch (core/select_order.hpp): bucket heads, chain
  // links and the staging vector order_by_key swaps into the candidates.
  SelectOrderScratch<OpRef> sel_scratch;
  // Waiter lists of the ops selected this cycle, woken after the candidate
  // walk (an op selects at most once per cycle, so no list repeats).
  std::vector<unsigned> wake_scratch;
  // Host-side scheduler event counts (Simulator::host_events()).
  HostEvents hev;
  // Future cycles at which *something* can happen (op completions, load data
  // returns, verification points). Consulted by the idle-cycle skip. Stored
  // as a cycle bitmap over the same wheel horizon (timers carry no payload,
  // so a set bit per cycle suffices and duplicate arms are free); the run
  // loop clears each cycle's bit as `now` reaches it, which keeps every set
  // bit strictly in the future and the bitmap scan exact. Rare arms beyond
  // the horizon spill to the ordered set.
  std::array<u64, kWheelWords> timer_bits{};
  u64 timer_count = 0;
  std::set<Cycle> timer_far;

  void arm_timer(Cycle c) {
    if (c <= now) return;  // already due: the current cycle handles it
    if (c - now < kWheelSize) {
      const unsigned slot = static_cast<unsigned>(c & (kWheelSize - 1));
      const u64 bit = u64{1} << (slot & 63);
      timer_count += !(timer_bits[slot >> 6] & bit);
      timer_bits[slot >> 6] |= bit;
    } else {
      timer_far.insert(c);
    }
  }

  // First armed timer cycle > now (kNever if none); same scan as
  // wheel_next().
  Cycle timer_next() const {
    if (!timer_count) return kNever;
    const unsigned mask = kWheelSize - 1;
    const unsigned start = static_cast<unsigned>((now + 1) & mask);
    for (unsigned step = 0; step <= kWheelWords; ++step) {
      const unsigned word = ((start >> 6) + step) & (kWheelWords - 1);
      u64 bits = timer_bits[word];
      if (step == 0) bits &= ~u64{0} << (start & 63);
      if (bits) {
        const unsigned slot =
            word * 64 + static_cast<unsigned>(std::countr_zero(bits));
        return now + 1 + ((slot - start) & mask);
      }
    }
    return kNever;
  }
  // In-flight correct-path conditional branches / jr (dispatch order). The
  // resolve scan walks this short list instead of the whole RUU; dead and
  // committed entries are pruned lazily.
  std::vector<ConsumerRef> branch_watch;
  // Selective-replay worklist (entry indices) + membership flags.
  std::vector<unsigned> relax_work;
  std::vector<u8> relax_queued;
  // Bumped whenever replay regresses any recorded time; tells the in-cycle
  // store-view cache in memory_progress() to rebuild.
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

  // Unified LSQ: RUU indices of in-flight memory ops, oldest first. A flat
  // power-of-two ring (capacity fixed by the machine config) instead of a
  // segmented deque: the disambiguation walk indexes it every cycle.
  struct IntRing {
    std::vector<int> buf;
    unsigned mask = 0;
    unsigned head = 0;
    unsigned count = 0;
    void init(unsigned capacity) {
      unsigned cap = 1;
      while (cap < capacity) cap <<= 1;
      buf.assign(cap, -1);
      mask = cap - 1;
    }
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    int front() const { return buf[head]; }
    int back() const { return buf[(head + count - 1) & mask]; }
    int operator[](std::size_t i) const {
      return buf[(head + static_cast<unsigned>(i)) & mask];
    }
    void push_back(int v) {
      buf[(head + count) & mask] = v;
      ++count;
    }
    void pop_front() {
      head = (head + 1) & mask;
      --count;
    }
    void pop_back() { --count; }
  };
  IntRing lsq;

  // Count of LSQ entries not yet in MemPhase::Done: when zero the per-cycle
  // memory walk has nothing to advance and is skipped wholesale. Every
  // phase transition funnels through set_mem_phase() so the counter cannot
  // drift from the queue contents.
  int mem_active_ = 0;
  // First LSQ position that can be non-Done: positions below it hold only
  // finished entries awaiting commit, so the per-cycle walk starts here.
  // Invariant upkeep: commit shifts it down with the head, any Done ->
  // non-Done regression (replay) resets it to zero, and dispatch can only
  // append at/after it.
  std::size_t mem_scan_from = 0;
  // Line address of the last I-cache probe (see fetch()); ~0u is never a
  // line address, so the first fetch always probes.
  u32 last_fetch_line_ = ~0u;
  void set_mem_phase(RuuEntry& e, MemPhase p) {
    if (e.mem_phase == MemPhase::Done && p != MemPhase::Done)
      mem_scan_from = 0;
    mem_active_ += static_cast<int>(e.mem_phase == MemPhase::Done) -
                   static_cast<int>(p == MemPhase::Done);
    e.mem_phase = p;
  }

  std::array<ProducerRef, kNumRenameRegs> rename;

  // Front end: same ring idiom for fetch slots (bounded by the IFQ
  // capacity plus one fetch group).
  struct FetchRing {
    std::vector<FetchSlot> buf;
    unsigned mask = 0;
    unsigned head = 0;
    unsigned count = 0;
    void init(unsigned capacity) {
      unsigned cap = 1;
      while (cap < capacity) cap <<= 1;
      buf.assign(cap, FetchSlot{});
      mask = cap - 1;
    }
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    const FetchSlot& front() const { return buf[head]; }
    void push_back(const FetchSlot& s) {
      buf[(head + count) & mask] = s;
      ++count;
    }
    void pop_front() {
      head = (head + 1) & mask;
      --count;
    }
    void clear() { count = 0; }
  };
  FetchRing fetch_q;
  const unsigned ifq_capacity;
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

  // When each slice of `e`'s *result* becomes available: one dense switch
  // on the dispatch-time result class (kRes*) instead of re-deriving
  // is-load / exec-class / op-count / narrow-width per probe.
  Cycle result_slice_time(const RuuEntry& e, unsigned slice) const {
    const Cycle* d = op_done_row(eidx(e));
    switch (e.res_kind) {
      case kResLoad:
        return e.data_cycle;
      case kResLast:
        return last_op_done(eidx(e));  // sign/borrow defined only at the end
      case kResSingle:
      case kResNarrow:
        // Narrow-width: a result that is just the sign extension of its low
        // slice releases every slice the moment the low slice exists (its
        // significance tag says the rest is all-0s/all-1s).
        return d[0];
      default:
        return d[slice];
    }
  }

  // Availability of slice `k` of source operand `which` of entry `e`.
  Cycle source_slice_time(const RuuEntry& e, unsigned which,
                          unsigned k) const {
    const ProducerRef& ref = e.sources[which];
    if (ref.from_regfile()) return 0;
    const RuuEntry& p = ruu[ref.index];
    if (!p.valid || p.seq != ref.seq) return 0;  // producer committed
    return result_slice_time(p, k);
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
      const ProducerRef& ref = e.sources[which];
      if (ref.from_regfile()) continue;  // regfile: ready at 0
      const RuuEntry& p = ruu[ref.index];
      if (!p.valid || p.seq != ref.seq) continue;  // producer committed
      const u32 mask = need[which];
      if (!mask) continue;
      // Producer resolved once per source: a dense switch on its result
      // class; slice-uniform classes (loads, collects, compares, narrow)
      // short-circuit the per-slice walk.
      Cycle t;
      const unsigned pidx = static_cast<unsigned>(ref.index);
      const Cycle* pd = op_done_row(pidx);
      switch (p.res_kind) {
        case kResLoad:
          t = p.data_cycle;
          break;
        case kResLast:
          t = last_op_done(pidx);
          break;
        case kResSingle:
        case kResNarrow:
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
      if (t == kNever) {
        if (blocker) {
          switch (p.res_kind) {
            case kResLoad:
              *blocker = data_list(pidx);
              break;
            case kResLast:
              *blocker = op_list(pidx, last_undefined_op(pidx,
                                                         low_mask(p.num_ops)));
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
        return kNever;
      }
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

  // (Re)tracks an unselected op in exactly one scheduler structure, chosen
  // by its current ready time.
  void queue_op(unsigned idx, unsigned op_idx) {
    ++hev.queue_ops;
    unsigned blocker = 0;
    const Cycle ready = op_ready_time(ruu[idx], op_idx, &blocker);
    const OpRef ref = fresh_ref(idx, op_idx);
    if (ready == kNever) {
      wait_append(waiters[blocker], ref);
    } else if (ready <= now) {
      pending.push_back(ref);
    } else if (ready - now < kWheelSize) {
      wheel_push(ready, ref);
    } else {
      ++hev.far_spills;
      far_push(ready, ref);
    }
  }

  // First cycle > now with a populated wheel slot (kNever if none): scans
  // the summary bitmap starting just past now's slot; a set bit at wrapped
  // distance d means cycle now + 1 + d.
  Cycle wheel_next() const {
    if (!wheel_count) return kNever;
    const unsigned mask = kWheelSize - 1;
    const unsigned start = static_cast<unsigned>((now + 1) & mask);
    for (unsigned step = 0; step <= kWheelWords; ++step) {
      const unsigned word = ((start >> 6) + step) & (kWheelWords - 1);
      u64 bits = wheel_bits[word];
      if (step == 0) bits &= ~u64{0} << (start & 63);
      if (bits) {
        const unsigned slot =
            word * 64 + static_cast<unsigned>(std::countr_zero(bits));
        return now + 1 + ((slot - start) & mask);
      }
    }
    return kNever;
  }

  // queue_op for a walk of waiter list `from` that already holds a pool
  // node: the node is relinked straight into the destination list (another
  // waiter list, or a wheel slot — both share the pool) instead of a
  // release + alloc round trip. Same token bump, same ref, same routing as
  // queue_op.
  void requeue_node(int n, unsigned idx, unsigned op_idx, unsigned from) {
    unsigned blocker = 0;
    const Cycle ready = op_ready_time(ruu[idx], op_idx, &blocker);
    const OpRef ref = fresh_ref(idx, op_idx);
    if (ready == kNever) {
      ++hev.reregisters;
      hev.same_list_reregisters += blocker == from;
      NodeList& l = waiters[blocker];
      wait_pool[n].ref = ref;
      wait_pool[n].next = -1;
      if (l.tail < 0)
        l.head = n;
      else
        wait_pool[l.tail].next = n;
      l.tail = n;
    } else if (ready <= now) {
      pending.push_back(ref);
      wait_release(n);
    } else if (ready - now < kWheelSize) {
      const unsigned slot = static_cast<unsigned>(ready & (kWheelSize - 1));
      wait_pool[n].ref = ref;
      wait_pool[n].next = wheel_head[slot];
      wheel_head[slot] = n;
      wheel_bits[slot >> 6] |= u64{1} << (slot & 63);
      ++wheel_count;
    } else {
      ++hev.far_spills;
      far_push(ready, ref);
      wait_release(n);
    }
  }

  // The time waiter list `list` stands for was published (an op was
  // selected, or load data was scheduled): re-evaluate every op blocked on
  // it.
  void wake_waiters(unsigned list) {
    // Detach the whole list first: its time now exists, so the walk's
    // re-registrations all land on other lists.
    int n = waiters[list].head;
    if (n < 0) return;
    ++hev.wakes;
    waiters[list].head = waiters[list].tail = -1;
    while (n >= 0) {
      ++hev.waiter_visits;
      const OpRef r = wait_pool[n].ref;
      const int next = wait_pool[n].next;
      if (ref_entry(r))
        requeue_node(n, r.idx, r.op_idx, list);
      else
        wait_release(n);
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
    if (!core.has(Technique::SumAddressed)) return agen_complete_cycle(e);
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
  // producer has not finished).
  Cycle store_data_time(const RuuEntry& e) const {
    Cycle t = 0;
    for (unsigned k = 0; k < geom.count; ++k) {
      const Cycle s = source_slice_time(e, 1, k);
      if (s == kNever) return kNever;
      t = std::max(t, s);
    }
    return t;
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
    // kResNarrow when the dynamic narrow-width test passes. The priority
    // mirrors the original result_slice_time chain: load, compare, single.
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
    cons_recycle(consumers[idx]);
    for (unsigned l = 0; l < wait_stride; ++l)
      wait_recycle(waiters[idx * wait_stride + l]);
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
        e.caused_exit = true;  // commit consults this when co-sim is off
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
        cons_append(consumers[static_cast<unsigned>(src.index)],
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
      lsq.push_back(static_cast<int>(idx));
      ++mem_active_;  // fresh mem ops enter in MemPhase::Agen
    }
    if (!e.bogus && (si->flags & StaticInst::kFlagWatched))
      branch_watch.push_back(ConsumerRef{idx, e.seq});

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
        // unblocking commit is already covered by the timer set.)
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

  void select_and_execute() {
    // Per-slice-datapath issue slots this cycle. Unsliced machines and
    // collect ops use datapath 0; FP ops use their own unit pool.
    std::array<unsigned, kMaxSlices> slots{};
    unsigned fp_alu_used = 0;
    const unsigned per_slice_limit = std::min(core.issue_width, core.int_alus);

    // Pull every op whose scheduled wake cycle has arrived into `pending`.
    // (Wheel slots strictly between skipped cycles are empty by construction
    // of the idle skip, so draining just now's slot is complete.)
    if (wheel_count) {
      const unsigned slot = static_cast<unsigned>(now & (kWheelSize - 1));
      int n = wheel_head[slot];
      if (n >= 0) {
        wheel_head[slot] = -1;
        wheel_bits[slot >> 6] &= ~(u64{1} << (slot & 63));
        while (n >= 0) {
          const int next = wait_pool[static_cast<unsigned>(n)].next;
          pending.push_back(wait_pool[static_cast<unsigned>(n)].ref);
          wait_release(n);
          --wheel_count;
          n = next;
        }
      }
    }
    if (far_count || !far_overflow.empty()) drain_far();
    if (pending.empty()) return;

    // Select in the order the scan-based scheduler examined ops: oldest
    // entry first, then slice visit order within the entry. Same-cycle
    // selections never make *other* ops ready this same cycle (op latency is
    // >= 1), so ordering the candidate set up front is exact. order_by_key
    // replaces the former std::sort with an insertion/bucket scheme on the
    // single-integer key (see core/select_order.hpp for the invariant).
    std::vector<OpRef>& cands = cand_scratch;
    cands.clear();
    cands.swap(pending);
    if (order_by_key(cands, sel_scratch)) ++hev.sort_fallbacks;
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
      arm_timer(done);
      cycle_activity = true;
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
    } else {
      v.addr_known_bits = addr_bits_known_at(s, now);
      v.addr = s.oracle.mem_addr;
      v.bytes = s.oracle.mem_bytes;
      const Cycle dt = store_data_time(s);
      v.data_ready = dt != kNever && dt <= now;
      v.data = s.oracle.store_value;
    }
    return v;
  }

  // Publishes a (possibly speculative) load data time: arms the wakeup
  // timers for the data return and its verification point, and re-evaluates
  // consumers blocked on the previously undefined time.
  void publish_load_data(unsigned idx) {
    RuuEntry& e = ruu[idx];
    cycle_activity = true;
    if (e.data_cycle != kNever) {
      arm_timer(e.data_cycle);
      if (!e.data_final) arm_timer(e.data_cycle + 1);  // verify next cycle
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

  void memory_progress() {
    // Every resident memory op has reached MemPhase::Done: the walk below
    // would only skip over finished entries, so don't walk at all. (Commit
    // drains Done entries from the head; replay re-raises the counter
    // through set_mem_phase before anything can regress.)
    if (mem_active_ == 0) return;
    unsigned ports_used = 0;
    // Store views for the walked LSQ prefix, extended incrementally as the
    // walk advances (the scan rebuilt them per load, an O(LSQ^2) cost) and
    // invalidated wholesale when a replay this cycle regresses recorded
    // times — a store's address/data availability may have moved later.
    std::vector<StoreView>& views = views_scratch;
    views.clear();
    std::size_t views_built = 0;
    u64 views_epoch = sched_epoch;
    const auto refresh_views = [&](std::size_t upto) {
      if (views_epoch != sched_epoch) {
        views.clear();
        views_built = 0;
        views_epoch = sched_epoch;
      }
      for (; views_built < upto; ++views_built) {
        const RuuEntry& s = ruu[static_cast<unsigned>(lsq[views_built])];
        if (!s.valid || !(s.flags & StaticInst::kFlagStore)) continue;
        views.push_back(store_view_of(views_built));
      }
    };

    bool first_active_found = false;
    for (std::size_t i = std::min(mem_scan_from, lsq.size());
         i < lsq.size(); ++i) {
      const unsigned idx = static_cast<unsigned>(lsq[i]);
      RuuEntry& e = ruu[idx];
      if (!e.valid) continue;
      if (!first_active_found && e.mem_phase != MemPhase::Done) {
        first_active_found = true;
        mem_scan_from = i;
      }

      if (e.flags & StaticInst::kFlagStore) {
        if (e.mem_phase == MemPhase::Done) continue;
        if (e.bogus) {
          if (ops_done(idx, now)) {
            set_mem_phase(e, MemPhase::Done);
            cycle_activity = true;
          }
          continue;
        }
        const Cycle addr_t = agen_complete_cycle(e);
        const Cycle data_t = store_data_time(e);
        if (addr_t != kNever && addr_t <= now && data_t != kNever &&
            data_t <= now) {
          set_mem_phase(e, MemPhase::Done);
          cycle_activity = true;
        }
        continue;
      }

      if (!(e.flags & StaticInst::kFlagLoad)) continue;
      if (e.bogus) {
        // Wrong-path load: occupies the queue; completes after agen.
        if (e.mem_phase == MemPhase::Agen && ops_done(idx, now)) {
          e.data_cycle = now + mem.l1d().hit_latency();
          e.data_final = true;
          set_mem_phase(e, MemPhase::Done);
          publish_load_data(idx);  // wrong-path consumers still schedule
        }
        continue;
      }

      switch (e.mem_phase) {
        case MemPhase::Agen: {
          const unsigned bits = addr_bits_known_at(e, now);
          if (bits == 0) break;

          // LSQ disambiguation.
          refresh_views(i);
          LoadQuery q{bits, e.oracle.mem_addr, e.oracle.mem_bytes};
          const DisambigResult d = disambiguate_load(
              q, views, core.has(Technique::EarlyLsq),
              core.has(Technique::SpecForward));
          if (d.decision == LoadDecision::WaitStore) break;
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
              ev.a = bits;
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
            cons_append(consumers[static_cast<unsigned>(d.store_id)],
                        ConsumerRef{idx, e.seq});
            publish_load_data(idx);
            break;
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
            cons_append(consumers[static_cast<unsigned>(d.store_id)],
                        ConsumerRef{idx, e.seq});
            publish_load_data(idx);
            break;
          }

          // decision == Issue: start the cache access when enough address
          // bits exist.
          const unsigned tag_lo = mem.l1d().geometry().tag_lo_bit();
          const Cycle full_at = full_addr_cycle(e);
          const bool full_now = full_at != kNever && full_at <= now;
          const bool can_partial = core.has(Technique::PartialTag) &&
                                   bits > tag_lo && bits < 32 && !full_now;
          if (full_now || can_partial) {
            if (ports_used >= kDCachePorts) {
              retry_this_cycle = true;  // port conflict: retry next cycle
              break;
            }
            ++ports_used;
            start_load_access(e, full_now ? 32 : bits);
            publish_load_data(idx);
            if (obs_on) {
              obs::TraceEvent ev;
              ev.kind = obs::EventKind::CacheAccess;
              ev.cycle = now;
              ev.seq = e.seq;
              ev.pc = e.pc;
              ev.a = e.data_cycle;
              ev.b = bits;  // the text sink's label reads this, as the
                            // inline trace always did
              ev.flags = (e.used_partial_tag ? obs::kFlagPartial : 0u) |
                         (e.early_miss ? obs::kFlagEarly : 0u);
              emit(ev);
            }
          }
          break;
        }
        case MemPhase::Access: {
          // Verification happens the cycle *after* the speculative data
          // return (paper Figure 3: "verify with full tag bits on next
          // cycle"), so dependents selected against the speculative time are
          // genuinely in flight and must replay on a mis-speculation.
          const Cycle full_at = full_addr_cycle(e);
          const bool full_addr = full_at != kNever && full_at <= now;
          if (now < e.data_cycle + 1) break;
          if (e.predicted_way == -3) {
            // Speculative partial-match forward: the full address settles
            // whether the forwarded value was the architecturally loaded
            // one.
            if (!full_addr) break;
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
            break;
          }
          if (e.predicted_way == -2 || full_addr) verify_load(e);
          break;
        }
        case MemPhase::Done:
          break;
      }
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
    NodeList& list = consumers[idx];
    int prev = -1;
    int n = list.head;
    while (n >= 0) {
      ConsNode& node = cons_pool[static_cast<unsigned>(n)];
      const int next = node.next;
      const RuuEntry& d = ruu[node.ref.idx];
      if (!d.valid || d.seq != node.ref.seq) {
        // Dead edge: unlink and free.
        if (prev < 0)
          list.head = next;
        else
          cons_pool[static_cast<unsigned>(prev)].next = next;
        if (next < 0) list.tail = prev;
        node.next = cons_free;
        cons_free = n;
      } else {
        schedule_relax(node.ref.idx);
        prev = n;
      }
      n = next;
    }
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
        if (resolve_time(e) > e.resolve_cycle) {
          e.resolved = false;
          e.resolve_cycle = kNever;
          changed = true;
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
        lsq.pop_back();
        if (victim.mem_phase != MemPhase::Done) --mem_active_;
        if (mem_scan_from > lsq.size()) mem_scan_from = lsq.size();
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

  void resolve_and_recover() {
    // Walk the watch list (correct-path branches in dispatch order) instead
    // of the whole RUU, compacting out refs to squashed/committed entries.
    // After a recovery the scan stopped examining younger branches (they
    // were just squashed); `recovered` replicates that early exit while the
    // compaction still copies the remaining refs.
    std::size_t w = 0;
    bool recovered = false;
    for (const ConsumerRef& c : branch_watch) {
      RuuEntry& e = ruu[c.idx];
      if (!e.valid || e.seq != c.seq) continue;  // squashed or committed
      branch_watch[w++] = c;
      if (recovered || e.resolved) continue;

      const Cycle rt = resolve_time(e);
      if (rt == kNever || rt > now) continue;
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
        recovered = true;  // younger refs are now dead; stop processing
      }
    }
    branch_watch.resize(w);
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
  // registers and flushed once (the checker must still step sequentially:
  // it is the architectural reference). Invariant: the deltas are flushed
  // before *every* exit path, including co-simulation failures mid-run.
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

      // Co-simulation: the independent checker must agree on every effect.
      // Full mode checks every commit; spot mode checks every Nth plus
      // every mispredicted-branch / syscall boundary (catching the checker
      // up through run_fast first); off mode skips the checker entirely.
      // Sub-phase timing: this is part of hprof.commit as well.
      bool checked = cosim_mode_ != CosimMode::kOff;
      if (cosim_mode_ == CosimMode::kSpot)
        checked = e.mispredicted ||
                  e.si->kind == static_cast<u8>(ExecClass::Syscall) ||
                  --cosim_countdown_ == 0;
      if (inject_at_ != 0 && stats.committed + d_committed + 1 >= inject_at_) {
        checker.set_reg(inject_reg_, checker.reg(inject_reg_) ^ 1);
        inject_at_ = 0;
      }
      if (checked) {
        cosim_countdown_ = cosim_period_;
        ExecRecord ref;
        HpClock::time_point t0;
        if (host_profile_on) t0 = HpClock::now();
        if (cosim_lag_ > 0) {
          // Catch up over the unchecked window. The oracle committed these
          // instructions without faulting or exiting (syscalls are always
          // checked), so a checker that stops short has already diverged.
          StepResult cr;
          const u64 ran = checker.run_fast(cosim_lag_, &cr);
          if (ran != cosim_lag_) {
            std::ostringstream os;
            os << "co-simulation divergence: checker desynced "
               << (cosim_lag_ - ran) << " instructions into a spot window";
            if (cr.kind == StepResult::Kind::Fault)
              os << " (checker fault: " << cr.fault << ")";
            flush();
            fail(os.str());
            return;
          }
          cosim_lag_ = 0;
        }
        const StepResult sr = checker.step(&ref);
        if (sr.kind == StepResult::Kind::Fault) {
          flush();
          fail("checker fault: " + sr.fault);
          return;
        }
        if (ref.pc != e.oracle.pc || ref.next_pc != e.oracle.next_pc ||
            ref.dest != e.oracle.dest ||
            ref.dest_value != e.oracle.dest_value ||
            ref.mem_addr != e.oracle.mem_addr ||
            ref.store_value != e.oracle.store_value) {
          std::ostringstream os;
          os << "co-simulation divergence at pc 0x" << std::hex
             << e.oracle.pc;
          flush();
          fail(os.str());
          return;
        }
        if (host_profile_on) hp_take(t0, hprof.cosim);
      } else if (cosim_mode_ == CosimMode::kSpot) {
        ++cosim_lag_;
      }

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
        lsq.pop_front();  // committable mem ops are always Done
        if (mem_scan_from > 0) --mem_scan_from;
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
      assert(waiters_empty(idx));
      ruu_head = ruu_head + 1 == core.ruu_entries ? 0 : ruu_head + 1;
      --ruu_count;
      ++d_committed;

      // Exit detection: the checker sees the exit syscall whenever it ran
      // this commit (always, in full mode; spot mode checks every syscall,
      // so a checked exit can never hide in a catch-up window). With the
      // checker off (or unchecked), the dispatch-time oracle flag stands in.
      if (checked ? checker.exited() : e.caused_exit) {
        flush();
        last_commit_cycle = now;
        cycle_activity = true;
        exited = true;
        exit_code = checked ? checker.exit_code() : oracle.exit_code();
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

  // Earliest future cycle at which anything can happen: a scheduled wakeup,
  // an armed timer (op completions, load data returns, verify points), the
  // front slot becoming dispatchable, a fetch stall expiring — or, failing
  // all of those, the exact cycle the watchdog would trip.
  Cycle next_event_cycle() {
    Cycle next = last_commit_cycle + kWatchdogCycles + 1;
    if (wheel_count) next = std::min(next, wheel_next());
    if (far_count || !far_overflow.empty()) next = std::min(next, far_next());
    if (timer_count) next = std::min(next, timer_next());
    while (!timer_far.empty() && *timer_far.begin() <= now)
      timer_far.erase(timer_far.begin());
    if (!timer_far.empty()) next = std::min(next, *timer_far.begin());
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
      {
        // This cycle's timers are now due: retire their bitmap bit so the
        // wheel never holds a bit at or behind `now` (see arm_timer).
        const unsigned slot = static_cast<unsigned>(now & (kWheelSize - 1));
        const u64 bit = u64{1} << (slot & 63);
        timer_count -= (timer_bits[slot >> 6] & bit) ? 1 : 0;
        timer_bits[slot >> 6] &= ~bit;
      }
      const u64 committed_before = stats.committed;
      if (hp) hp_t = HpClock::now();
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
      if (now - last_commit_cycle > kWatchdogCycles) {
        fail("watchdog: no instruction committed for " +
             std::to_string(kWatchdogCycles) + " cycles");
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
  restore_checkpoint(impl_->checker, start);
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

void Simulator::set_options(const SimOptions& options) {
  impl_->cosim_mode_ = options.cosim;
  impl_->cosim_period_ = std::max<u64>(1, options.cosim_period);
  impl_->cosim_countdown_ = impl_->cosim_period_;
}

bool parse_cosim(const std::string& text, SimOptions* out) {
  if (text == "full") {
    out->cosim = CosimMode::kFull;
    return true;
  }
  if (text == "off") {
    out->cosim = CosimMode::kOff;
    return true;
  }
  if (text == "spot") {
    out->cosim = CosimMode::kSpot;
    return true;
  }
  if (text.rfind("spot:", 0) == 0) {
    const char* s = text.c_str() + 5;
    char* end = nullptr;
    const unsigned long long n = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || n == 0) return false;
    out->cosim = CosimMode::kSpot;
    out->cosim_period = n;
    return true;
  }
  return false;
}

std::string cosim_name(const SimOptions& options) {
  switch (options.cosim) {
    case CosimMode::kFull:
      return "full";
    case CosimMode::kOff:
      return "off";
    case CosimMode::kSpot:
      return "spot:" + std::to_string(options.cosim_period);
  }
  return "full";
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
