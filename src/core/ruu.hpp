// The RUU (register update unit: ROB + issue window, as in SimpleScalar's
// sim-outorder) of the timing core, with the scheduler state kept per slot:
// the entry ring, the per-slice-op select/done/token slabs, the waiter and
// consumer lists with their node pools, the selective-replay worklist and
// sched_epoch. Ruu answers every timing query that reads RUU state alone;
// what is queued where and when, and what a replay does, is the
// scheduler's (Simulator::Impl), and the LSQ is MemPipeline's.
//
// A slot index names an entry only while the seq it was taken with still
// matches: slots are recycled after commit and squash, every stale
// reference dies on its seq check, and a reused slot's lists are recycled.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>
#include <vector>

#include "core/event_wheel.hpp"
#include "core/pipeline.hpp"

namespace bsp {

// Invariant build (-DBSP_CHECK_INVARIANTS=ON): every cycle the memory and
// resolve phases re-check each LSQ entry and branch they skipped, the event
// wheel and Ruu::check() their structure, and commit that nothing waits on
// the retiring entry; a violation fails the run.
#ifdef BSP_CHECK_INVARIANTS
inline constexpr bool kCheckInvariants = true;
#else
inline constexpr bool kCheckInvariants = false;
#endif

// A scheduler reference to one unselected slice-op. Each unselected op
// lives in exactly one of three places: the event wheel (its operand-ready
// cycle is known), the waiter list of one operand time that is still
// undefined, or the scheduler's pending set (ready, not yet selected).
// References are validated lazily: an (index, seq, token) triple that no
// longer matches is a dead ref and is dropped on sight, so squash, commit
// and replay never have to search the queues.
struct OpRef {
  unsigned idx;     // RUU index
  u64 seq;          // entry incarnation
  unsigned op_idx;  // slice-op within the entry
  u32 token;        // scheduling incarnation of that op
  // Selection-order key, precomputed at queue time: (seq << 3) | the op's
  // slice visit position. Sorting candidates by this single integer
  // reproduces the scan scheduler's oldest-entry-then-visit-order walk
  // without touching the RUU inside the comparator. (A dead ref's key is
  // frozen at its old incarnation — harmless, it is dropped on sight.)
  u64 key;
  // sched_epoch at queue time. Every path that moves a recorded time
  // *later* (replay, load retime) bumps sched_epoch, and times otherwise
  // only transition kNever -> finite (which cannot raise a ready time that
  // was already finite when this ref was queued), so while the epoch still
  // matches, the ready time computed at queue time is still exact and
  // select can skip re-deriving it.
  u64 epoch;
};
// Two wake kinds share the wheel, waiter lists and node pool with slice-op
// refs, told apart by an op_idx no op has: an LSQ entry the memory phase
// must examine, and a branch the resolve phase must check. They carry no
// token — the entry's seq alone validates them.
inline constexpr unsigned kMemWake = kMaxSlices;
inline constexpr unsigned kBranchWake = kMaxSlices + 1;

struct ConsumerRef {
  unsigned idx;
  u64 seq;
};

struct Ruu {
  Ruu(unsigned n, const SliceGeometry& g, bool sum_addr)
      : geom(g),
        sum_addressed(sum_addr),
        wait_stride(g.count + 1),
        cap_(n),
        entries(n),
        op_sel_(n * kMaxSlices, kNever),
        op_done_(n * kMaxSlices, kNever),
        op_token_(n * kMaxSlices, 0),
        waiters(std::size_t{n} * wait_stride),
        consumers(n),
        relax_queued(n, 0) {
    cons_pool.reserve(4 * n + 64);
    relax_work.reserve(n);
  }

  const SliceGeometry geom;
  const bool sum_addressed;  // loads may access the cache once every agen
                             // op is selected (Technique::SumAddressed)
  const unsigned wait_stride;  // waiter lists per entry: geom.count + 1
  const unsigned cap_;         // entries.size(), kept for the index math

  // --- the entry ring: `head` = oldest, `count` entries in flight -----------
  std::vector<RuuEntry> entries;
  unsigned head = 0;
  unsigned count = 0;

  RuuEntry& operator[](unsigned idx) { return entries[idx]; }
  const RuuEntry& operator[](unsigned idx) const { return entries[idx]; }
  // Both terms are below cap_, so one conditional subtract wraps.
  unsigned index(unsigned pos) const {
    const unsigned i = head + pos;
    return i >= cap_ ? i - cap_ : i;
  }
  unsigned index_of(const RuuEntry& x) const {
    return static_cast<unsigned>(&x - entries.data());
  }
  RuuEntry& at(unsigned pos) { return entries[index(pos)]; }
  RuuEntry& youngest() { return at(count - 1); }
  void pop_front() {
    head = head + 1 == cap_ ? 0 : head + 1;
    --count;
  }

  // --- struct-of-arrays slabs, indexed [idx * kMaxSlices + op] ---------------
  // A producer probe on the wakeup path touches the producer's hot header
  // line plus one slab line, never the cold body. The token is the op's
  // scheduling incarnation: bumped whenever the op is (re)queued or
  // selected, invalidating any refs still floating in the queues.
  std::vector<Cycle> op_sel_;
  std::vector<Cycle> op_done_;
  std::vector<u32> op_token_;

  Cycle& op_sel(unsigned idx, unsigned op) {
    return op_sel_[idx * kMaxSlices + op];
  }
  Cycle& op_done(unsigned idx, unsigned op) {
    return op_done_[idx * kMaxSlices + op];
  }
  u32& op_token(unsigned idx, unsigned op) {
    return op_token_[idx * kMaxSlices + op];
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
    for (unsigned i = 0; i < entries[idx].num_ops; ++i)
      if (d[i] > c) return false;
    return true;
  }
  Cycle last_op_done(unsigned idx) const {
    const Cycle* d = op_done_row(idx);
    Cycle m = 0;
    for (unsigned i = 0; i < entries[idx].num_ops; ++i) {
      if (d[i] == kNever) return kNever;
      m = std::max(m, d[i]);
    }
    return m;
  }
  void reset_ops(unsigned idx) {
    for (unsigned i = 0; i < kMaxSlices; ++i)
      op_sel(idx, i) = op_done(idx, i) = kNever;
  }

  // --- dependence-edge pools -------------------------------------------------
  // NodePool lists (core/event_wheel.hpp): O(1) append in registration
  // order (replay worklist order depends on it) and O(1) whole-list
  // recycling at dispatch. Reserved at construction (the waiter pool by the
  // scheduler, whose event wheel shares it, so a woken op's node is
  // relinked, not copied): the steady state allocates nothing.
  NodePool<OpRef> wait_pool;
  NodePool<ConsumerRef> cons_pool;
  // Ops blocked on one still-undefined time, one list per time: list
  // op_list(idx, k) holds ops waiting for op_done(idx, k) and data_list(idx)
  // ops waiting for load idx's data_cycle. A list is consumed (detached,
  // then walked) exactly when its time is published.
  std::vector<NodeList> waiters;
  // Producer entry -> dependent entries, in registration order: one edge
  // per register source naming the producer (added at dispatch, only while
  // the slot still holds it) and one per load a store forwarded to. The
  // replay cascade walks these instead of the whole RUU; edges to dead
  // consumers are pruned lazily (schedule_consumers).
  std::vector<NodeList> consumers;

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
  // Slot idx gets a new occupant: its previous occupant's edges go back
  // to the free lists in O(1) (refs *to* the old occupant die on seq).
  void recycle_lists(unsigned idx) {
    cons_pool.recycle(consumers[idx]);
    for (unsigned l = 0; l < wait_stride; ++l)
      wait_pool.recycle(waiters[idx * wait_stride + l]);
  }

  // --- timing queries --------------------------------------------------------

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
    return entries[pidx].order == SliceOrder::HighToLow
               ? static_cast<unsigned>(std::countr_zero(undef))
               : 31u - static_cast<unsigned>(std::countl_zero(undef));
  }

  // When the slices `mask` of source operand `which` of `x` all exist: 0
  // for a register-file or committed producer, kNever while one is still
  // unproduced — then `blocker` (when given) receives the waiter list of
  // one undefined time among them: a producer slice-op's done time or a
  // load's data time. The producer is resolved once per call: a dense
  // switch on its result class, where slice-uniform classes (loads,
  // collects, compares, narrow) short-circuit the per-slice walk. Forced
  // inline: op_ready_time, the hottest path, calls it once per source.
  [[gnu::always_inline]] Cycle source_time(const RuuEntry& x, unsigned which,
                                           u32 mask, unsigned* blocker) const {
    if (!mask) return 0;
    const ProducerRef& ref = x.sources[which];
    if (ref.from_regfile()) return 0;  // regfile: ready at 0
    const RuuEntry& p = entries[ref.index];
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
  // times back, re-queues the reverted ops): each recomputation either
  // yields a finite time or registers on another still-undefined time, so
  // waiter-list wakeup is complete.
  Cycle op_ready_time(const RuuEntry& x, unsigned op_idx,
                      unsigned* blocker = nullptr) const {
    // Sch1..RF2 depth: nothing selects before the dispatch-time floor.
    Cycle ready = x.ready_floor;
    // Inter-slice chain (carry / shifted-in bits / forced in-order slices).
    // Checked first: at dispatch the predecessor is always undefined, so a
    // chained op parks on it without probing its sources.
    if (x.num_ops > 1) {
      int prev = -1;
      if (x.order == SliceOrder::LowToHigh)
        prev = static_cast<int>(op_idx) - 1;
      else if (x.order == SliceOrder::HighToLow)
        prev = static_cast<int>(op_idx) + 1;
      if (prev >= 0 && prev < static_cast<int>(x.num_ops)) {
        const unsigned k = static_cast<unsigned>(prev);
        const Cycle t = op_done_row(index_of(x))[k];
        if (t == kNever) {
          if (blocker) *blocker = op_list(index_of(x), k);
          return kNever;
        }
        ready = std::max(ready, t);
      }
    }
    const auto& need = x.si->need[op_idx];
    for (unsigned which = 0; which < 3; ++which) {
      const Cycle t = source_time(x, which, need[which], blocker);
      if (t == kNever) return kNever;
      ready = std::max(ready, t);
    }
    return ready;
  }

  // Number of low effective-address bits produced by cycle `c`.
  unsigned addr_bits_known_at(const RuuEntry& x, Cycle c) const {
    const Cycle* d = op_done_row(index_of(x));
    if (x.order == SliceOrder::Collect) return d[0] <= c ? 32 : 0;
    unsigned n = 0;
    while (n < x.num_ops && d[n] <= c) ++n;
    return n * geom.width();
  }

  // Cycle the full effective address exists (kNever if not yet).
  Cycle agen_complete_cycle(const RuuEntry& x) const {
    return last_op_done(index_of(x));
  }

  // Cycle the cache can consume the full effective address. With
  // sum-addressed memory the base+offset add happens inside the array
  // decoder, so the access overlaps the agen ops themselves: the address is
  // usable the cycle the last agen op is *selected*.
  Cycle full_addr_cycle(const RuuEntry& x) const {
    if (!sum_addressed) return agen_complete_cycle(x);
    const unsigned idx = index_of(x);
    Cycle m = 0;
    for (unsigned i = 0; i < x.num_ops; ++i) {
      const Cycle s = op_sel_[idx * kMaxSlices + i];
      if (s == kNever) return kNever;
      m = std::max(m, s);
    }
    return m;
  }

  // When all slices of a store's *data* operand are available (kNever if the
  // producer has not finished; `blocker` then names one undefined time).
  Cycle store_data_time(const RuuEntry& x, unsigned* blocker = nullptr) const {
    return source_time(x, 1, low_mask(geom.count), blocker);
  }

  // --- scheduling refs -------------------------------------------------------

  // The entry an OpRef names if it is still live: entry incarnation, op
  // slot and scheduling token must all match and the op must still be
  // unselected.
  RuuEntry* ref_entry(const OpRef& r) {
    RuuEntry& x = entries[r.idx];
    if (!x.valid || x.seq != r.seq) return nullptr;
    if (r.op_idx >= x.num_ops) return nullptr;
    if (op_token(r.idx, r.op_idx) != r.token) return nullptr;
    if (op_selected(r.idx, r.op_idx)) return nullptr;
    return &x;
  }

  // A fresh scheduling incarnation of op `op_idx` of entry `idx`: bumps
  // the op's token so any older refs die.
  OpRef fresh_ref(unsigned idx, unsigned op_idx) {
    const RuuEntry& x = entries[idx];
    const u32 tok = ++op_token(idx, op_idx);
    return OpRef{idx, x.seq, op_idx, tok,
                 (x.seq << 3) | slice_visit_pos(x.order, x.num_ops, op_idx),
                 sched_epoch};
  }

  // --- selective replay ------------------------------------------------------
  // Worklist of entries to revalidate (indices) with membership flags.
  // sched_epoch is bumped whenever replay regresses any recorded time; it
  // tells select to re-derive stale ready times, the memory phase to
  // rebuild its store views and re-examine every active LSQ entry.
  std::vector<unsigned> relax_work;
  std::vector<u8> relax_queued;
  u64 sched_epoch = 0;

  void schedule_relax(unsigned idx) {
    if (relax_queued[idx]) return;
    relax_queued[idx] = 1;
    relax_work.push_back(idx);
  }

  // Queue every live dependent of `idx` for replay revalidation, pruning
  // edges to recycled entries along the way. Order is preserved (the relax
  // work list order feeds the replay fixpoint); dead edges are unlinked in
  // place and returned to the node pool.
  void schedule_consumers(unsigned idx) {
    cons_pool.prune(consumers[idx], [this](const ConsumerRef& c) {
      const RuuEntry& d = entries[c.idx];
      if (!d.valid || d.seq != c.seq) return false;
      schedule_relax(c.idx);
      return true;
    });
  }

  // The consumer-edge invariant over every entry in flight: an edge in
  // consumers[p] that names a live entry c must not be a self-edge, and c
  // must read p at p's current seq through a register source — or be a
  // younger load that p, a store, forwarded to (a replay may since have
  // reset that forward; the edge then outlives it harmlessly). Returns
  // what broke, or an empty string.
  std::string check() const {
    for (unsigned pos = 0; pos < count; ++pos) {
      const unsigned p = index(pos);
      const RuuEntry& producer = entries[p];
      for (int n = consumers[p].head; n >= 0; n = cons_pool[n].next) {
        const ConsumerRef c = cons_pool[n].ref;
        const RuuEntry& x = entries[c.idx];
        if (!x.valid || x.seq != c.seq) continue;  // dead: pruned lazily
        bool reads = (x.flags & StaticInst::kFlagLoad) &&
                     (producer.flags & StaticInst::kFlagStore) &&
                     x.seq > producer.seq;  // a forward
        for (const ProducerRef& src : x.sources)
          reads |= src.index == static_cast<int>(p) && src.seq == producer.seq;
        if (c.idx != p && reads) continue;
        return "entry seq " + std::to_string(producer.seq) + " in slot " +
               std::to_string(p) +
               (c.idx == p ? " is its own consumer"
                           : " has consumer seq " + std::to_string(x.seq) +
                                 ", which reads no value of it");
      }
    }
    return {};
  }
};

}  // namespace bsp
