// The memory pipeline of the timing core: the unified load/store queue and
// every step that moves a load or store through it — LSQ disambiguation
// with partial addresses, partial-tag and hit-speculated cache accesses,
// and their verification (paper §5.1).
//
// MemPipeline owns the LSQ ring, its per-slot `due` and `store_wait`
// bitmaps, the count of entries not yet MemPhase::Done, the store-view
// cache and each queued load's speculation kind. Each phase of the core
// calls one entry point: insert (dispatch), note_agen_selected (select),
// mark_due (a timed wake), progress (the memory phase), revalidate
// (replay), retire_head (commit), squash_tail (squash). It reads the Ruu
// and the MemoryHierarchy and calls the scheduler, `Sched`, non-virtually:
//   void wake_at(Cycle c, unsigned idx, unsigned kind, unsigned blocker);
//   void publish_load_data(unsigned idx);  // arm the data time, wake waiters
//   void replay(unsigned idx);  // idx's times regressed: replay its cone
//   void note_activity();       // state changed this cycle: no idle skip
//   void fail(const std::string& why);
//   bool tracing() const;
//   void emit(const obs::TraceEvent& ev);
//
// Invariants: an entry keeps its ring slot (RuuEntry::lsq_slot) from insert
// to retire_head or squash_tail, which clear the slot's bits; active()
// counts the queued entries not Done (every phase change goes through
// set_phase); the memory phase examines an entry only in a cycle its due
// bit is set, and the BSP_CHECK_INVARIANTS build requires plan_mem() to
// say MemStep::kNone of every entry it skipped.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>
#include <vector>

#include "core/ruu.hpp"
#include "core/simulator.hpp"
#include "lsq/disambig.hpp"
#include "obs/trace.hpp"

namespace bsp {

// Memory ports into the L1 D-cache (load accesses started per cycle).
inline constexpr unsigned kDCachePorts = 2;

// What the memory phase would do with one LSQ entry this cycle.
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

template <class Sched>
class MemPipeline {
 public:
  MemPipeline(Ruu& ruu, MemoryHierarchy& mem, const CoreConfig& core,
              Sched& sched, SimStats& stats, HostEvents& hev,
              const Cycle& now)
      : ruu_(ruu), mem_(mem), core_(core), sched_(sched), stats_(stats),
        hev_(hev), now_(now) {
    lsq_.init(core.lsq_entries);
    due_.assign((lsq_.capacity() + 63) / 64, 0);
    store_wait_.assign(due_.size(), 0);
    hit_miss_.assign(due_.size(), 0);
    views_.reserve(core.lsq_entries);
  }

  std::size_t size() const { return lsq_.size(); }
  bool full() const { return lsq_.size() >= core_.lsq_entries; }
  int active() const { return active_; }
  // A load lost the D-cache port race this cycle and retries next cycle,
  // so the idle skip must not jump.
  bool retry() const { return retry_; }
  bool due(const RuuEntry& e) const { return test(due_, e.lsq_slot); }
  bool store_waiting(const RuuEntry& e) const {
    return test(store_wait_, e.lsq_slot);
  }
  std::size_t scratch_capacity() const { return views_.capacity(); }

  // --- entry points ----------------------------------------------------------

  // Dispatch: a memory op enters the queue in MemPhase::Agen. Nothing can
  // advance before an agen op completes, which wakes it.
  void insert(RuuEntry& e, unsigned idx) {
    e.lsq_slot = lsq_.push_back(static_cast<int>(idx));
    ++active_;
  }

  // Commit: the head leaves (committable memory ops are always Done).
  void retire_head(const RuuEntry& e) {
    assert(!lsq_.empty() &&
           lsq_.front() == static_cast<int>(ruu_.index_of(e)));
    forget(e);
    lsq_.pop_front();
    // A store leaves every younger load's view of older stores.
    if (e.flags & StaticInst::kFlagStore) wake_store_waiters();
  }

  // Squash: the youngest entry leaves.
  void squash_tail(const RuuEntry& e) {
    assert(!lsq_.empty() && lsq_.back() == static_cast<int>(ruu_.index_of(e)));
    forget(e);
    lsq_.pop_back();
    if (e.mem_phase != MemPhase::Done) --active_;
  }

  // A wake for `e` came due: unless Done, the next memory phase examines it.
  void mark_due(const RuuEntry& e) {
    if (e.mem_phase != MemPhase::Done) set(due_, e.lsq_slot);
  }

  // Select picked agen op of `e` (entry `idx`), completing at `done`: the
  // entry is examined when the address slice lands — or at once if a
  // sum-addressed load's address just became usable.
  void note_agen_selected(const RuuEntry& e, unsigned idx, Cycle done) {
    if (e.mem_phase == MemPhase::Done) return;
    sched_.wake_at(done, idx, kMemWake, 0);
    if (ruu_.sum_addressed && (e.flags & StaticInst::kFlagLoad) &&
        ruu_.full_addr_cycle(e) == now_)
      mark_due(e);
  }

  // The memory phase. It examines an LSQ entry only in a cycle when
  // something it depends on changed: one of its agen ops completes (or,
  // sum-addressed, its address becomes usable at select), an older store's
  // view changes (the store is examined, or commits), its store data or
  // its verify point arrives, it lost a D-cache port race last cycle, or a
  // replay regressed recorded times (every active entry). Due entries are
  // still visited in LSQ order, so ports and the store-view prefix behave
  // exactly as in a walk over the whole queue.
  void progress() {
    retry_ = false;
    // Every resident memory op has reached MemPhase::Done: nothing can
    // advance. (Commit drains Done entries from the head; replay re-raises
    // the counter through set_phase before anything can regress.)
    if (active_ == 0) return;
    unsigned ports_used = 0;
    reset_views();
    u64 epoch = ruu_.sched_epoch;
    // The invariant build visits every position, checking the skipped ones.
    const auto next = [&](std::size_t pos) {
      return kCheckInvariants ? pos : next_due(pos);
    };
    for (std::size_t pos = next(0); pos < lsq_.size(); pos = next(pos + 1)) {
      const unsigned slot = lsq_.slot(pos);
      const unsigned idx = static_cast<unsigned>(lsq_[pos]);
      RuuEntry& e = ruu_[idx];
      if (kCheckInvariants && !test(due_, slot)) {
        if (e.mem_phase != MemPhase::Done &&
            plan_mem(e, idx, pos).step != MemStep::kNone)
          sched_.fail("invariant: the memory phase skipped LSQ entry seq " +
                      std::to_string(e.seq) + ", which could advance");
        continue;
      }
      clear(due_, slot);
      if (e.mem_phase == MemPhase::Done) continue;  // stale wake
      ++hev_.lsq_visits;
      advance(e, idx, pos, ports_used);
      if (ruu_.sched_epoch != epoch) {
        // A replay regressed recorded times: re-examine every active entry
        // (those behind this position next cycle, as a full walk would).
        epoch = ruu_.sched_epoch;
        mark_active_due();
      }
    }
  }

  // Replay: are `e`'s recorded memory times still legal against the
  // current times of what they depend on? A load whose forward or access
  // no longer is goes back to MemPhase::Agen (reset_load), as does a Done
  // store whose address or data moved past now. Returns whether anything
  // changed.
  bool revalidate(RuuEntry& e) {
    if (e.flags & StaticInst::kFlagStore) {
      if (e.mem_phase != MemPhase::Done) return false;
      const Cycle addr_t = ruu_.agen_complete_cycle(e);
      const Cycle data_t = ruu_.store_data_time(e);
      if (addr_t != kNever && addr_t <= now_ && data_t != kNever &&
          data_t <= now_)
        return false;
      set_phase(e, MemPhase::Agen);
      return true;
    }
    bool changed = false;
    // Forwarded data must still be legal: the decision cycle (data_cycle - 1)
    // must postdate the store's address, the store's data and the load's
    // own full address. A committed forwarding store is always legal.
    if (e.forwarded && e.mem_phase == MemPhase::Done) {
      const Cycle decision = e.data_cycle - 1;
      bool legal = ruu_.addr_bits_known_at(e, decision) == 32;
      const RuuEntry& s = ruu_[static_cast<unsigned>(e.forward_store)];
      if (legal && s.valid && s.seq == e.forward_store_seq) {
        const Cycle dt = ruu_.store_data_time(s);
        const Cycle at = ruu_.agen_complete_cycle(s);
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
        const unsigned tag_lo = mem_.l1d().geometry().tag_lo_bit();
        legal = ruu_.addr_bits_known_at(e, e.access_start_cycle) > tag_lo;
      } else {
        const Cycle full_at = ruu_.full_addr_cycle(e);
        legal = full_at != kNever && full_at <= e.access_start_cycle;
      }
      if (!legal) {
        reset_load(e);
        changed = true;
      }
    }
    return changed;
  }

  // What the memory phase would do with entry `e` (RUU index `idx`, LSQ
  // position `pos`) this cycle: the phase acts on it, and the invariant
  // check requires kNone of every entry the phase skipped. Pure apart from
  // the store-view cache.
  MemPlan plan_mem(const RuuEntry& e, unsigned idx, std::size_t pos) {
    MemPlan p;
    if (e.mem_phase == MemPhase::Done) return p;
    if (e.flags & StaticInst::kFlagStore) {
      if (e.bogus) {
        if (ruu_.ops_done(idx, now_)) p.step = MemStep::kStoreDone;
        return p;
      }
      p.addr_t = ruu_.agen_complete_cycle(e);
      p.data_t = ruu_.store_data_time(e, &p.data_blocker);
      if (p.addr_t != kNever && p.addr_t <= now_ && p.data_t != kNever &&
          p.data_t <= now_)
        p.step = MemStep::kStoreDone;
      return p;
    }
    if (e.bogus) {
      // Wrong-path load: occupies the queue; completes after agen.
      if (e.mem_phase == MemPhase::Agen && ruu_.ops_done(idx, now_))
        p.step = MemStep::kBogusLoad;
      return p;
    }
    if (e.mem_phase == MemPhase::Agen) {
      p.bits = ruu_.addr_bits_known_at(e, now_);
      if (p.bits == 0) return p;
      refresh_views(pos);
      p.d = disambiguate_load(
          LoadQuery{p.bits, e.oracle.mem_addr, e.oracle.mem_bytes}, views_,
          core_.has(Technique::EarlyLsq));
      if (p.d.decision == LoadDecision::WaitStore) {
        p.store_wait = true;
        return p;
      }
      // Issue: start the cache access when enough address bits exist.
      const unsigned tag_lo = mem_.l1d().geometry().tag_lo_bit();
      const Cycle full_at = ruu_.full_addr_cycle(e);
      p.full_now = full_at != kNever && full_at <= now_;
      const bool can_partial = core_.has(Technique::PartialTag) &&
                               p.bits > tag_lo && p.bits < 32 && !p.full_now;
      p.access =
          p.d.decision == LoadDecision::Issue && (p.full_now || can_partial);
      if (p.d.decision != LoadDecision::Issue || p.access ||
          e.lsq_decision_cycle == kNever)
        p.step = MemStep::kLoadAgen;
      return p;
    }
    // Access. Verification happens the cycle *after* the speculative data
    // return (paper Figure 3: "verify with full tag bits on next cycle"),
    // so dependents selected against the speculative time are genuinely in
    // flight and must replay on a mis-speculation. A partial-tag access
    // needs the full address; a hit-speculated miss does not.
    if (now_ < e.data_cycle + 1) return p;
    const Cycle full_at = ruu_.full_addr_cycle(e);
    if ((full_at != kNever && full_at <= now_) || hit_speculated_miss(e))
      p.step = MemStep::kVerify;
    return p;
  }

 private:
  static bool test(const std::vector<u64>& bits, unsigned slot) {
    return (bits[slot >> 6] >> (slot & 63)) & 1;
  }
  static void set(std::vector<u64>& bits, unsigned slot) {
    bits[slot >> 6] |= u64{1} << (slot & 63);
  }
  static void clear(std::vector<u64>& bits, unsigned slot) {
    bits[slot >> 6] &= ~(u64{1} << (slot & 63));
  }
  // A known miss whose consumers were woken as if it hit.
  bool hit_speculated_miss(const RuuEntry& e) const {
    return test(hit_miss_, e.lsq_slot);
  }
  // An entry leaving the LSQ takes its slot's bits with it.
  void forget(const RuuEntry& e) {
    clear(due_, e.lsq_slot);
    clear(store_wait_, e.lsq_slot);
    clear(hit_miss_, e.lsq_slot);
  }
  // A store's view changed: every load whose last decision waited on an
  // older store looks again.
  void wake_store_waiters() {
    for (std::size_t w = 0; w < due_.size(); ++w) due_[w] |= store_wait_[w];
  }
  void mark_active_due() {
    for (std::size_t i = 0; i < lsq_.size(); ++i)
      if (ruu_[static_cast<unsigned>(lsq_[i])].mem_phase != MemPhase::Done)
        set(due_, lsq_.slot(i));
  }
  // First LSQ position >= pos whose due bit is set (size() if none).
  std::size_t next_due(std::size_t pos) const {
    const unsigned cap = lsq_.capacity();
    while (pos < lsq_.size()) {
      const unsigned s = lsq_.slot(pos);
      const u64 w = due_[s >> 6] >> (s & 63);
      if (w) return pos + static_cast<unsigned>(std::countr_zero(w));
      pos += std::min(64 - (s & 63), cap - s);
    }
    return lsq_.size();
  }
  void set_phase(RuuEntry& e, MemPhase p) {
    active_ += static_cast<int>(e.mem_phase == MemPhase::Done) -
               static_cast<int>(p == MemPhase::Done);
    e.mem_phase = p;
  }

  // View of the store at LSQ position `pos` as the disambiguator sees it.
  StoreView store_view_of(std::size_t pos) const {
    const RuuEntry& s = ruu_[static_cast<unsigned>(lsq_[pos])];
    StoreView v;
    v.id = lsq_[pos];
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
    v.addr_known_bits = ruu_.addr_bits_known_at(s, now_);
    // Disambiguation reads data_ready only of a store whose address is
    // complete, so the producer is probed only then.
    if (v.addr_known_bits == 32) v.data_ready = ruu_.store_data_time(s) <= now_;
    return v;
  }

  void reset_views() {
    views_.clear();
    views_built_ = 0;
    views_epoch_ = ruu_.sched_epoch;
  }
  // Store views for the LSQ prefix below `upto`, extended incrementally as
  // the memory phase advances through the queue and rebuilt when a replay
  // regresses recorded times (a store's address/data availability may have
  // moved later). Reset at the start of each memory phase.
  void refresh_views(std::size_t upto) {
    if (views_epoch_ != ruu_.sched_epoch) reset_views();
    for (; views_built_ < upto; ++views_built_) {
      const RuuEntry& s = ruu_[static_cast<unsigned>(lsq_[views_built_])];
      if (!s.valid || !(s.flags & StaticInst::kFlagStore)) continue;
      views_.push_back(store_view_of(views_built_));
    }
  }

  void advance(RuuEntry& e, unsigned idx, std::size_t pos,
               unsigned& ports_used) {
    const MemPlan p = plan_mem(e, idx, pos);
    if (e.flags & StaticInst::kFlagStore) {
      // A correct-path store is examined because an address slice or its
      // data just landed (or a replay): the view younger loads
      // disambiguate against may have changed.
      if (!e.bogus) wake_store_waiters();
      if (p.step == MemStep::kStoreDone) {
        set_phase(e, MemPhase::Done);
        sched_.note_activity();
      } else if (p.addr_t <= now_) {
        // Address complete, data outstanding: look again when it lands.
        // (A wrong-path store's addr_t stays kNever.)
        sched_.wake_at(p.data_t, idx, kMemWake, p.data_blocker);
      }
      return;
    }
    if (p.store_wait)
      set(store_wait_, e.lsq_slot);
    else
      clear(store_wait_, e.lsq_slot);

    switch (p.step) {
      case MemStep::kNone:
      case MemStep::kStoreDone:
        return;
      case MemStep::kBogusLoad:
        e.data_cycle = now_ + mem_.l1d().hit_latency();
        e.data_final = true;
        set_phase(e, MemPhase::Done);
        sched_.publish_load_data(idx);  // wrong-path consumers still schedule
        return;
      case MemStep::kLoadAgen:
        load_agen(e, idx, p, ports_used);
        return;
      case MemStep::kVerify:
        verify_load(e, idx);
        return;
    }
  }

  void load_agen(RuuEntry& e, unsigned idx, const MemPlan& p,
                 unsigned& ports_used) {
    const DisambigResult& d = p.d;
    if (e.lsq_decision_cycle == kNever) {
      e.lsq_decision_cycle = now_;
      sched_.note_activity();
      if (d.used_partial) ++stats_.loads_issued_partial_lsq;
      if (sched_.tracing())
        sched_.emit({.kind = obs::EventKind::LsqDecision, .cycle = now_,
                     .seq = e.seq, .pc = e.pc,
                     .flags = d.used_partial ? obs::kFlagPartial : 0u,
                     .a = p.bits,
                     .b = d.decision == LoadDecision::Forward ? 1u : 0u});
    }

    if (d.decision == LoadDecision::Forward) {
      ++stats_.load_forwards;
      e.forwarded = true;
      e.forward_store = d.store_id;
      e.forward_store_seq = ruu_[static_cast<unsigned>(d.store_id)].seq;
      e.data_cycle = now_ + 1;
      e.data_final = true;
      set_phase(e, MemPhase::Done);
      // Replay edge: if the store's address/data times regress, this
      // load's forward must be revalidated.
      ruu_.cons_pool.append(ruu_.consumers[static_cast<unsigned>(d.store_id)],
                            ConsumerRef{idx, e.seq});
      sched_.publish_load_data(idx);
      return;
    }
    if (!p.access) return;
    if (ports_used >= kDCachePorts) {
      retry_ = true;  // port conflict: retry next cycle
      mark_due(e);
      return;
    }
    ++ports_used;
    start_load_access(e, p.full_now ? 32 : p.bits);
    sched_.publish_load_data(idx);
    // `b` is what the text sink's label reads, as the inline trace did.
    if (sched_.tracing())
      sched_.emit({.kind = obs::EventKind::CacheAccess, .cycle = now_,
                   .seq = e.seq, .pc = e.pc,
                   .flags = (e.used_partial_tag ? obs::kFlagPartial : 0u) |
                            (e.early_miss ? obs::kFlagEarly : 0u),
                   .a = e.data_cycle, .b = p.bits});
  }

  void start_load_access(RuuEntry& e, unsigned bits_known) {
    const u32 addr = e.oracle.mem_addr;
    Cache& l1d = mem_.l1d();
    e.access_start_cycle = now_;

    if (bits_known < 32) {
      // Partial-tag early access (only reachable when the technique is on).
      const unsigned avail_tag = bits_known - l1d.geometry().tag_lo_bit();
      assert(avail_tag >= 1 && avail_tag < l1d.geometry().tag_bits());
      const u32 ways = l1d.partial_match_ways(addr, avail_tag);
      e.used_partial_tag = true;
      if (ways == 0) {
        // Early, non-speculative miss: start the L2 path immediately.
        bool hit = false;
        const unsigned lat = mem_.data_latency(addr, false, &hit);
        assert(!hit);
        ++stats_.l1d_misses;
        ++stats_.early_miss_detects;
        e.early_miss = true;
        e.data_cycle = now_ + lat;
        e.data_final = true;
        set_phase(e, MemPhase::Done);
        return;
      }
      ++stats_.partial_tag_accesses;
      u32 rng = static_cast<u32>(e.seq);
      const auto way = l1d.predict_way(addr, ways, core_.way_policy, &rng);
      e.forward_store = -1;
      set_phase(e, MemPhase::Access);
      e.data_cycle = now_ + l1d.hit_latency();  // speculative return
      e.data_final = false;
      e.predicted_way = way ? static_cast<int>(*way) : -1;
      return;
    }

    // Conventional access with the complete address. Dependents are woken
    // assuming an L1 hit (speculative scheduling); a miss retimes the data
    // and replays them.
    bool hit = false;
    const unsigned lat = mem_.data_latency(addr, false, &hit);
    if (hit) {
      ++stats_.l1d_hits;
      e.data_cycle = now_ + lat;
      e.data_final = true;
      set_phase(e, MemPhase::Done);
    } else {
      ++stats_.l1d_misses;
      e.data_cycle = now_ + l1d.hit_latency();  // optimistic wakeup
      e.true_data_cycle = now_ + lat;
      e.data_final = false;
      set_phase(e, MemPhase::Access);
      set(hit_miss_, e.lsq_slot);
    }
  }

  // Settles the load's speculation: called when the full address exists
  // (partial-tag access) or at the optimistic wakeup time (hit-speculated
  // miss).
  void verify_load(RuuEntry& e, unsigned idx) {
    Cache& l1d = mem_.l1d();
    const u32 addr = e.oracle.mem_addr;
    if (hit_speculated_miss(e)) {
      // Hit-speculation on a known miss: retime and replay consumers.
      ++stats_.load_replays;
      emit_verify(e, 1, e.true_data_cycle, true);
      retime_load(e, idx, e.true_data_cycle);
      return;
    }
    const auto actual = l1d.find(addr);
    bool hit = false;
    const unsigned lat = mem_.data_latency(addr, false, &hit);
    if (hit) ++stats_.l1d_hits; else ++stats_.l1d_misses;

    if (hit && actual && e.predicted_way == static_cast<int>(*actual)) {
      e.data_final = true;  // speculation confirmed, data time stands
      set_phase(e, MemPhase::Done);
      sched_.note_activity();
      emit_verify(e, 0, e.data_cycle, false);
      return;
    }
    ++stats_.load_replays;
    if (hit) {
      // Way misprediction: one replayed access.
      ++stats_.way_mispredicts;
      emit_verify(e, 2, now_ + l1d.hit_latency(), true);
      retime_load(e, idx, now_ + l1d.hit_latency());
    } else {
      emit_verify(e, 3, now_ + lat, true);
      retime_load(e, idx, now_ + lat);
    }
  }

  // The data moved later: everything scheduled against the speculative
  // time (and, transitively, its dependents) must be re-examined.
  void retime_load(RuuEntry& e, unsigned idx, Cycle new_data_cycle) {
    e.data_cycle = new_data_cycle;
    e.data_final = true;
    set_phase(e, MemPhase::Done);
    sched_.publish_load_data(idx);
    sched_.replay(idx);
  }

  void reset_load(RuuEntry& e) {
    set_phase(e, MemPhase::Agen);
    e.lsq_decision_cycle = kNever;
    e.access_start_cycle = kNever;
    e.data_cycle = kNever;
    e.true_data_cycle = kNever;
    e.data_final = false;
    e.forwarded = false;
    e.forward_store = -1;
    e.predicted_way = -1;
    e.used_partial_tag = false;
    e.early_miss = false;
    clear(hit_miss_, e.lsq_slot);
    ++stats_.load_replays;
  }

  // CacheVerify outcome codes are documented in obs/trace.hpp.
  void emit_verify(const RuuEntry& e, u64 outcome, Cycle data, bool replay) {
    if (sched_.tracing())
      sched_.emit({.kind = obs::EventKind::CacheVerify, .cycle = now_,
                   .seq = e.seq, .pc = e.pc,
                   .flags = replay ? obs::kFlagReplay : 0u, .a = data,
                   .b = outcome});
  }

  Ruu& ruu_;
  MemoryHierarchy& mem_;
  const CoreConfig& core_;
  Sched& sched_;
  SimStats& stats_;
  HostEvents& hev_;
  const Cycle& now_;

  // Unified LSQ: RUU indices of in-flight memory ops, oldest first.
  Ring<int> lsq_;
  // Per-ring-slot bitmaps. `due_`: entries the memory phase must examine at
  // its next run; a bit set behind the walk's position carries over to the
  // next cycle, exactly when a polling walk would next have looked.
  // `store_wait_`: loads whose last disambiguation waited on an older
  // store, woken together whenever a store's view changes. `hit_miss_`:
  // loads in Access on a known miss whose consumers were woken as if it
  // hit; set by the access, cleared by reset_load and by leaving the LSQ.
  std::vector<u64> due_;
  std::vector<u64> store_wait_;
  std::vector<u64> hit_miss_;
  int active_ = 0;
  bool retry_ = false;
  // Store-view cache: views of the stores below LSQ position views_built_,
  // valid while views_epoch_ matches the RUU's sched_epoch.
  std::vector<StoreView> views_;
  std::size_t views_built_ = 0;
  u64 views_epoch_ = 0;
};

}  // namespace bsp
