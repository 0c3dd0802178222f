// Unit tests for the timing core's units, without a whole core: the LSQ
// (MemPipeline) driven directly over a small hand-built RUU, Ruu's timing
// queries and its consumer-edge check.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "config/machine_config.hpp"
#include "core/mem_pipeline.hpp"
#include "core/ruu.hpp"
#include "core/simulator.hpp"
#include "emu/checkpoint.hpp"
#include "reference_disambig.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace bsp {
namespace {

constexpr u16 kLoad = StaticInst::kFlagLoad | StaticInst::kFlagMem;
constexpr u16 kStore = StaticInst::kFlagStore | StaticInst::kFlagMem;

// The scheduler side MemPipeline calls back into, recording what it is
// asked to do.
struct Hooks {
  std::vector<unsigned> published;
  std::vector<unsigned> replayed;
  void wake_at(Cycle, unsigned, unsigned, unsigned) {}
  void publish_load_data(unsigned idx) { published.push_back(idx); }
  void replay(unsigned idx) { replayed.push_back(idx); }
  void note_activity() {}
  void fail(const std::string& why) { ADD_FAILURE() << why; }
  bool tracing() const { return false; }
  void emit(const obs::TraceEvent&) {}
};

// The LSQ of a 4-slice machine over a 16-entry RUU, at cycle 100. Entries
// are appended in program order; a memory op has four 8-bit agen ops.
struct Lsq {
  explicit Lsq(TechniqueSet techniques) : core(make_core(techniques)) {}
  static CoreConfig make_core(TechniqueSet techniques) {
    CoreConfig c;
    c.slices = 4;
    c.techniques = techniques;
    c.ruu_entries = 16;
    c.lsq_entries = 8;
    return c;
  }

  // Appends an entry whose low `agen_bits` address bits exist (its low
  // agen_bits / 8 agen ops completed last cycle) and returns its index.
  unsigned add(u16 flags, u32 addr, unsigned bytes, unsigned agen_bits,
               bool bogus = false) {
    const unsigned idx = ruu.index(ruu.count++);
    RuuEntry& e = ruu[idx];
    e = RuuEntry{};
    e.valid = true;
    e.seq = ++seq;
    e.bogus = bogus;
    e.flags = flags;
    e.num_ops = 4;
    e.order = SliceOrder::LowToHigh;
    e.oracle.mem_addr = addr;
    e.oracle.mem_bytes = bytes;
    ruu.reset_ops(idx);
    for (unsigned k = 0; k < agen_bits / 8; ++k) {
      ruu.op_sel(idx, k) = now - 2;
      ruu.op_done(idx, k) = now - 1;
    }
    if (flags & StaticInst::kFlagMem) lsq.insert(e, idx);
    return idx;
  }
  void complete_agen(unsigned idx) {
    for (unsigned k = 0; k < 4; ++k) ruu.op_done(idx, k) = now - 1;
  }
  // Store `idx` reads its data from a producer that has not finished.
  void block_data(unsigned idx) {
    const unsigned p = add(0, 0, 0, 0);
    ruu[p].num_ops = 1;
    ruu[p].res_kind = kResSingle;
    ruu[idx].sources[1] = ProducerRef{static_cast<int>(p), ruu[p].seq};
  }
  const RuuEntry& operator[](unsigned idx) { return ruu[idx]; }

  const CoreConfig core;
  Ruu ruu{16, SliceGeometry{4}, false};
  MemoryHierarchy mem;
  Hooks hooks;
  SimStats stats;
  HostEvents hev;
  Cycle now = 100;
  u64 seq = 0;
  MemPipeline<Hooks> lsq{ruu, mem, core, hooks, stats, hev, now};
};

constexpr TechniqueSet kBypass =
    static_cast<unsigned>(Technique::PartialBypass);

// Over random LSQ contents — older stores with some, all or none of their
// address bits, data ready or not, committed-looking (Done) or wrong-path —
// plan_mem's decision for a load equals disambiguate_load's over the views
// the test derives itself, and, where every address is complete, the
// brute-force reference's.
TEST(MemPipeline, PlanMatchesTheDisambiguatorOnRandomLsqStates) {
  Rng rng(0x15A);
  unsigned full_knowledge = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const bool early = rng.chance(1, 2);
    TechniqueSet t = kBypass;
    if (early) t |= static_cast<unsigned>(Technique::EarlyLsq);
    Lsq q(t);
    const u32 base = (rng.next() & 0x0fffff00u) + 0x1000;
    const auto pick = [&](unsigned& bytes) {
      bytes = 1u << rng.below(3);
      return (base + (rng.next() & 0x3c)) & ~(bytes - 1);
    };
    std::vector<StoreView> views;
    bool complete = true;
    const unsigned n = rng.below(6);
    for (unsigned i = 0; i < n; ++i) {
      unsigned bytes = 0;
      const u32 addr = pick(bytes);
      if (rng.chance(1, 4)) {  // an older load: not part of any view
        q.add(kLoad, addr, bytes, 8 * rng.below(5));
        continue;
      }
      const bool bogus = rng.chance(1, 8);
      const bool done = !bogus && rng.chance(1, 4);
      const unsigned bits = done ? 32 : 8 * rng.below(5);
      const bool ready = done || rng.chance(3, 4);
      const unsigned s = q.add(kStore, addr, bytes, bits, bogus);
      q.ruu[s].oracle.store_value = rng.next();
      if (!ready) q.block_data(s);
      if (done) q.ruu[s].mem_phase = MemPhase::Done;
      StoreView v;
      v.id = static_cast<int>(s);
      if (!bogus) {
        v.addr = addr;
        v.bytes = bytes;
        v.data = q[s].oracle.store_value;
        v.addr_known_bits = bits;
        v.data_ready = bits == 32 && ready;
      }
      complete &= v.addr_known_bits == 32;
      views.push_back(v);
    }
    unsigned bytes = 0;
    const u32 addr = pick(bytes);
    const unsigned bits = 8 * (1 + rng.below(4));
    const unsigned l = q.add(kLoad, addr, bytes, bits);
    const MemPlan p = q.lsq.plan_mem(q[l], l, q.lsq.size() - 1);

    const LoadQuery load{bits, addr, bytes};
    const DisambigResult want = disambiguate_load(load, views, early);
    ASSERT_EQ(p.d.decision, want.decision) << "trial " << trial;
    EXPECT_EQ(p.d.store_id, want.store_id);
    EXPECT_EQ(p.d.forwarded, want.forwarded);
    EXPECT_EQ(p.d.used_partial, want.used_partial);
    EXPECT_EQ(p.store_wait, want.decision == LoadDecision::WaitStore);
    if (complete && bits == 32) {
      ++full_knowledge;
      const DisambigResult ref = reference_disambig(load, views);
      EXPECT_EQ(p.d.decision, ref.decision) << "trial " << trial;
      if (ref.decision == LoadDecision::Forward) {
        EXPECT_EQ(p.d.store_id, ref.store_id);
        EXPECT_EQ(p.d.forwarded, ref.forwarded);
      }
    }
  }
  EXPECT_GT(full_knowledge, 200u);  // the reference really was consulted
}

// Two D-cache ports: the third load ready to access in a cycle records its
// LSQ decision, retries, and stays due for the next cycle.
TEST(MemPipeline, ThirdLoadInACycleRetriesAndStaysDue) {
  Lsq q(kBypass);
  const unsigned a = q.add(kLoad, 0x2000, 4, 32);
  const unsigned b = q.add(kLoad, 0x3000, 4, 32);
  const unsigned c = q.add(kLoad, 0x4000, 4, 32);
  for (const unsigned i : {a, b, c}) q.lsq.mark_due(q[i]);
  q.lsq.progress();
  EXPECT_EQ(q.hooks.published, (std::vector<unsigned>{a, b}));
  EXPECT_TRUE(q.lsq.retry());
  EXPECT_EQ(q[c].lsq_decision_cycle, q.now);
  EXPECT_TRUE(q.lsq.due(q[c]));
  EXPECT_FALSE(q.lsq.due(q[a]) || q.lsq.due(q[b]));
  ++q.now;
  q.lsq.progress();
  EXPECT_EQ(q.hooks.published, (std::vector<unsigned>{a, b, c}));
  EXPECT_FALSE(q.lsq.retry());
  EXPECT_FALSE(q.lsq.due(q[c]));
}

// A change in a store's view (examined as its address lands, or retired)
// wakes exactly the loads whose last decision waited on an older store.
TEST(MemPipeline, StoreViewChangeWakesExactlyTheStoreWaitLoads) {
  Lsq q(kBypass);  // conventional: a load waits on every older address
  const unsigned s = q.add(kStore, 0x2000, 4, 0);
  const unsigned l1 = q.add(kLoad, 0x2100, 4, 32);
  const unsigned l2 = q.add(kLoad, 0x2200, 4, 0);  // no address bits yet
  const unsigned l3 = q.add(kLoad, 0x2300, 4, 32);
  for (const unsigned i : {s, l1, l2, l3}) q.lsq.mark_due(q[i]);
  q.lsq.progress();
  EXPECT_TRUE(q.lsq.store_waiting(q[l1]));
  EXPECT_FALSE(q.lsq.store_waiting(q[l2]));
  EXPECT_TRUE(q.lsq.store_waiting(q[l3]));

  // The store's address lands: it and the two waiting loads are examined.
  ++q.now;
  q.complete_agen(s);
  q.lsq.mark_due(q[s]);
  const u64 visits = q.hev.lsq_visits;
  q.lsq.progress();
  EXPECT_EQ(q.hev.lsq_visits - visits, 3u);
  EXPECT_EQ(q[s].mem_phase, MemPhase::Done);
  EXPECT_FALSE(q.lsq.store_waiting(q[l1]) || q.lsq.store_waiting(q[l3]));
  EXPECT_EQ(q[l1].lsq_decision_cycle, q.now);
  EXPECT_EQ(q[l2].lsq_decision_cycle, kNever);

  // Behind a second, unresolved store a new load waits; retiring the first
  // store wakes it, and nothing else.
  const unsigned s2 = q.add(kStore, 0x2400, 4, 0);
  const unsigned l4 = q.add(kLoad, 0x2500, 4, 32);
  q.lsq.mark_due(q[s2]);
  q.lsq.mark_due(q[l4]);
  q.lsq.progress();
  ASSERT_TRUE(q.lsq.store_waiting(q[l4]));
  q.lsq.retire_head(q[s]);
  EXPECT_TRUE(q.lsq.due(q[l4]));
  for (const unsigned i : {l1, l2, l3, s2}) EXPECT_FALSE(q.lsq.due(q[i]));
}

// A squashed entry takes its slot's bits and its active count with it, so
// the slot's next occupant starts clean; a retired (Done) one leaves the
// count alone, and a late wake for a Done entry is dropped.
TEST(MemPipeline, RetireAndSquashClearTheirSlotsBits) {
  Lsq q(kBypass);
  const unsigned s = q.add(kStore, 0x2000, 4, 0);
  const unsigned l = q.add(kLoad, 0x2100, 4, 32);
  q.lsq.mark_due(q[l]);
  q.lsq.progress();
  q.lsq.mark_due(q[l]);
  ASSERT_TRUE(q.lsq.due(q[l]) && q.lsq.store_waiting(q[l]));
  EXPECT_EQ(q.lsq.active(), 2);

  const unsigned slot = q[l].lsq_slot;
  q.lsq.squash_tail(q[l]);
  --q.ruu.count;
  EXPECT_FALSE(q.lsq.due(q[l]) || q.lsq.store_waiting(q[l]));
  EXPECT_EQ(q.lsq.active(), 1);
  const unsigned l2 = q.add(kLoad, 0x2200, 4, 0);
  EXPECT_EQ(q[l2].lsq_slot, slot);
  EXPECT_FALSE(q.lsq.due(q[l2]) || q.lsq.store_waiting(q[l2]));

  q.complete_agen(s);
  q.lsq.mark_due(q[s]);
  q.lsq.progress();
  ASSERT_EQ(q[s].mem_phase, MemPhase::Done);
  q.lsq.mark_due(q[s]);
  EXPECT_FALSE(q.lsq.due(q[s]));
  q.lsq.retire_head(q[s]);
  EXPECT_EQ(q.lsq.size(), 1u);
  EXPECT_EQ(q.lsq.active(), 1);
}

// A load whose partial-tag access is revalidated away and re-issued with
// its full address is a full-address access: it carries neither partial
// flag, and revalidation checks it by the full-address rule.
TEST(MemPipeline, ReissuedFullAccessDropsThePartialFlags) {
  Lsq q(kBypass | static_cast<unsigned>(Technique::PartialTag));
  ASSERT_EQ(q.mem.l1d().geometry().tag_lo_bit(), 14u);
  const unsigned l = q.add(kLoad, 0x12345670, 4, 16);
  q.lsq.mark_due(q[l]);
  q.lsq.progress();
  ASSERT_TRUE(q[l].used_partial_tag);  // a partial access on 16 bits
  ASSERT_EQ(q[l].access_start_cycle, q.now);

  // The top agen op behind it is reverted: 8 bits were not enough.
  q.ruu.op_sel(l, 1) = kNever;
  q.ruu.op_done(l, 1) = kNever;
  ASSERT_TRUE(q.lsq.revalidate(q.ruu[l]));
  ASSERT_EQ(q[l].mem_phase, MemPhase::Agen);
  EXPECT_FALSE(q[l].used_partial_tag || q[l].early_miss);

  // Every agen op is done 10 cycles later: the access is re-issued whole.
  q.now += 10;
  for (unsigned k = 0; k < 4; ++k) q.ruu.op_sel(l, k) = q.now - 2;
  q.complete_agen(l);
  q.lsq.mark_due(q[l]);
  q.lsq.progress();
  ASSERT_EQ(q[l].access_start_cycle, q.now);
  EXPECT_FALSE(q[l].used_partial_tag);
  EXPECT_FALSE(q[l].early_miss);

  // Its full address moves past the access start: the full-address rule
  // resets it, where the partial-bits rule (24 bits > tag_lo) would not.
  q.ruu.op_done(l, 3) = q.now + 5;
  EXPECT_TRUE(q.lsq.revalidate(q.ruu[l]));
  EXPECT_EQ(q[l].mem_phase, MemPhase::Agen);
}

TEST(Ruu, AddrBitsKnownCountsContiguousLowSlices) {
  for (const bool sum_addressed : {false, true}) {
    Ruu ruu(4, SliceGeometry{4}, sum_addressed);
    RuuEntry& e = ruu[0];
    e.valid = true;
    e.num_ops = 4;
    e.order = SliceOrder::LowToHigh;
    EXPECT_EQ(ruu.addr_bits_known_at(e, 100), 0u);
    const Cycle done[] = {5, 7, kNever, 6};  // slice 2 missing
    for (unsigned k = 0; k < 4; ++k) {
      ruu.op_sel(0, k) = done[k] == kNever ? kNever : done[k] - 1;
      ruu.op_done(0, k) = done[k];
    }
    EXPECT_EQ(ruu.addr_bits_known_at(e, 100), 16u);
    EXPECT_EQ(ruu.addr_bits_known_at(e, 6), 8u);  // slice 1 lands at 7
    EXPECT_EQ(ruu.agen_complete_cycle(e), kNever);
    EXPECT_EQ(ruu.full_addr_cycle(e), kNever);
    ruu.op_sel(0, 2) = 8;
    ruu.op_done(0, 2) = 9;
    EXPECT_EQ(ruu.addr_bits_known_at(e, 100), 32u);
    EXPECT_EQ(ruu.agen_complete_cycle(e), 9u);
    // Sum-addressed, the cache can take the address once the last agen op
    // is selected rather than done.
    EXPECT_EQ(ruu.full_addr_cycle(e), sum_addressed ? 8u : 9u);
  }
}

// Ruu::check() accepts an edge from a producer to a consumer that reads it
// at its current seq, and rejects a self-edge and an edge to a consumer
// that reads another incarnation of the slot.
TEST(Ruu, CheckRejectsSelfAndStaleEdges) {
  Ruu ruu(4, SliceGeometry{1}, false);
  for (unsigned i = 0; i < 2; ++i) {
    ruu[i].valid = true;
    ruu[i].seq = 10 + i;
  }
  ruu.count = 2;
  ruu[1].sources[0] = ProducerRef{0, 10};
  ruu.cons_pool.append(ruu.consumers[0], ConsumerRef{1, 11});
  EXPECT_EQ(ruu.check(), "");

  ruu[1].sources[0] = ProducerRef{0, 3};  // an older occupant of slot 0
  EXPECT_NE(ruu.check().find("reads no value of it"), std::string::npos)
      << ruu.check();

  ruu[1].sources[0] = ProducerRef{0, 10};
  ruu.cons_pool.append(ruu.consumers[1], ConsumerRef{1, 11});
  EXPECT_NE(ruu.check().find("is its own consumer"), std::string::npos)
      << ruu.check();
}

// A squash can restore a rename mapping that names a producer which has
// since committed and whose slot was reused — on fig11's gcc (seed 9) on
// the 4-slice full-stack machine, by the dispatching store itself. Such a
// source reads the register file and must get no consumer edge; with one,
// replay relayed through the self-edge forever. The invariant build checks
// every edge each cycle (Ruu::check): without dispatch's guard it fails
// this run at cycle 4,012, after 760 commits; other builds fail it at
// cycle 36,993 on run_relax's pop bound.
TEST(Ruu, ReusedProducerSlotGetsNoEdge) {
  WorkloadParams params;
  params.seed = 9;
  const Workload w = build_workload("gcc", params);
  const std::optional<Checkpoint> start = fast_forward(w.program, 1'000'000);
  ASSERT_TRUE(start);
  Simulator sim(bitsliced_machine(4, kAllTechniques), w.program, &*start);
  const SimResult r = sim.run(20'000, 20'000);
  EXPECT_TRUE(r.ok()) << r.error;
}

}  // namespace
}  // namespace bsp
