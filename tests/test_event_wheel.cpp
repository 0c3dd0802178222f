// The timing core's queue structures (core/event_wheel.hpp) against simple
// models: EventWheel against a std::multimap of (cycle, id), including
// idle jumps and distances past the fine horizon and past 64 horizons;
// Ring wraparound and slot stability; NodePool list order and recycling.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "core/event_wheel.hpp"

namespace bsp {
namespace {

struct IdRef {
  u64 id = 0;
};

std::vector<u64> walk(const NodePool<IdRef>& pool, const NodeList& l) {
  std::vector<u64> ids;
  for (int n = l.head; n >= 0; n = pool[n].next) ids.push_back(pool[n].ref.id);
  return ids;
}

// A delay drawn to cover every tier boundary: the fine wheel, its edge,
// 64 horizons (65,536 cycles) and well beyond.
Cycle draw_delay(std::mt19937_64& rng) {
  const auto pick = [&](Cycle lo, Cycle hi) {
    return std::uniform_int_distribution<Cycle>(lo, hi)(rng);
  };
  switch (rng() % 6) {
    case 0:
      return pick(1, 8);
    case 1:
      return pick(1, 1023);
    case 2:
      return pick(1020, 1030);
    case 3:
      return pick(1024, 65536);
    case 4:
      return pick(65530, 70000);
    default:
      return pick(1, 200000);
  }
}

void run_model(u64 seed, int steps) {
  constexpr u64 kMarkId = ~u64{0};
  std::mt19937_64 rng(seed);
  NodePool<IdRef> pool;
  EventWheel<IdRef> wheel(pool);
  std::multimap<Cycle, u64> model;
  Cycle now = 0;
  u64 next_id = 1;
  for (int step = 0; step < steps; ++step) {
    const unsigned ops = static_cast<unsigned>(rng() % 4);
    for (unsigned k = 0; k < ops && model.size() < 400; ++k) {
      const Cycle c = now + draw_delay(rng);
      if (rng() % 3 == 0) {
        wheel.mark(c);
        model.emplace(c, kMarkId);
      } else {
        const u64 id = next_id++;
        const bool far = wheel.push(c, pool.alloc(), IdRef{id});
        EXPECT_EQ(far, c - now >= EventWheel<IdRef>::kSize);
        model.emplace(c, id);
      }
    }
    if (rng() % 8 == 0) wheel.mark(now);  // already due: no event

    const Cycle expect_next = model.empty() ? kNever : model.begin()->first;
    ASSERT_EQ(wheel.next(), expect_next) << "seed " << seed << " step "
                                          << step << " now " << now;

    // Single step, an idle jump to the next event, or a jump short of it.
    Cycle t = now + 1;
    if (expect_next != kNever && expect_next > now + 1) {
      const unsigned how = static_cast<unsigned>(rng() % 3);
      if (how == 1) t = expect_next;
      if (how == 2)
        t = std::uniform_int_distribution<Cycle>(now + 1, expect_next)(rng);
    }
    std::vector<u64> got;
    wheel.advance(t, [&](const IdRef& r) { got.push_back(r.id); });
    std::vector<u64> want;
    while (!model.empty() && model.begin()->first <= t) {
      ASSERT_EQ(model.begin()->first, t) << "an event was skipped";
      if (model.begin()->second != kMarkId)
        want.push_back(model.begin()->second);
      model.erase(model.begin());
    }
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << "seed " << seed << " cycle " << t;
    now = t;
    ASSERT_EQ(wheel.check(now), "") << "seed " << seed << " cycle " << now;
  }
}

TEST(EventWheel, MatchesMultimapModel) {
  for (const u64 seed : {1u, 2u, 3u, 0x5eedu}) run_model(seed, 20'000);
}

TEST(EventWheel, TimersAreMarksWithoutRefs) {
  NodePool<IdRef> pool;
  EventWheel<IdRef> wheel(pool);
  wheel.mark(5);
  wheel.mark(5);  // a repeated arm is the same mark
  wheel.mark(3000);
  EXPECT_EQ(wheel.next(), 5u);
  int refs = 0;
  wheel.advance(5, [&](const IdRef&) { ++refs; });
  EXPECT_EQ(refs, 0);
  EXPECT_EQ(wheel.next(), 3000u);  // far-tier timer
  wheel.advance(3000, [&](const IdRef&) { ++refs; });
  EXPECT_EQ(refs, 0);
  EXPECT_EQ(wheel.next(), kNever);
  EXPECT_EQ(wheel.check(3000), "");
}

TEST(EventWheel, FarEntriesMoveIntoTheWheelOnlyWithinTheHorizon) {
  NodePool<IdRef> pool;
  EventWheel<IdRef> wheel(pool);
  EXPECT_TRUE(wheel.push(70'000, pool.alloc(), IdRef{1}));
  EXPECT_TRUE(wheel.push(70'500, pool.alloc(), IdRef{2}));
  EXPECT_TRUE(wheel.push(200'000, pool.alloc(), IdRef{3}));
  std::vector<u64> got;
  const auto due = [&](const IdRef& r) { got.push_back(r.id); };
  EXPECT_EQ(wheel.next(), 70'000u);
  wheel.advance(69'000, due);  // 70000 comes within the horizon, 70500 not
  EXPECT_EQ(wheel.check(69'000), "");
  EXPECT_EQ(wheel.next(), 70'000u);
  wheel.advance(70'000, due);
  EXPECT_EQ(got, std::vector<u64>{1});
  EXPECT_EQ(wheel.next(), 70'500u);
  wheel.advance(70'500, due);
  EXPECT_EQ(wheel.next(), 200'000u);
  wheel.advance(200'000, due);  // an idle jump straight onto a far entry
  EXPECT_EQ(got, (std::vector<u64>{1, 2, 3}));
  EXPECT_EQ(wheel.next(), kNever);
  // A far entry holds no pool node: the one node each push took went back
  // at once, and the one each move into the wheel took went back when due.
  EXPECT_EQ(pool.alloc(), 0);
  EXPECT_EQ(pool.alloc(), 1);
}

TEST(EventWheel, CheckReportsAClockMismatch) {
  NodePool<IdRef> pool;
  EventWheel<IdRef> wheel(pool);
  wheel.push(10, pool.alloc(), IdRef{1});
  EXPECT_EQ(wheel.check(0), "");
  EXPECT_NE(wheel.check(10), "");  // not yet advanced to cycle 10
}

TEST(Ring, WrapsAroundAndKeepsSlots) {
  Ring<int> ring;
  ring.init(5);
  EXPECT_EQ(ring.capacity(), 8u);
  std::vector<unsigned> slot_of(1000);
  int front = 0;
  int back = 0;
  std::mt19937_64 rng(11);
  for (int step = 0; step < 5000; ++step) {
    if (ring.size() < ring.capacity() && (ring.empty() || rng() % 2)) {
      slot_of[static_cast<std::size_t>(back % 1000)] = ring.push_back(back);
      ++back;
    } else {
      ring.pop_front();
      ++front;
    }
    ASSERT_EQ(ring.size(), static_cast<std::size_t>(back - front));
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const int v = front + static_cast<int>(i);
      ASSERT_EQ(ring[i], v);
      // An element stays in the slot push_back returned for it.
      ASSERT_EQ(ring.slot(i), slot_of[static_cast<std::size_t>(v % 1000)]);
    }
    if (!ring.empty()) {
      EXPECT_EQ(ring.front(), front);
      EXPECT_EQ(ring.back(), back - 1);
    }
  }
  while (ring.size() > 1) {
    ring.pop_back();
    --back;
    EXPECT_EQ(ring.back(), back - 1);
  }
  ring.clear();
  EXPECT_TRUE(ring.empty());
}

TEST(NodePool, AppendKeepsRegistrationOrder) {
  NodePool<IdRef> pool;
  NodeList a;
  NodeList b;
  for (u64 i = 0; i < 6; ++i) pool.append(i % 2 ? b : a, IdRef{i});
  EXPECT_EQ(walk(pool, a), (std::vector<u64>{0, 2, 4}));
  EXPECT_EQ(walk(pool, b), (std::vector<u64>{1, 3, 5}));

  // take() detaches the list; the walk sees it in order.
  const int head = pool.take(a);
  EXPECT_TRUE(a.empty());
  std::vector<u64> taken;
  for (int n = head; n >= 0;) {
    const int next = pool[n].next;
    taken.push_back(pool[n].ref.id);
    pool.release(n);
    n = next;
  }
  EXPECT_EQ(taken, (std::vector<u64>{0, 2, 4}));
}

TEST(NodePool, RecyclesAWholeListByOneSplice) {
  NodePool<IdRef> pool;
  NodeList l;
  for (u64 i = 0; i < 100; ++i) pool.append(l, IdRef{i});
  std::vector<int> nodes;
  for (int n = l.head; n >= 0; n = pool[n].next) nodes.push_back(n);
  const std::size_t cap = pool.capacity();
  pool.recycle(l);
  EXPECT_TRUE(l.empty());
  // The list was spliced onto the free list as a whole: allocation hands
  // its nodes back in list order, and the pool does not grow.
  for (const int n : nodes) EXPECT_EQ(pool.alloc(), n);
  EXPECT_EQ(pool.capacity(), cap);
  NodeList empty;
  pool.recycle(empty);  // recycling an empty list is a no-op
  EXPECT_TRUE(empty.empty());
}

TEST(NodePool, PruneUnlinksRejectedNodesInPlace) {
  NodePool<IdRef> pool;
  NodeList l;
  for (u64 i = 0; i < 10; ++i) pool.append(l, IdRef{i});
  std::vector<u64> kept;
  pool.prune(l, [&](const IdRef& r) {
    if (r.id % 3 == 0) return false;  // drops 0, 3, 6 and the tail 9
    kept.push_back(r.id);
    return true;
  });
  const std::vector<u64> want{1, 2, 4, 5, 7, 8};
  EXPECT_EQ(kept, want);
  EXPECT_EQ(walk(pool, l), want);
  pool.append(l, IdRef{42});  // the tail moved back to node 8
  EXPECT_EQ(walk(pool, l).back(), 42u);
  EXPECT_EQ(walk(pool, l).size(), 7u);
  pool.prune(l, [](const IdRef&) { return false; });
  EXPECT_TRUE(l.empty());
  EXPECT_EQ(l.tail, -1);
}

}  // namespace
}  // namespace bsp
