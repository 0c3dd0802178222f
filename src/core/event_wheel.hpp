// Host-side queue structures of the event-driven timing core.
//
//   * NodePool<Ref>: free-list-recycled list nodes carrying a Ref, linked
//     into NodeLists with O(1) append (registration order is kept) and
//     O(1) whole-list recycling.
//   * Ring<T>: a fixed power-of-two ring whose elements keep their slot
//     from push to pop, so per-slot bitmaps can track them.
//   * EventWheel<Ref>: every future wake (a pool node carrying a Ref) and
//     timer (a cycle with no payload) in one structure. A 1,024-slot fine
//     wheel with a summary bitmap covers the next kSize cycles; one flat
//     far vector with its minimum holds everything beyond, and moves into
//     the wheel once that minimum comes within the horizon.
//
// None of these knows the pipeline: Simulator::Impl decides what is
// queued where and when.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <string>
#include <vector>

#include "core/sliced_value.hpp"

namespace bsp {

// First and last node of one NodePool list (-1 when empty).
struct NodeList {
  int head = -1;
  int tail = -1;
  bool empty() const { return head < 0; }
};

template <class Ref>
class NodePool {
 public:
  struct Node {
    Ref ref;
    int next;
  };

  void reserve(std::size_t n) { nodes_.reserve(n); }
  std::size_t capacity() const { return nodes_.capacity(); }
  Node& operator[](int n) { return nodes_[static_cast<std::size_t>(n)]; }
  const Node& operator[](int n) const {
    return nodes_[static_cast<std::size_t>(n)];
  }

  int alloc() {
    if (free_ < 0) {
      nodes_.push_back(Node{});
      return static_cast<int>(nodes_.size() - 1);
    }
    const int n = free_;
    free_ = (*this)[n].next;
    return n;
  }
  void release(int n) {
    (*this)[n].next = free_;
    free_ = n;
  }

  // Links node `n`, now carrying `ref`, at the tail of `l`.
  void link_back(NodeList& l, int n, const Ref& ref) {
    (*this)[n] = Node{ref, -1};
    if (l.tail < 0)
      l.head = n;
    else
      (*this)[l.tail].next = n;
    l.tail = n;
  }
  void append(NodeList& l, const Ref& ref) { link_back(l, alloc(), ref); }

  // Detaches the whole of `l` and returns its first node (-1 if empty);
  // the caller walks it through `next` and relinks or releases each node.
  int take(NodeList& l) {
    const int n = l.head;
    l.head = l.tail = -1;
    return n;
  }

  // Returns the whole of `l` to the free list in O(1).
  void recycle(NodeList& l) {
    if (l.head < 0) return;
    (*this)[l.tail].next = free_;
    free_ = l.head;
    l.head = l.tail = -1;
  }

  // Walks `l` in order, unlinking and freeing every node whose ref `keep`
  // returns false for.
  template <class Keep>
  void prune(NodeList& l, Keep&& keep) {
    int prev = -1;
    for (int n = l.head; n >= 0;) {
      const int next = (*this)[n].next;
      if (keep((*this)[n].ref)) {
        prev = n;
      } else {
        if (prev < 0)
          l.head = next;
        else
          (*this)[prev].next = next;
        if (next < 0) l.tail = prev;
        release(n);
      }
      n = next;
    }
  }

 private:
  std::vector<Node> nodes_;
  int free_ = -1;
};

template <class T>
class Ring {
 public:
  // Capacity rounds up to a power of two; the ring never grows.
  void init(unsigned capacity) {
    unsigned cap = 1;
    while (cap < capacity) cap <<= 1;
    buf_.assign(cap, T{});
    mask_ = cap - 1;
    head_ = count_ = 0;
  }
  unsigned capacity() const { return mask_ + 1; }
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  // Slot of the i-th element from the front.
  unsigned slot(std::size_t i) const {
    return (head_ + static_cast<unsigned>(i)) & mask_;
  }
  const T& operator[](std::size_t i) const { return buf_[slot(i)]; }
  const T& front() const { return buf_[head_]; }
  const T& back() const { return buf_[slot(count_ - 1)]; }
  // Appends `v` and returns the slot it keeps until popped.
  unsigned push_back(const T& v) {
    const unsigned s = slot(count_);
    buf_[s] = v;
    ++count_;
    return s;
  }
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --count_;
  }
  void pop_back() { --count_; }
  void clear() { count_ = 0; }

 private:
  std::vector<T> buf_;
  unsigned mask_ = 0;
  unsigned head_ = 0;
  unsigned count_ = 0;
};

// Wakes share the NodePool of the owner's other lists, so a node moves
// between a list and a wheel slot without copying its ref. A timer is a
// marked slot: its summary bit is set but it may hold no nodes. The clock
// (`now`) only moves through advance(), which never jumps past next().
template <class Ref>
class EventWheel {
 public:
  static constexpr unsigned kBits = 10;
  static constexpr Cycle kSize = Cycle{1} << kBits;

  explicit EventWheel(NodePool<Ref>& pool) : pool_(pool) { head_.fill(-1); }

  void reserve_far(std::size_t n) { far_.reserve(n); }
  std::size_t far_capacity() const { return far_.capacity(); }

  // Files pool node `n` with `ref` at cycle c > now. Returns true when c
  // lies past the fine horizon: the far tier then keeps the ref and `n`
  // goes back to the pool.
  bool push(Cycle c, int n, const Ref& ref) {
    if (c - now_ < kSize) {
      const unsigned s = slot_of(c);
      pool_[n] = typename NodePool<Ref>::Node{ref, head_[s]};
      head_[s] = n;
      set_bit(s);
      return false;
    }
    push_far(c, ref, false);
    pool_.release(n);
    return true;
  }

  // A timer at cycle c: next() reports it, advance() clears it. A cycle
  // at or before now is already due and needs no mark.
  void mark(Cycle c) {
    if (c <= now_) return;
    if (c - now_ < kSize)
      set_bit(slot_of(c));
    else
      push_far(c, Ref{}, true);
  }

  // First cycle after now holding a wake or a timer (kNever if none). Far
  // entries all lie past the horizon, so a populated slot comes first.
  Cycle next() const {
    if (!slots_) return far_min_;
    const unsigned mask = kSize - 1;
    const unsigned start = slot_of(now_ + 1);
    for (unsigned step = 0; step <= kWords; ++step) {
      const unsigned word = ((start >> 6) + step) & (kWords - 1);
      u64 bits = bits_[word];
      if (step == 0) bits &= ~u64{0} << (start & 63);
      if (bits) {
        const unsigned s =
            word * 64 + static_cast<unsigned>(std::countr_zero(bits));
        return now_ + 1 + ((s - start) & mask);
      }
    }
    return far_min_;
  }

  // Moves the clock to t (now <= t <= next()) and hands `due` every ref
  // queued for cycle t; far entries t brings within the horizon move into
  // the wheel. `due` must not touch the wheel.
  template <class Due>
  void advance(Cycle t, Due&& due) {
    now_ = t;
    const unsigned s = slot_of(t);
    if (bits_[s >> 6] & (u64{1} << (s & 63))) {
      bits_[s >> 6] &= ~(u64{1} << (s & 63));
      --slots_;
      int n = head_[s];
      head_[s] = -1;
      while (n >= 0) {
        const int next = pool_[n].next;
        due(pool_[n].ref);
        pool_.release(n);
        n = next;
      }
    }
    if (far_min_ - t < kSize) pull_far(due);
  }

  // Structural invariants, checked against the owner's clock `now`: the
  // wheel has been advanced to it, every slot holding nodes has its
  // summary bit (a bit on an empty slot is a timer), the populated-slot
  // count matches the bitmap, now's own slot is drained, and far_min is
  // the minimum over far entries that all lie past the horizon. Returns
  // what broke, or an empty string.
  std::string check(Cycle now) const {
    if (now_ != now)
      return "clock at cycle " + std::to_string(now_) + ", not " +
             std::to_string(now);
    unsigned populated = 0;
    for (unsigned s = 0; s < kSize; ++s) {
      const bool bit = (bits_[s >> 6] >> (s & 63)) & 1;
      if (head_[s] >= 0 && !bit)
        return "slot " + std::to_string(s) + " holds nodes without its bit";
      populated += bit;
    }
    if (populated != slots_)
      return std::to_string(populated) + " slots populated, count says " +
             std::to_string(slots_);
    if ((bits_[slot_of(now) >> 6] >> (slot_of(now) & 63)) & 1)
      return "the slot of the current cycle is still populated";
    Cycle min = kNever;
    for (const Far& f : far_) {
      if (f.c < now + kSize)
        return "far entry at cycle " + std::to_string(f.c) +
               " lies within the horizon";
      min = std::min(min, f.c);
    }
    if (min != far_min_)
      return "far minimum " + std::to_string(far_min_) + " but entries " +
             "reach down to " + std::to_string(min);
    return {};
  }

 private:
  static constexpr unsigned kWords = kSize / 64;
  struct Far {
    Cycle c;
    Ref ref;
    bool mark;
  };

  static unsigned slot_of(Cycle c) {
    return static_cast<unsigned>(c & (kSize - 1));
  }
  void set_bit(unsigned s) {
    const u64 bit = u64{1} << (s & 63);
    slots_ += !(bits_[s >> 6] & bit);
    bits_[s >> 6] |= bit;
  }

  // Out of line: rare paths that would otherwise bloat every inlined push.
  [[gnu::noinline]] void push_far(Cycle c, const Ref& ref, bool mark) {
    far_.push_back(Far{c, ref, mark});
    far_min_ = std::min(far_min_, c);
  }
  template <class Due>
  [[gnu::noinline]] void pull_far(Due& due) {
    std::size_t kept = 0;
    Cycle min = kNever;
    for (std::size_t i = 0; i < far_.size(); ++i) {
      const Far f = far_[i];
      if (f.c - now_ >= kSize) {
        far_[kept++] = f;
        min = std::min(min, f.c);
      } else if (f.mark) {
        mark(f.c);
      } else if (f.c == now_) {
        due(f.ref);
      } else {
        push(f.c, pool_.alloc(), f.ref);
      }
    }
    far_.resize(kept);
    far_min_ = min;
  }

  NodePool<Ref>& pool_;
  Cycle now_ = 0;
  std::array<int, kSize> head_;
  std::array<u64, kWords> bits_{};
  unsigned slots_ = 0;  // set bits in bits_
  std::vector<Far> far_;
  Cycle far_min_ = kNever;
};

}  // namespace bsp
