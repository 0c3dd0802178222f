// Branch prediction substrate per the paper's Table 2:
//   * 64k-entry gshare direction predictor (2-bit saturating counters)
//   * 4-way, 512-set BTB for taken-branch targets
//   * 8-entry return address stack
// A bimodal predictor is provided as a baseline for ablations.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "isa/isa.hpp"
#include "util/bitops.hpp"

namespace bsp {

// 2-bit saturating counter, initialised weakly not-taken.
class Counter2 {
 public:
  bool taken() const { return value_ >= 2; }
  void update(bool taken) {
    if (taken) {
      if (value_ < 3) ++value_;
    } else {
      if (value_ > 0) --value_;
    }
  }
  u8 raw() const { return value_; }

 private:
  u8 value_ = 1;
};

class DirectionPredictor {
 public:
  virtual ~DirectionPredictor() = default;
  virtual bool predict(u32 pc) const = 0;
  // In-order use (trace studies): trains the counter and advances any
  // global history in one step.
  virtual void update(u32 pc, bool taken) = 0;

  // Out-of-order use (the timing core): history is advanced *speculatively*
  // at fetch and repaired on a mispredict, while counters train at
  // resolution against the fetch-time history checkpoint.
  virtual u32 checkpoint() const { return 0; }
  virtual void speculate(bool /*predicted_taken*/) {}
  virtual void restore(u32 /*checkpoint*/, bool /*actual_taken*/) {}
  virtual void set_history(u32 /*checkpoint*/) {}
  virtual void train_at(u32 pc, u32 /*checkpoint*/, bool taken) {
    update(pc, taken);
  }
};

class BimodalPredictor final : public DirectionPredictor {
 public:
  explicit BimodalPredictor(unsigned entries = 4096);
  bool predict(u32 pc) const override;
  void update(u32 pc, bool taken) override;

 private:
  unsigned index(u32 pc) const { return (pc >> 2) & (u32(table_.size()) - 1); }
  std::vector<Counter2> table_;
};

class GsharePredictor final : public DirectionPredictor {
 public:
  explicit GsharePredictor(unsigned entries = 64 * 1024);
  bool predict(u32 pc) const override;
  void update(u32 pc, bool taken) override;  // also shifts global history
  u32 history() const { return history_; }

  u32 checkpoint() const override { return history_; }
  void speculate(bool predicted_taken) override {
    history_ = ((history_ << 1) | (predicted_taken ? 1 : 0)) & history_mask_;
  }
  void restore(u32 checkpoint, bool actual_taken) override {
    history_ = ((checkpoint << 1) | (actual_taken ? 1 : 0)) & history_mask_;
  }
  void set_history(u32 checkpoint) override {
    history_ = checkpoint & history_mask_;
  }
  void train_at(u32 pc, u32 checkpoint, bool taken) override {
    table_[((pc >> 2) ^ checkpoint) & (u32(table_.size()) - 1)].update(taken);
  }

 private:
  unsigned index(u32 pc) const {
    return ((pc >> 2) ^ history_) & (u32(table_.size()) - 1);
  }
  std::vector<Counter2> table_;
  u32 history_ = 0;
  u32 history_mask_;
};

// Branch target buffer: caches targets of taken control transfers so fetch
// can redirect without decoding. Tagged, set-associative, LRU.
class BranchTargetBuffer {
 public:
  BranchTargetBuffer(unsigned sets = 512, unsigned ways = 4);

  // Returns the cached target for pc, or nullopt on miss.
  std::optional<u32> lookup(u32 pc) const;
  void update(u32 pc, u32 target);

 private:
  struct Entry {
    bool valid = false;
    u32 tag = 0;
    u32 target = 0;
    u64 lru = 0;  // higher = more recently used
  };
  unsigned set_of(u32 pc) const { return (pc >> 2) & (sets_ - 1); }
  u32 tag_of(u32 pc) const { return pc >> (2 + log2_exact(sets_)); }

  unsigned sets_, ways_;
  std::vector<Entry> entries_;  // sets_ * ways_
  u64 tick_ = 0;

  Entry* way(unsigned set, unsigned w) { return &entries_[set * ways_ + w]; }
  const Entry* way(unsigned set, unsigned w) const {
    return &entries_[set * ways_ + w];
  }
};

class ReturnAddressStack {
 public:
  explicit ReturnAddressStack(unsigned depth = 8) : stack_(depth, 0) {}
  void push(u32 addr) {
    top_ = (top_ + 1) % stack_.size();
    stack_[top_] = addr;
    if (size_ < stack_.size()) ++size_;
  }
  std::optional<u32> pop() {
    if (size_ == 0) return std::nullopt;
    const u32 v = stack_[top_];
    top_ = (top_ + stack_.size() - 1) % stack_.size();
    --size_;
    return v;
  }
  unsigned size() const { return static_cast<unsigned>(size_); }

 private:
  std::vector<u32> stack_;
  std::size_t top_ = 0;
  std::size_t size_ = 0;
};

// Front-end predictor bundle: direction + target + RAS, with the policy the
// timing core and the trace studies share.
struct BranchPrediction {
  bool taken = false;
  u32 target = 0;            // valid when taken
  u32 history_checkpoint = 0;  // direction-history state before this branch
};

class FrontEndPredictor {
 public:
  struct Config {
    unsigned gshare_entries = 64 * 1024;
    unsigned btb_sets = 512;
    unsigned btb_ways = 4;
    unsigned ras_depth = 8;
    bool use_bimodal = false;  // ablation: bimodal instead of gshare
    unsigned bimodal_entries = 4096;
    bool operator==(const Config&) const = default;
  };

  FrontEndPredictor() : FrontEndPredictor(Config{}) {}
  explicit FrontEndPredictor(const Config& cfg);

  // Predicts the successor of a decoded control instruction at `pc`.
  // (The simulated front end pre-decodes in Fetch2, so opcode class is
  // available to the predictor; this matches sim-outorder.)
  BranchPrediction predict(u32 pc, const DecodedInst& inst);

  // Resolves a control instruction: trains direction/target state. Pass the
  // history checkpoint the prediction reported so the same gshare index is
  // trained that was consulted.
  void resolve(u32 pc, const DecodedInst& inst, bool taken, u32 target,
               u32 history_checkpoint = 0);

  // Repairs the speculative direction history after a mispredict: the
  // branch's fetch-time checkpoint plus its actual outcome become the new
  // history (wiping wrong-path pollution). For non-conditional redirects
  // (jr), the checkpoint is restored as-is.
  void repair_history(u32 history_checkpoint, bool actual_taken);
  void repair_history_exact(u32 history_checkpoint);

  DirectionPredictor& direction() { return *dir_; }

 private:
  std::unique_ptr<DirectionPredictor> dir_;
  BranchTargetBuffer btb_;
  ReturnAddressStack ras_;
};

}  // namespace bsp
