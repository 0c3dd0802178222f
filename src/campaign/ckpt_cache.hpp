// The fast-forward materialiser and its shared on-disk checkpoint cache.
//
// Every run with the same (workload, seed, fast_forward) starts detailed
// timing from the same architectural state, so an N-task sweep should pay
// for one fast-forward, not N. materialise_checkpoints() is the one place
// that state is produced: for a set of offsets it loads each cached BSPC
// file, emulates the rest in one incremental pass, and publishes each
// capture so every later run — in this process, a worker subprocess, or a
// concurrent sweep over the same directory — loads it instead of
// re-emulating. Sweep tasks, the sweep's prewarm, bsp-sim --fast-forward
// and sampled runs all come through it.
//
// Keying: the file name embeds an FNV-1a hash over the program image
// (text/data bytes, bases, entry) and the fast-forward count. Workload
// generator changes therefore miss the old entries instead of silently
// reusing stale state — invalidation is automatic, and a cache directory
// can be kept across code changes. The readable "<workload>-s<seed>-ffN-"
// prefix exists for humans; only the hash carries correctness.
//
// Atomicity and integrity: writers serialise to "<final>.tmp.<pid>.<n>" and
// rename(2) into place. Concurrent sweeps may both do the fast-forward, but
// a reader only ever sees a complete file, and the last rename wins with
// identical bytes. Nothing is synced to disk: a machine crash can leave a
// renamed file torn or zero-filled, and BSPC v4's checksum makes such a
// file fail to load, which is a miss that re-materialises and overwrites
// it.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>

#include "asm/program.hpp"
#include "emu/checkpoint.hpp"

namespace bsp::campaign {

// The FNV-1a state after hashing a program image (bases, text and data
// bytes, entry). Zero runs hash 8 bytes per multiply, the rest a byte at a
// time, so an image costs time in its size; a pass over several
// fast-forward offsets hashes the image once here and derives each
// offset's key by appending the count.
class ImageHash {
 public:
  explicit ImageHash(const Program& program);
  // Content key: the state extended by the fast-forward count, as 16
  // lowercase hex digits.
  std::string key(u64 fast_forward) const;

 private:
  u64 state_;
};

// Full cache file path for a (workload, seed, program image, fast_forward)
// tuple.
std::string checkpoint_cache_path(const std::string& dir,
                                  const std::string& workload, u64 seed,
                                  const ImageHash& image, u64 fast_forward);

// Checkpoints at a set of fast-forward offsets, from one functional pass.
struct CheckpointSet {
  // An offset missing here was not reached: the program exited or faulted
  // before it, or the pass stopped at `error`.
  std::map<u64, std::shared_ptr<const Checkpoint>> by_offset;
  std::size_t materialised = 0;  // emulated (and published) this call
  std::size_t reused = 0;        // loaded from an existing cache file
  double ffwd_sec = 0;           // host seconds the misses took
  std::string error;             // non-empty on fatal failure (publish I/O)

  bool ok() const { return error.empty(); }
  // The state a run starting at `offset` begins from: null for offset 0
  // (reset) and for an offset the pass did not reach.
  const Checkpoint* start(u64 offset) const;
  // Why a run starting at `offset` cannot begin: "fast-forward failed: "
  // and the pass's error, or the program's exit or fault before the
  // offset. "" when it can.
  std::string failure(u64 offset) const;
};

// The one fast-forward materialiser. Ascending offsets share one emulator;
// offset 0 needs no checkpoint and is skipped. With a cache `dir`, an
// offset whose file loads cleanly is a hit, loaded and never restored; a
// miss after hits starts an emulator from the latest hit's checkpoint
// (Emulator(program, &ckpt)); every capture is published write-then-rename.
// A file that fails to load (an older BSPC version, or torn) is a miss and
// is overwritten. With an empty `dir` nothing is read or written. The pass
// stops at the first offset the program does not reach. Thread- and
// process-safe against concurrent passes over the same files.
CheckpointSet materialise_checkpoints(const Program& program,
                                      const std::string& workload, u64 seed,
                                      const std::set<u64>& offsets,
                                      const std::string& dir);

}  // namespace bsp::campaign
