// Shared on-disk checkpoint cache for campaign fast-forwards.
//
// Every task with the same (workload, seed, fast_forward) starts detailed
// timing from the same architectural state, so an N-task sweep should pay
// for one fast-forward, not N. This module materialises that state once as
// a BSPC file in a cache directory and lets every later task — in this
// process, a worker subprocess, or a concurrent sweep over the same
// directory — restore it instead of re-emulating.
//
// Keying: the file name embeds an FNV-1a hash over the program image
// (text/data bytes, bases, entry) and the fast-forward count. Workload
// generator changes therefore miss the old entries instead of silently
// reusing stale state — invalidation is automatic, and a cache directory
// can be kept across code changes. The readable "<workload>-s<seed>-ffN-"
// prefix exists for humans; only the hash carries correctness.
//
// Atomicity: writers serialise to "<final>.tmp.<pid>" and rename(2) into
// place. Concurrent sweeps may both do the fast-forward, but a reader only
// ever sees a complete file, and the last rename wins with identical bytes.
#pragma once

#include <memory>
#include <string>

#include "asm/program.hpp"
#include "emu/checkpoint.hpp"

namespace bsp::campaign {

// Outcome of one cache lookup-or-materialise.
struct CkptFetch {
  std::shared_ptr<const Checkpoint> checkpoint;  // null on failure
  bool hit = false;      // loaded from an existing cache file
  double ffwd_sec = 0;   // host seconds spent fast-forwarding (miss only)
  std::string path;      // cache file involved ("" when dir is empty)
  std::string error;     // non-empty on failure

  bool ok() const { return checkpoint != nullptr; }
};

// The FNV-1a state after hashing a program image (bases, text and data
// bytes, entry). Hashing a multi-MiB image takes milliseconds, so a pass
// over several fast-forward offsets hashes the image once here and derives
// each offset's key by appending the count.
class ImageHash {
 public:
  explicit ImageHash(const Program& program);
  // Content key: the state extended by the fast-forward count, as 16
  // lowercase hex digits.
  std::string key(u64 fast_forward) const;

 private:
  u64 state_;
};

// ImageHash(program).key(fast_forward).
std::string checkpoint_cache_key(const Program& program, u64 fast_forward);

// Full cache file path for a (workload, seed, program image, fast_forward)
// tuple.
std::string checkpoint_cache_path(const std::string& dir,
                                  const std::string& workload, u64 seed,
                                  const ImageHash& image, u64 fast_forward);

// Atomically publishes `ckpt` as the cache file for (workload, seed,
// program image, fast_forward) under `dir`: serialise to
// "<final>.tmp.<pid>", rename(2) into place. Concurrent publishers of the
// same key race benignly (identical bytes, last rename wins). Returns the
// final path, or "" on failure with *error describing why. The
// sampled-simulation prewarm uses this directly — it captures checkpoints
// from one incremental emulator pass instead of calling fetch_checkpoint()
// per offset.
std::string publish_checkpoint(const std::string& dir,
                               const std::string& workload, u64 seed,
                               const ImageHash& image, u64 fast_forward,
                               const Checkpoint& ckpt,
                               std::string* error = nullptr);

// Returns the checkpoint for (program, fast_forward), preferring the cache:
//  * cache file exists and loads cleanly -> hit;
//  * otherwise fast-forward on the emulator, publish atomically -> miss.
// With an empty `dir` the fast-forward always runs and nothing is written
// (ffwd_sec still reported). A corrupt cache file is treated as a miss and
// overwritten. Thread- and process-safe against concurrent fetches of the
// same tuple. fast_forward == 0 is invalid (callers skip the cache).
CkptFetch fetch_checkpoint(const std::string& dir, const std::string& workload,
                           u64 seed, const Program& program, u64 fast_forward);

}  // namespace bsp::campaign
