// Architectural checkpoints: capture an emulator's complete architectural
// state (pc, registers, HI/LO, every touched memory page) so a long
// fast-forward can be done once and reused — the workflow the paper's
// 1 B-instruction fast-forwards imply. The timing core can start directly
// from one.
//
// A page holds only its nonzero words, as runs; the zeros between them are
// implied. Workload memory is mostly zero (0.4-7% of the words of mcf's
// 2 MiB arena are nonzero over its first million instructions), so a
// checkpoint costs what the program wrote, not what it allocated. The
// same two arrays per page are the page record of the "BSPC" v4 file
// format, little-endian:
//
//   magic "BSPC", version 4, pc, 32 regs, 32 FP regs, fcc, hi, lo,
//   retired (lo, hi), page count                    all u32
//   per page:  base, run count                      u32, u32
//              one header per run                   u16: first word
//                                                   | word count << 10
//              the runs' words, in run order        u32 each
//   checksum of every byte above                    u64
//
// Pages ascend by base and runs by first word; runs never overlap, and a
// run holds 1 to 63 words, so a longer stretch of nonzero words is stored
// as consecutive runs. An all-zero page is still recorded (with no runs),
// so the page set restored equals the page set captured. Files of earlier
// versions are rejected ("unsupported BSPC version"), which the checkpoint
// cache treats as a miss and overwrites.
//
// Integrity: save_checkpoint computes the checksum as it writes and
// load_checkpoint as it reads, with no copy of the file. The loader runs
// its structural checks first, so each keeps its named error; a file that
// passes them fails with "checksum mismatch" when its bytes differ from
// those written (always when the change lies within one 8-byte word, and
// otherwise but for a chance of about 2^-64), "truncated checksum" when
// the trailer is cut and "trailing bytes after checksum" when the file
// runs on. The checkpoint cache relies on this instead of syncing files
// to disk: a file torn or zero-filled by a machine crash fails to load,
// which is a miss.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "emu/emulator.hpp"

namespace bsp {

struct Checkpoint {
  u32 pc = 0;
  std::array<u32, kNumRegs> regs{};
  std::array<u32, 32> fp_regs{};
  bool fcc = false;
  u32 hi = 0, lo = 0;
  u64 retired = 0;  // instructions executed before the capture
  struct Page {
    static constexpr u32 kWords = SparseMemory::kPageSize / 4;
    static constexpr u32 kMaxRunWords = 63;
    // Alternating nonzero and zero words is the most runs a page can need
    // (cutting runs at kMaxRunWords never needs more).
    static constexpr u32 kMaxRuns = kWords / 2;

    u32 base = 0;  // page-aligned address
    std::vector<u16> runs;   // headers: first word | word count << 10
    std::vector<u32> words;  // the runs' words, in run order

    bool operator==(const Page&) const = default;
  };
  std::vector<Page> pages;
};

// Captures the emulator's current architectural state.
Checkpoint capture_checkpoint(const Emulator& emu);

// Replaces `emu`'s architectural state (the program image must already be
// loaded; each captured page is written once in full, zeros included, so
// capture+restore round-trips). To start an emulator from a checkpoint,
// construct it with Emulator(program, &ckpt) instead, which installs the
// checkpoint's pages without first copying the image.
void restore_checkpoint(Emulator& emu, const Checkpoint& ckpt);

// Serialisation (BSPC v4, see above).
bool save_checkpoint(const Checkpoint& ckpt, std::ostream& os);
std::optional<Checkpoint> load_checkpoint(std::istream& is,
                                          std::string* error = nullptr);
bool save_checkpoint_file(const Checkpoint& ckpt, const std::string& path);
std::optional<Checkpoint> load_checkpoint_file(const std::string& path,
                                               std::string* error = nullptr);

// Convenience: run `program` for `instructions` on a fresh emulator and
// capture the state (nullopt if the program exits or faults first).
std::optional<Checkpoint> fast_forward(const Program& program,
                                       u64 instructions);

}  // namespace bsp
