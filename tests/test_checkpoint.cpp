// Checkpoint tests: capture/restore round trips, serialisation, and timing
// runs started from a checkpoint.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "asm/assembler.hpp"
#include "campaign/ckpt_cache.hpp"
#include "core/simulator.hpp"
#include "emu/checkpoint.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace bsp {
namespace {

// Offset of the page count in a BSPC file: magic, version, pc, 32 regs,
// 32 FP regs, fcc, hi, lo and retired lo/hi come first, all u32s.
constexpr std::size_t kPageCountOff = (2 + 1 + 32 + 32 + 1 + 2 + 2) * 4;

// A run header: first word in the low 10 bits, word count above.
constexpr u16 run(u32 first, u32 count) {
  return static_cast<u16>(first | count << 10);
}

std::string serialise(const Checkpoint& ckpt) {
  std::stringstream buf;
  EXPECT_TRUE(save_checkpoint(ckpt, buf));
  return buf.str();
}

template <typename T = u32>
std::string with(std::string bytes, std::size_t off, T v) {
  for (std::size_t i = 0; i < sizeof v; ++i)
    bytes[off + i] = static_cast<char>(v >> (8 * i));
  return bytes;
}

void expect_load_error(const std::string& bytes, const std::string& why) {
  std::string error;
  std::stringstream is(bytes);
  EXPECT_FALSE(load_checkpoint(is, &error).has_value()) << why;
  EXPECT_EQ(error, why);
}

// The BSPC v2 layout (every page as 4 KiB of bytes) of `ckpt`: what the
// cache directory of an older build holds.
std::string serialise_v2(const Checkpoint& ckpt) {
  std::string out =
      with(serialise(ckpt).substr(0, kPageCountOff + 4), 4, 2);
  for (const Checkpoint::Page& page : ckpt.pages) {
    std::vector<u32> words(Checkpoint::Page::kWords, 0);
    const u32* nonzero = page.words.data();
    for (const u16 header : page.runs) {
      const u32 first = header & 0x3ffu, count = header >> 10u;
      std::copy_n(nonzero, count, &words[first]);
      nonzero += count;
    }
    out.append(reinterpret_cast<const char*>(&page.base), sizeof page.base);
    out.append(reinterpret_cast<const char*>(words.data()),
               words.size() * sizeof(u32));
  }
  return out;
}

TEST(Checkpoint, CaptureRestoreResumesExactly) {
  const Workload w = build_workload("gzip");
  // Reference: run 50k straight.
  Emulator ref(w.program);
  ref.run(50'000);

  // Split run: 20k, capture, restore into a fresh emulator, 30k more.
  Emulator first(w.program);
  first.run(20'000);
  const Checkpoint ckpt = capture_checkpoint(first);
  EXPECT_EQ(ckpt.retired, 20'000u);

  Emulator second(w.program);
  restore_checkpoint(second, ckpt);
  EXPECT_EQ(second.pc(), first.pc());
  second.run(30'000);

  EXPECT_EQ(second.pc(), ref.pc());
  for (unsigned i = 0; i < kNumRegs; ++i)
    EXPECT_EQ(second.reg(i), ref.reg(i)) << "reg " << i;
  EXPECT_EQ(second.hi(), ref.hi());
  EXPECT_EQ(second.lo(), ref.lo());
  EXPECT_EQ(second.instructions_retired(), ref.instructions_retired());
}

TEST(Checkpoint, SerialisationRoundTrip) {
  const Workload w = build_workload("li");
  const auto ckpt = fast_forward(w.program, 30'000);
  ASSERT_TRUE(ckpt.has_value());

  std::stringstream buf;
  ASSERT_TRUE(save_checkpoint(*ckpt, buf));
  std::string error;
  const auto loaded = load_checkpoint(buf, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->pc, ckpt->pc);
  EXPECT_EQ(loaded->regs, ckpt->regs);
  EXPECT_EQ(loaded->hi, ckpt->hi);
  EXPECT_EQ(loaded->lo, ckpt->lo);
  EXPECT_EQ(loaded->retired, ckpt->retired);
  ASSERT_EQ(loaded->pages.size(), ckpt->pages.size());
  for (std::size_t i = 0; i < ckpt->pages.size(); ++i) {
    EXPECT_EQ(loaded->pages[i].base, ckpt->pages[i].base);
    EXPECT_EQ(loaded->pages[i].runs, ckpt->pages[i].runs);
    EXPECT_EQ(loaded->pages[i].words, ckpt->pages[i].words);
  }
}

TEST(Checkpoint, RejectsGarbageAndTruncation) {
  std::string error;
  std::stringstream junk("garbage");
  EXPECT_FALSE(load_checkpoint(junk, &error).has_value());

  const Workload w = build_workload("go");
  const auto ckpt = fast_forward(w.program, 1'000);
  ASSERT_TRUE(ckpt.has_value());
  std::stringstream buf;
  ASSERT_TRUE(save_checkpoint(*ckpt, buf));
  const std::string whole = buf.str();
  Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    std::stringstream part(
        whole.substr(0, rng.below(static_cast<u32>(whole.size()))));
    EXPECT_FALSE(load_checkpoint(part).has_value());
  }
}

TEST(Checkpoint, RejectsHostileHeaders) {
  // A corrupt or malicious header must produce a clear error without
  // ballooning allocations — workers load cache files other processes
  // wrote, so the loader cannot trust any field.
  const Workload w = build_workload("go");
  const auto ckpt = fast_forward(w.program, 1'000);
  ASSERT_TRUE(ckpt.has_value());
  std::stringstream buf;
  ASSERT_TRUE(save_checkpoint(*ckpt, buf));
  const std::string pristine = buf.str();

  // Layout: magic, version, pc, 32 regs, 32 fp regs, fcc, hi, lo,
  // retired lo/hi, page_count — all u32s — then per page its base, its run
  // count, its run headers (u16) and its words.
  const std::size_t first_base_off = kPageCountOff + 4;
  const std::size_t second_base_off =
      first_base_off + 8 + 2 * ckpt->pages[0].runs.size() +
      4 * ckpt->pages[0].words.size();
  const auto read_u32 = [&](const std::string& b, std::size_t off) {
    u32 v = 0;
    for (int i = 0; i < 4; ++i)
      v |= u32{static_cast<u8>(b[off + static_cast<std::size_t>(i)])}
           << (8 * i);
    return v;
  };
  const auto patched = [&](std::size_t off, u32 v) {
    return with(pristine, off, v);
  };
  // Page count far beyond the bytes actually present: rejected before any
  // page allocation (the stream is seekable, so the size cross-check runs).
  expect_load_error(patched(kPageCountOff, 0xfffffu),
                    "page count exceeds file size");
  // Absurd page count: the hard bound rejects it on any stream.
  expect_load_error(patched(kPageCountOff, 0xffffffffu),
                    "implausible page count");
  // Misaligned page base.
  expect_load_error(patched(first_base_off,
                            read_u32(pristine, first_base_off) + 2),
                    "misaligned page base");
  // Duplicate page (ascending-order violation). Needs >= 2 pages.
  ASSERT_GE(ckpt->pages.size(), 2u);
  expect_load_error(patched(second_base_off,
                            read_u32(pristine, first_base_off)),
                    "pages not in ascending order");

  // And the pristine image still loads.
  std::string error;
  std::stringstream is(pristine);
  EXPECT_TRUE(load_checkpoint(is, &error).has_value()) << error;
}

TEST(Checkpoint, RejectsMalformedRuns) {
  // A hand-made checkpoint whose runs sit at known offsets: a page with
  // runs [5, 7) and [10, 11), then an all-zero page.
  Checkpoint c;
  c.pages.push_back({0x10000000, {run(5, 2), run(10, 1)}, {7, 8, 9}});
  c.pages.push_back({0x10001000, {}, {}});
  const std::string pristine = serialise(c);
  const std::size_t run_count_off = kPageCountOff + 8;  // page 0's
  const std::size_t run0_off = run_count_off + 4;
  const std::size_t run1_off = run0_off + 2;
  const std::size_t words_off = run1_off + 2;
  // Page 0's three words, page 1's base and run count, the checksum.
  ASSERT_EQ(pristine.size(), words_off + 12 + 8 + 8);
  {
    std::string error;
    std::stringstream is(pristine);
    const auto loaded = load_checkpoint(is, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->pages, c.pages);
  }

  expect_load_error(with(pristine, run1_off, run(10, 0)), "empty run");
  expect_load_error(with(pristine, run1_off, run(6, 1)),
                    "runs overlap or descend");
  expect_load_error(with(pristine, run1_off, run(0, 1)),
                    "runs overlap or descend");
  expect_load_error(with(pristine, run1_off, run(1023, 2)),
                    "run past page end");
  expect_load_error(with(pristine, run1_off, run(1000, 63)),
                    "run past page end");
  expect_load_error(with(pristine, run_count_off, 513u),
                    "too many runs in page");
  // More headers than the file holds, and a cut inside the words of a file
  // that declares one page: both keep the 8 bytes per page and the 8-byte
  // checksum the size cross-check asks for, so only the read finds them.
  expect_load_error(with(pristine, run_count_off, 200u),
                    "truncated run headers");
  expect_load_error(with(pristine.substr(0, words_off + 6), kPageCountOff, 1u),
                    "truncated run words");
  // The smallest page count the remaining bytes cannot hold beside the
  // checksum; one fewer passes the cross-check and, with the checksum cut
  // off, fails on a read instead.
  const u32 fits =
      static_cast<u32>((pristine.size() - kPageCountOff - 4 - 8) / 8);
  expect_load_error(with(pristine, kPageCountOff, fits + 1),
                    "page count exceeds file size");
  expect_load_error(
      with(pristine.substr(0, pristine.size() - 8), kPageCountOff, fits - 1),
      "truncated page header");
}

TEST(Checkpoint, ChecksumCatchesWhatTheStructureCannot) {
  // Three pages of 1,024 nonzero words each (17 runs apiece): page k's
  // record is 8 + 34 + 4,096 bytes and starts at kPageCountOff + 4 +
  // 4,138 k.
  Checkpoint c;
  c.pc = 0x00400010;
  for (u32 k = 0; k < 3; ++k) {
    Checkpoint::Page page{0x10000000 + k * SparseMemory::kPageSize, {}, {}};
    for (u32 w = 0; w < 1024; w += 63)
      page.runs.push_back(run(w, std::min(63u, 1024 - w)));
    for (u32 w = 0; w < 1024; ++w)
      page.words.push_back(0x01010101u * (k + 1) + w);
    c.pages.push_back(std::move(page));
  }
  const std::string pristine = serialise(c);
  const std::size_t record = 8 + 17 * 2 + 4096;
  const std::size_t page1_off = kPageCountOff + 4 + record;
  ASSERT_EQ(pristine.size(), kPageCountOff + 4 + 3 * record + 8);
  {
    std::string error;
    std::stringstream is(pristine);
    const auto loaded = load_checkpoint(is, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->pages, c.pages);
  }

  // One data word flipped, and page 0's words from 4 KiB to the end of
  // the page zeroed: both still parse, and only the checksum sees them.
  const std::size_t word_off = page1_off + 8 + 34 + 4 * 500;
  expect_load_error(with(pristine, word_off, 0xdeadbeefu), "checksum mismatch");
  std::string zeroed = pristine;
  std::fill(zeroed.begin() + 4096, zeroed.begin() + page1_off, '\0');
  expect_load_error(zeroed, "checksum mismatch");
  // A zeroed 4 KiB block in mid-file, as a crash can leave one, also takes
  // out page 1's header: the structural check that sees it first names it.
  zeroed = pristine;
  ASSERT_LT(page1_off, 8192u);
  std::fill(zeroed.begin() + 4096, zeroed.begin() + 8192, '\0');
  expect_load_error(zeroed, "pages not in ascending order");
  // The trailer cut short, and a byte after it.
  expect_load_error(pristine.substr(0, pristine.size() - 3),
                    "truncated checksum");
  expect_load_error(pristine + '\0', "trailing bytes after checksum");

  // Every single-bit flip fails to load, whichever check names it.
  Checkpoint small;
  small.pages.push_back({0x10000000, {run(5, 2), run(10, 1)}, {7, 8, 9}});
  const std::string bytes = serialise(small);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      std::stringstream is(flipped);
      ASSERT_FALSE(load_checkpoint(is).has_value())
          << "byte " << i << " bit " << bit;
    }
}

TEST(Checkpoint, RunsCoverTheNonzeroWordsAndRoundTrip) {
  // One page per pattern: alternating words (the 512-run bound), all
  // nonzero (17 runs of at most 63 words), all zero (no runs), runs
  // touching both page ends, and a single word in the middle.
  const AsmResult r = assemble(".text\nmain:\n  nop\n");
  ASSERT_TRUE(r.ok());
  Emulator emu(r.program);
  SparseMemory& mem = emu.memory();
  const u32 base = 0x20000000, ps = SparseMemory::kPageSize;
  for (u32 w = 0; w < 1024; ++w) {
    if (w % 2 == 0) mem.store_u32(base + 4 * w, w + 1);
    mem.store_u32(base + ps + 4 * w, ~w);
  }
  mem.store_u8(base + 2 * ps, 0);
  for (const u32 w : {0u, 1u, 1022u, 1023u})
    mem.store_u32(base + 3 * ps + 4 * w, 0x80000000u >> (w % 8));
  mem.store_u8(base + 4 * ps + 2049, 0x5a);

  const Checkpoint ckpt = capture_checkpoint(emu);
  std::vector<std::size_t> run_counts;
  for (const Checkpoint::Page& page : ckpt.pages)
    if (page.base >= base) run_counts.push_back(page.runs.size());
  EXPECT_EQ(run_counts, (std::vector<std::size_t>{512, 17, 0, 2, 1}));
  EXPECT_EQ(ckpt.pages.back().runs, std::vector<u16>{run(512, 1)});
  EXPECT_EQ(ckpt.pages.back().words, std::vector<u32>{0x5a00});

  std::stringstream buf(serialise(ckpt));
  std::string error;
  const auto loaded = load_checkpoint(buf, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->pages, ckpt.pages);

  Emulator other(r.program);
  restore_checkpoint(other, *loaded);
  EXPECT_EQ(other.memory().pages_allocated(), mem.pages_allocated());
  for (u32 a = base; a < base + 5 * ps; a += 4)
    ASSERT_EQ(other.memory().load_u32(a), mem.load_u32(a)) << std::hex << a;
}

TEST(Checkpoint, RestoreOverwritesStaleWordsWithZeros) {
  // Restoring into an emulator whose pages hold other values must leave
  // exactly the captured words: the gaps between runs are written too.
  const Workload w = build_workload("mcf");
  Emulator at(w.program);
  at.run(50'000);
  const Checkpoint ckpt = capture_checkpoint(at);
  Emulator later(w.program);
  later.run(200'000);
  restore_checkpoint(later, ckpt);
  // `later` may have touched pages the capture never saw; every captured
  // page must read back the same.
  for (const Checkpoint::Page& page : ckpt.pages)
    for (u32 off = 0; off < SparseMemory::kPageSize; off += 4)
      ASSERT_EQ(later.memory().load_u32(page.base + off),
                at.memory().load_u32(page.base + off))
          << std::hex << page.base + off;
}

TEST(Checkpoint, RejectsVersion2Files) {
  const Workload w = build_workload("li");
  const auto ckpt = fast_forward(w.program, 10'000);
  ASSERT_TRUE(ckpt.has_value());
  expect_load_error(serialise_v2(*ckpt), "unsupported BSPC version");
}

TEST(Checkpoint, McfCheckpointIsCompact) {
  // mcf's 2 MiB arena is mostly zero words, which a checkpoint does not
  // store: the file stays under an eighth of its pages' bytes.
  const Workload w = build_workload("mcf");
  const auto ckpt = fast_forward(w.program, 1'000'000);
  ASSERT_TRUE(ckpt.has_value());
  const std::size_t bytes = serialise(*ckpt).size();
  EXPECT_GE(ckpt->pages.size(), 512u);
  EXPECT_LE(bytes, ckpt->pages.size() * SparseMemory::kPageSize / 8);
}

// Plants `stale` as li's cache file at 20,000 instructions and checks the
// heal: a miss that re-materialises the checkpoint and overwrites the file
// with its v4 bytes, then a hit.
void expect_heals(const std::string& stale, const Checkpoint& ckpt,
                  const Program& program) {
  const std::string dir =
      testing::TempDir() + "bsp_ckptheal_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string path = campaign::checkpoint_cache_path(
      dir, "li", 0x5eed, campaign::ImageHash(program), 20'000);
  std::ofstream(path, std::ios::binary) << stale;

  const auto materialise = [&] {
    return campaign::materialise_checkpoints(program, "li", 0x5eed, {20'000},
                                             dir);
  };
  const campaign::CheckpointSet heal = materialise();
  ASSERT_TRUE(heal.ok()) << heal.error;
  EXPECT_EQ(heal.materialised, 1u);
  EXPECT_EQ(heal.reused, 0u);
  ASSERT_NE(heal.start(20'000), nullptr);
  EXPECT_EQ(heal.start(20'000)->pages, ckpt.pages);
  std::ifstream in(path, std::ios::binary);
  const std::string now((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(now, serialise(ckpt));
  EXPECT_NE(now, stale);

  const campaign::CheckpointSet again = materialise();
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_EQ(again.reused, 1u);
  std::filesystem::remove_all(dir);
}

TEST(CkptCache, Version2FileIsHealed) {
  // A cache file from a build that wrote BSPC v2 is a miss: the
  // checkpoint is re-materialised and the file overwritten with v4.
  const Workload w = build_workload("li");
  const auto ckpt = fast_forward(w.program, 20'000);
  ASSERT_TRUE(ckpt.has_value());
  const std::string v2 = serialise_v2(*ckpt);
  EXPECT_GT(v2.size(), serialise(*ckpt).size());
  expect_heals(v2, *ckpt, w.program);
}

TEST(CkptCache, Version3FileIsHealed) {
  // BSPC v3 is v4 without the checksum: rejected by version, then healed.
  const Workload w = build_workload("li");
  const auto ckpt = fast_forward(w.program, 20'000);
  ASSERT_TRUE(ckpt.has_value());
  const std::string v4 = serialise(*ckpt);
  const std::string v3 = with(v4.substr(0, v4.size() - 8), 4, 3u);
  expect_load_error(v3, "unsupported BSPC version");
  expect_heals(v3, *ckpt, w.program);
}

TEST(CkptCache, CorruptVersion4FileIsHealed) {
  // What a machine crash after an unsynced publish can leave: one byte
  // changed in mid-file, a zeroed 4 KiB block, the whole file zero-filled.
  // Each fails to load, so the lookup is a miss that overwrites the file.
  const Workload w = build_workload("li");
  const auto ckpt = fast_forward(w.program, 20'000);
  ASSERT_TRUE(ckpt.has_value());
  const std::string v4 = serialise(*ckpt);
  ASSERT_GT(v4.size(), 2 * 4096u);
  std::string flipped = v4;
  flipped[v4.size() / 2] = static_cast<char>(flipped[v4.size() / 2] ^ 0x10);
  std::string block = v4;
  std::fill(block.begin() + 4096, block.begin() + 8192, '\0');
  for (const std::string& stale :
       {flipped, block, std::string(v4.size(), '\0')}) {
    std::stringstream is(stale);
    EXPECT_FALSE(load_checkpoint(is).has_value());
    expect_heals(stale, *ckpt, w.program);
  }
}

TEST(Checkpoint, CaptureRestoreCaptureIsByteIdentical) {
  // Paging-heavy kernel: mcf chases pointers across a large arena, so the
  // checkpoint carries many pages. restore must reproduce every page byte
  // so that a re-capture serialises to the identical BSPC image.
  const Workload w = build_workload("mcf");
  Emulator emu(w.program);
  emu.run(120'000);
  const Checkpoint first = capture_checkpoint(emu);
  EXPECT_GE(first.pages.size(), 8u) << "want a paging-heavy image";

  Emulator other(w.program);
  restore_checkpoint(other, first);
  const Checkpoint second = capture_checkpoint(other);

  std::stringstream a, b;
  ASSERT_TRUE(save_checkpoint(first, a));
  ASSERT_TRUE(save_checkpoint(second, b));
  EXPECT_EQ(a.str(), b.str());  // byte-for-byte equal serialisations
}

TEST(Checkpoint, FastForwardFailsOnExitedProgram) {
  const AsmResult r = assemble(
      ".text\nmain:\n  li $v0, 10\n  li $a0, 0\n  syscall\n");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(fast_forward(r.program, 1'000'000).has_value());
}

TEST(Checkpoint, SimulatorStartsFromCheckpointAndCoSimulates) {
  const Workload w = build_workload("vortex");
  const auto ckpt = fast_forward(w.program, 100'000);
  ASSERT_TRUE(ckpt.has_value());

  Simulator sim(bitsliced_machine(2, kAllTechniques), w.program, &*ckpt);
  const SimResult r = sim.run(30'000);
  ASSERT_TRUE(r.ok()) << r.error;  // co-simulation from the restored state
  EXPECT_EQ(r.stats.committed, 30'000u);
}

TEST(Checkpoint, CheckpointedRunMatchesFastForwardedRunExactly) {
  // Timing from a checkpoint == timing of the same region reached by
  // letting the simulator itself run there (with identical *cold*
  // microarchitectural state, only the architectural start differs): the
  // cycle counts will differ (cold vs warm caches), but the committed
  // stream must be the same instructions — guaranteed by co-simulation —
  // and both runs must succeed.
  const Workload w = build_workload("bzip");
  const auto ckpt = fast_forward(w.program, 60'000);
  ASSERT_TRUE(ckpt.has_value());
  Simulator from_ckpt(base_machine(), w.program, &*ckpt);
  const SimResult a = from_ckpt.run(20'000);
  ASSERT_TRUE(a.ok()) << a.error;

  Simulator whole(base_machine(), w.program);
  const SimResult b = whole.run(20'000, 60'000);
  ASSERT_TRUE(b.ok()) << b.error;
  EXPECT_EQ(a.stats.committed, b.stats.committed);
}

}  // namespace
}  // namespace bsp
