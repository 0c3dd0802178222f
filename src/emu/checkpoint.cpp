#include "emu/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace bsp {

namespace {

using Page = Checkpoint::Page;

constexpr u32 kMagic = 0x43505342;  // "BSPC"
// v2 added FP registers + condition flag; v3 stores pages as runs of
// nonzero words.
constexpr u32 kVersion = 3;
constexpr u32 kMaxPages = 1u << 20;
// The smallest page record: base and run count.
constexpr u64 kMinPageBytes = 8;

constexpr u16 run_header(u32 first, u32 count) {
  return static_cast<u16>(first | count << 10);
}
constexpr u32 run_first(u16 header) { return header & 0x3ffu; }
constexpr u32 run_count(u16 header) { return header >> 10; }

// Values are stored as the host's bytes: host and target are
// little-endian, as SparseMemory already assumes.
static_assert(std::endian::native == std::endian::little);
template <typename T>
void put(std::ostream& os, const T* values, std::size_t n) {
  os.write(reinterpret_cast<const char*>(values),
           static_cast<std::streamsize>(n * sizeof(T)));
}

template <typename T>
bool get(std::istream& is, T* values, std::size_t n) {
  return static_cast<bool>(
      is.read(reinterpret_cast<char*>(values),
              static_cast<std::streamsize>(n * sizeof(T))));
}

void put_u32(std::ostream& os, u32 v) { put(os, &v, 1); }
bool get_u32(std::istream& is, u32* v) { return get(is, v, 1); }

std::optional<Checkpoint> fail(std::string* error, const char* why) {
  if (error) *error = why;
  return std::nullopt;
}

}  // namespace

Checkpoint capture_checkpoint(const Emulator& emu) {
  Checkpoint c;
  c.pc = emu.pc();
  for (unsigned i = 0; i < kNumRegs; ++i) c.regs[i] = emu.reg(i);
  for (unsigned i = 0; i < 32; ++i) c.fp_regs[i] = emu.fp_reg(i);
  c.fcc = emu.fcc();
  c.hi = emu.hi();
  c.lo = emu.lo();
  c.retired = emu.instructions_retired();
  // A page's runs are gathered on the stack and copied out at their exact
  // size: the checkpoint keeps no slack from vector growth.
  emu.memory().for_each_page([&](u32 base, const u8* bytes) {
    // Compact the nonzero words and their indices without a branch per
    // word, then cut runs where the indices stop being consecutive.
    u32 nonzero[Page::kWords];
    u16 at[Page::kWords];
    u32 n_words = 0;
    for (u32 w = 0; w < Page::kWords; ++w) {
      std::memcpy(&nonzero[n_words], bytes + 4 * w, 4);
      at[n_words] = static_cast<u16>(w);
      n_words += nonzero[n_words] != 0;
    }
    u16 runs[Page::kMaxRuns];
    u32 n_runs = 0;
    for (u32 i = 0; i < n_words;) {
      u32 end = i + 1;
      while (end < n_words && at[end] == at[end - 1] + 1 &&
             end - i < Page::kMaxRunWords)
        ++end;
      runs[n_runs++] = run_header(at[i], end - i);
      i = end;
    }
    c.pages.push_back({base, {runs, runs + n_runs},
                       {nonzero, nonzero + n_words}});
  });
  return c;
}

void restore_checkpoint(Emulator& emu, const Checkpoint& ckpt) {
  emu.set_pc(ckpt.pc);
  for (unsigned i = 1; i < kNumRegs; ++i) emu.set_reg(i, ckpt.regs[i]);
  for (unsigned i = 0; i < 32; ++i) emu.set_fp_reg(i, ckpt.fp_regs[i]);
  emu.set_fcc(ckpt.fcc);
  emu.set_hi(ckpt.hi);
  emu.set_lo(ckpt.lo);
  emu.set_retired(ckpt.retired);
  // Each page is expanded on the stack and written once, whole.
  for (const Page& page : ckpt.pages) {
    u32 expanded[Page::kWords] = {};
    const u32* words = page.words.data();
    for (const u16 header : page.runs) {
      std::copy_n(words, run_count(header), expanded + run_first(header));
      words += run_count(header);
    }
    emu.memory().write_block(page.base, expanded, sizeof expanded);
  }
}

bool save_checkpoint(const Checkpoint& ckpt, std::ostream& os) {
  put_u32(os, kMagic);
  put_u32(os, kVersion);
  put_u32(os, ckpt.pc);
  put(os, ckpt.regs.data(), ckpt.regs.size());
  put(os, ckpt.fp_regs.data(), ckpt.fp_regs.size());
  put_u32(os, ckpt.fcc ? 1 : 0);
  put_u32(os, ckpt.hi);
  put_u32(os, ckpt.lo);
  put_u32(os, static_cast<u32>(ckpt.retired));
  put_u32(os, static_cast<u32>(ckpt.retired >> 32));
  put_u32(os, static_cast<u32>(ckpt.pages.size()));
  for (const Page& page : ckpt.pages) {
    put_u32(os, page.base);
    put_u32(os, static_cast<u32>(page.runs.size()));
    put(os, page.runs.data(), page.runs.size());
    put(os, page.words.data(), page.words.size());
  }
  return static_cast<bool>(os);
}

std::optional<Checkpoint> load_checkpoint(std::istream& is,
                                          std::string* error) {
  u32 magic = 0, version = 0;
  if (!get_u32(is, &magic) || magic != kMagic)
    return fail(error, "not a BSPC checkpoint");
  if (!get_u32(is, &version) || version != kVersion)
    return fail(error, "unsupported BSPC version");

  Checkpoint c;
  if (!get_u32(is, &c.pc)) return fail(error, "truncated header");
  if (!get(is, c.regs.data(), c.regs.size()))
    return fail(error, "truncated registers");
  if (!get(is, c.fp_regs.data(), c.fp_regs.size()))
    return fail(error, "truncated FP registers");
  u32 fcc_word = 0;
  if (!get_u32(is, &fcc_word)) return fail(error, "truncated FP flag");
  c.fcc = fcc_word != 0;
  u32 lo32 = 0, hi32 = 0, page_count = 0;
  if (!get_u32(is, &c.hi) || !get_u32(is, &c.lo) || !get_u32(is, &lo32) ||
      !get_u32(is, &hi32) || !get_u32(is, &page_count))
    return fail(error, "truncated header");
  c.retired = (u64{hi32} << 32) | lo32;
  if (page_count > kMaxPages) return fail(error, "implausible page count");

  // Cross-check the declared page count against the bytes actually present
  // before allocating anything: cache files are written by other processes
  // (possibly killed mid-write), so a hostile or torn header must produce a
  // clear error, not a large allocation followed by a short read.
  if (is.rdbuf()) {
    const std::istream::pos_type here = is.tellg();
    if (here != std::istream::pos_type(-1)) {
      is.seekg(0, std::ios::end);
      const std::istream::pos_type end = is.tellg();
      is.seekg(here);
      if (end != std::istream::pos_type(-1)) {
        const u64 remaining = static_cast<u64>(end - here);
        if (remaining < u64{page_count} * kMinPageBytes)
          return fail(error, "page count exceeds file size");
      }
    }
  }

  u32 prev_base = 0;
  for (u32 i = 0; i < page_count; ++i) {
    u32 base = 0, n_runs = 0;
    if (!get_u32(is, &base) || !get_u32(is, &n_runs))
      return fail(error, "truncated page header");
    if ((base & (SparseMemory::kPageSize - 1)) != 0)
      return fail(error, "misaligned page base");
    // capture_checkpoint() emits pages in ascending base order; enforcing it
    // here rejects duplicate/shuffled pages from corrupt files.
    if (i > 0 && base <= prev_base)
      return fail(error, "pages not in ascending order");
    prev_base = base;
    if (n_runs > Page::kMaxRuns) return fail(error, "too many runs in page");
    u16 runs[Page::kMaxRuns];
    if (!get(is, runs, n_runs)) return fail(error, "truncated run headers");
    // Each run is nonempty, starts at or after the previous run's end and
    // ends inside the page, so a page never holds more than kWords words.
    u32 next = 0, n_words = 0;
    for (u32 r = 0; r < n_runs; ++r) {
      const u32 first = run_first(runs[r]), count = run_count(runs[r]);
      if (count == 0) return fail(error, "empty run");
      if (first < next) return fail(error, "runs overlap or descend");
      if (first + count > Page::kWords)
        return fail(error, "run past page end");
      next = first + count;
      n_words += count;
    }
    Page& page = c.pages.emplace_back();
    page.base = base;
    page.runs.assign(runs, runs + n_runs);
    page.words.resize(n_words);
    if (!get(is, page.words.data(), n_words))
      return fail(error, "truncated run words");
  }
  return c;
}

bool save_checkpoint_file(const Checkpoint& ckpt, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  return os && save_checkpoint(ckpt, os);
}

std::optional<Checkpoint> load_checkpoint_file(const std::string& path,
                                               std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  return load_checkpoint(is, error);
}

std::optional<Checkpoint> fast_forward(const Program& program,
                                       u64 instructions) {
  Emulator emu(program);
  StepResult final;
  // The superblock interpreter is architecturally identical to a step()
  // loop (tests pin checkpoint byte-equality), so the captured state is the
  // same — just reached several times faster.
  const u64 done = emu.run_fast(instructions, &final);
  if (done < instructions) return std::nullopt;
  return capture_checkpoint(emu);
}

}  // namespace bsp
