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
// nonzero words; v4 ends the file with a checksum of every byte before it.
constexpr u32 kVersion = 4;
constexpr u32 kMaxPages = 1u << 20;
// The smallest page record: base and run count.
constexpr u64 kMinPageBytes = 8;
constexpr u64 kChecksumBytes = 8;

constexpr u16 run_header(u32 first, u32 count) {
  return static_cast<u16>(first | count << 10);
}
constexpr u32 run_first(u16 header) { return header & 0x3ffu; }
constexpr u32 run_count(u16 header) { return header >> 10; }

// A checksum of a byte stream fed in pieces of any size: each 8-byte
// little-endian word w (the last one zero-padded) steps
// h = rotl((h ^ w) * K, 31), then the byte count is folded in and the
// result mixed. A step is a bijection of h for a fixed w and of w for a
// fixed h, so a file that differs from the one written in a single word
// always fails the check; any other corruption passes with probability
// about 2^-64.
class StreamSum {
 public:
  void add(const void* data, std::size_t n) {
    if (n == 0) return;  // `data` may be null then (an empty vector's)
    const auto* b = static_cast<const unsigned char*>(data);
    bytes_ += n;
    if (pending_ > 0) {
      const std::size_t take = std::min<std::size_t>(n, 8 - pending_);
      std::memcpy(reinterpret_cast<unsigned char*>(&tail_) + pending_, b,
                  take);
      pending_ += static_cast<unsigned>(take);
      b += take;
      n -= take;
      if (pending_ < 8) return;
      step(tail_);
      pending_ = 0;
      tail_ = 0;
    }
    for (; n >= 8; b += 8, n -= 8) {
      u64 w;
      std::memcpy(&w, b, 8);
      step(w);
    }
    std::memcpy(&tail_, b, n);
    pending_ = static_cast<unsigned>(n);
  }

  u64 value() const {
    u64 h = h_;
    if (pending_ > 0) h = mix(h, tail_);
    h = mix(h, bytes_);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
  }

 private:
  static constexpr u64 kMul = 0x9e3779b97f4a7c15ull;
  static u64 mix(u64 h, u64 w) { return std::rotl((h ^ w) * kMul, 31); }
  void step(u64 w) { h_ = mix(h_, w); }

  u64 h_ = 0x243f6a8885a308d3ull;
  u64 tail_ = 0;  // the bytes of an unfinished word, little-endian
  unsigned pending_ = 0;
  u64 bytes_ = 0;
};

// Values are stored as the host's bytes: host and target are
// little-endian, as SparseMemory already assumes. Every byte but the
// trailing checksum passes through a Writer or a Reader, which fold it
// into the stream's sum as it goes.
static_assert(std::endian::native == std::endian::little);
struct Writer {
  std::ostream& os;
  StreamSum sum;

  template <typename T>
  void put(const T* values, std::size_t n) {
    os.write(reinterpret_cast<const char*>(values),
             static_cast<std::streamsize>(n * sizeof(T)));
    sum.add(values, n * sizeof(T));
  }
  void put_u32(u32 v) { put(&v, 1); }
};

struct Reader {
  std::istream& is;
  StreamSum sum;

  template <typename T>
  bool get(T* values, std::size_t n) {
    if (!is.read(reinterpret_cast<char*>(values),
                 static_cast<std::streamsize>(n * sizeof(T))))
      return false;
    sum.add(values, n * sizeof(T));
    return true;
  }
  bool get_u32(u32* v) { return get(v, 1); }
};

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
  Writer out{os, {}};
  out.put_u32(kMagic);
  out.put_u32(kVersion);
  out.put_u32(ckpt.pc);
  out.put(ckpt.regs.data(), ckpt.regs.size());
  out.put(ckpt.fp_regs.data(), ckpt.fp_regs.size());
  out.put_u32(ckpt.fcc ? 1 : 0);
  out.put_u32(ckpt.hi);
  out.put_u32(ckpt.lo);
  out.put_u32(static_cast<u32>(ckpt.retired));
  out.put_u32(static_cast<u32>(ckpt.retired >> 32));
  out.put_u32(static_cast<u32>(ckpt.pages.size()));
  for (const Page& page : ckpt.pages) {
    out.put_u32(page.base);
    out.put_u32(static_cast<u32>(page.runs.size()));
    out.put(page.runs.data(), page.runs.size());
    out.put(page.words.data(), page.words.size());
  }
  const u64 checksum = out.sum.value();
  os.write(reinterpret_cast<const char*>(&checksum), sizeof checksum);
  return static_cast<bool>(os);
}

std::optional<Checkpoint> load_checkpoint(std::istream& is,
                                          std::string* error) {
  Reader in{is, {}};
  u32 magic = 0, version = 0;
  if (!in.get_u32(&magic) || magic != kMagic)
    return fail(error, "not a BSPC checkpoint");
  if (!in.get_u32(&version) || version != kVersion)
    return fail(error, "unsupported BSPC version");

  Checkpoint c;
  if (!in.get_u32(&c.pc)) return fail(error, "truncated header");
  if (!in.get(c.regs.data(), c.regs.size()))
    return fail(error, "truncated registers");
  if (!in.get(c.fp_regs.data(), c.fp_regs.size()))
    return fail(error, "truncated FP registers");
  u32 fcc_word = 0;
  if (!in.get_u32(&fcc_word)) return fail(error, "truncated FP flag");
  c.fcc = fcc_word != 0;
  u32 lo32 = 0, hi32 = 0, page_count = 0;
  if (!in.get_u32(&c.hi) || !in.get_u32(&c.lo) || !in.get_u32(&lo32) ||
      !in.get_u32(&hi32) || !in.get_u32(&page_count))
    return fail(error, "truncated header");
  c.retired = (u64{hi32} << 32) | lo32;
  if (page_count > kMaxPages) return fail(error, "implausible page count");

  // Cross-check the declared page count against the bytes actually present
  // (the pages' smallest records and the checksum) before allocating
  // anything: cache files are written by other processes and may be torn by
  // a crash, so a hostile or torn header must produce a clear error, not a
  // large allocation followed by a short read.
  if (is.rdbuf()) {
    const std::istream::pos_type here = is.tellg();
    if (here != std::istream::pos_type(-1)) {
      is.seekg(0, std::ios::end);
      const std::istream::pos_type end = is.tellg();
      is.seekg(here);
      if (end != std::istream::pos_type(-1)) {
        const u64 remaining = static_cast<u64>(end - here);
        if (remaining < u64{page_count} * kMinPageBytes + kChecksumBytes)
          return fail(error, "page count exceeds file size");
      }
    }
  }

  u32 prev_base = 0;
  for (u32 i = 0; i < page_count; ++i) {
    u32 base = 0, n_runs = 0;
    if (!in.get_u32(&base) || !in.get_u32(&n_runs))
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
    if (!in.get(runs, n_runs)) return fail(error, "truncated run headers");
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
    if (!in.get(page.words.data(), n_words))
      return fail(error, "truncated run words");
  }

  // A well-formed file can still hold bytes other than those written: a
  // machine crash can leave a renamed file torn or zero-filled. The
  // checksum catches that, and the file must end right after it.
  u64 checksum = 0;
  if (!is.read(reinterpret_cast<char*>(&checksum), sizeof checksum))
    return fail(error, "truncated checksum");
  if (is.peek() != std::istream::traits_type::eof())
    return fail(error, "trailing bytes after checksum");
  if (checksum != in.sum.value()) return fail(error, "checksum mismatch");
  return c;
}

bool save_checkpoint_file(const Checkpoint& ckpt, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os || !save_checkpoint(ckpt, os)) return false;
  os.close();  // the last buffered bytes can fail to write, too
  return !os.fail();
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
