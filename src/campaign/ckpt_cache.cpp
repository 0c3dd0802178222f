#include "campaign/ckpt_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>

#include "emu/emulator.hpp"
#include "stats/stats.hpp"

namespace bsp::campaign {
namespace {

struct Fnv1a {
  static constexpr u64 kPrime = 1099511628211ull;
  // A zero byte's step is h ^= 0; h *= P, so eight of them are one
  // multiply by P^8 (mod 2^64). Program images are mostly zeros (mcf
  // reserves 2 MiB), and skipping them in 8-byte chunks gives the same
  // hash as the byte loop.
  static constexpr u64 kPrime8 = [] {
    u64 p8 = 1;
    for (int i = 0; i < 8; ++i) p8 *= kPrime;
    return p8;
  }();

  u64 h = 14695981039346656037ull;
  void bytes(const void* p, std::size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      u64 chunk;
      std::memcpy(&chunk, b + i, 8);
      if (chunk == 0) {
        h *= kPrime8;
        continue;
      }
      for (std::size_t j = i; j < i + 8; ++j) step(b[j]);
    }
    for (; i < n; ++i) step(b[i]);
  }
  void step(unsigned char byte) {
    h ^= byte;
    h *= kPrime;
  }
  void word(u64 v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 8);
  }
};

// Workload names come from workload_names() and seeds are numbers, so cache
// file names are already safe; this guards against future callers passing a
// path-ish workload string.
std::string sanitise(const std::string& s) {
  std::string out = s;
  for (char& c : out)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '.'))
      c = '_';
  return out;
}

// Publishes `ckpt` as the cache file `path` under `dir`. Write-then-rename:
// readers never observe a partial file, and two concurrent materialisers
// of the same key race benignly (identical bytes, last rename wins). The
// pid + per-call counter keep their temp files apart even when the racers
// are threads of one process — a shared temp name would let one racer
// rename the file out from under the other mid-publish.
//
// Nothing is synced to disk. After a machine crash the file is absent (a
// miss), torn or zero-filled (its checksum or a structural check fails on
// load, a miss, and the next pass overwrites it) or intact (a hit), so a
// crash costs at most a recomputation.
bool publish(const std::string& dir, const std::string& path,
             const Checkpoint& ckpt, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  static std::atomic<unsigned> publish_seq{0};
  std::ostringstream tmp;
  tmp << path << ".tmp." << ::getpid() << "." << publish_seq++;
  if (!save_checkpoint_file(ckpt, tmp.str())) {
    std::remove(tmp.str().c_str());
    *error = "cannot write checkpoint cache file " + tmp.str();
    return false;
  }
  std::filesystem::rename(tmp.str(), path, ec);
  if (ec) {
    std::remove(tmp.str().c_str());
    *error =
        "cannot publish checkpoint cache file " + path + ": " + ec.message();
    return false;
  }
  return true;
}

}  // namespace

ImageHash::ImageHash(const Program& program) {
  Fnv1a f;
  f.word(program.text_base);
  f.word(program.text.size());
  f.bytes(program.text.data(), program.text.size() * sizeof(u32));
  f.word(program.data_base);
  f.word(program.data.size());
  f.bytes(program.data.data(), program.data.size());
  f.word(program.entry);
  state_ = f.h;
}

std::string ImageHash::key(u64 fast_forward) const {
  Fnv1a f{state_};
  f.word(fast_forward);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(f.h));
  return buf;
}

std::string checkpoint_cache_path(const std::string& dir,
                                  const std::string& workload, u64 seed,
                                  const ImageHash& image, u64 fast_forward) {
  std::ostringstream os;
  os << dir << "/" << sanitise(workload) << "-s" << std::hex << seed
     << std::dec << "-ff" << fast_forward << "-" << image.key(fast_forward)
     << ".bspc";
  return os.str();
}

const Checkpoint* CheckpointSet::start(u64 offset) const {
  const auto it = by_offset.find(offset);
  return it == by_offset.end() ? nullptr : it->second.get();
}

std::string CheckpointSet::failure(u64 offset) const {
  if (!error.empty()) return "fast-forward failed: " + error;
  if (offset == 0 || by_offset.count(offset)) return "";
  return "fast-forward failed: program exited or faulted before "
         "fast_forward=" +
         std::to_string(offset);
}

CheckpointSet materialise_checkpoints(const Program& program,
                                      const std::string& workload, u64 seed,
                                      const std::set<u64>& offsets,
                                      const std::string& dir) {
  CheckpointSet out;
  // One incremental functional pass: ascending offsets extend the same
  // emulator, which is loaded only once some offset misses the cache. A
  // miss after hits continues from the latest hit's checkpoint, in an
  // emulator started from it (its pages alone, no image copy). When every
  // offset hits, nothing is emulated or restored.
  std::optional<ImageHash> image;
  if (!dir.empty()) image.emplace(program);
  std::optional<Emulator> emu;
  u64 pos = 0;
  std::shared_ptr<const Checkpoint> resume;  // latest hit not yet restored
  for (const u64 offset : offsets) {
    if (offset == 0) continue;  // detail starts at reset
    std::string path;
    if (image) {
      path = checkpoint_cache_path(dir, workload, seed, *image, offset);
      // A missing file is the normal cold path; one that fails to load is
      // a miss too, and the publish below overwrites it.
      if (auto ckpt = load_checkpoint_file(path)) {
        resume = std::make_shared<const Checkpoint>(std::move(*ckpt));
        pos = offset;
        ++out.reused;
        out.by_offset[offset] = resume;
        continue;
      }
    }
    const WallTimer timer;
    if (!emu || resume) emu.emplace(program, resume.get());
    resume = nullptr;
    emu->run_fast(offset - pos);
    pos = emu->instructions_retired();
    if (pos < offset) {
      // Exited or faulted before the offset: no later one is reachable.
      out.ffwd_sec += timer.seconds();
      break;
    }
    auto ckpt = std::make_shared<const Checkpoint>(capture_checkpoint(*emu));
    const bool published = !image || publish(dir, path, *ckpt, &out.error);
    out.ffwd_sec += timer.seconds();
    if (!published) break;
    out.by_offset[offset] = std::move(ckpt);
    ++out.materialised;
  }
  return out;
}

}  // namespace bsp::campaign
