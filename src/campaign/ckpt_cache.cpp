#include "campaign/ckpt_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>

namespace bsp::campaign {
namespace {

struct Fnv1a {
  u64 h = 14695981039346656037ull;
  void bytes(const void* p, std::size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
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

// fsync one path (a file or, with O_DIRECTORY, its parent). Returns false
// only on a real sync failure, not on open failure of an exotic filesystem
// that forbids O_DIRECTORY reads — those surface at rename time anyway.
bool sync_path(const std::string& path, int open_flags) {
  const int fd = ::open(path.c_str(), open_flags);
  if (fd < 0) return true;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
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

std::string checkpoint_cache_key(const Program& program, u64 fast_forward) {
  return ImageHash(program).key(fast_forward);
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

std::string publish_checkpoint(const std::string& dir,
                               const std::string& workload, u64 seed,
                               const ImageHash& image, u64 fast_forward,
                               const Checkpoint& ckpt, std::string* error) {
  const std::string path =
      checkpoint_cache_path(dir, workload, seed, image, fast_forward);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  // Write-then-rename: readers never observe a partial file, and two
  // concurrent materialisers of the same key race benignly (identical
  // bytes, last rename wins). The pid + per-call counter keep their temp
  // files apart even when the racers are threads of one process — a
  // shared temp name would let one racer rename the file out from under
  // the other mid-publish.
  static std::atomic<unsigned> publish_seq{0};
  std::ostringstream tmp;
  tmp << path << ".tmp." << ::getpid() << "." << publish_seq++;
  if (!save_checkpoint_file(ckpt, tmp.str())) {
    std::remove(tmp.str().c_str());
    if (error) *error = "cannot write checkpoint cache file " + tmp.str();
    return "";
  }
  // Durability: flush the temp file's bytes before the rename makes them
  // visible, and the directory entry after. Without the first, a crash
  // shortly after publish can leave the *renamed* file empty or truncated —
  // exactly the present-but-corrupt state the cache's heal path exists for,
  // but self-inflicted; without the second, the rename itself can vanish.
  if (!sync_path(tmp.str(), O_RDONLY)) {
    std::remove(tmp.str().c_str());
    if (error) *error = "cannot fsync checkpoint cache file " + tmp.str();
    return "";
  }
  std::filesystem::rename(tmp.str(), path, ec);
  if (ec) {
    std::remove(tmp.str().c_str());
    if (error)
      *error = "cannot publish checkpoint cache file " + path + ": " +
               ec.message();
    return "";
  }
  sync_path(dir, O_RDONLY | O_DIRECTORY);
  return path;
}

CkptFetch fetch_checkpoint(const std::string& dir, const std::string& workload,
                           u64 seed, const Program& program,
                           u64 fast_forward) {
  CkptFetch out;
  if (fast_forward == 0) {
    out.error = "fast_forward must be nonzero";
    return out;
  }

  std::optional<ImageHash> image;
  if (!dir.empty()) {
    image.emplace(program);
    out.path =
        checkpoint_cache_path(dir, workload, seed, *image, fast_forward);
    std::string load_error;
    if (auto ckpt = load_checkpoint_file(out.path, &load_error)) {
      out.checkpoint = std::make_shared<const Checkpoint>(std::move(*ckpt));
      out.hit = true;
      return out;
    }
    // Missing file is the normal cold path; a present-but-corrupt file (torn
    // concurrent writer that died before rename never leaves one, but a
    // truncated disk might) falls through and is overwritten below.
  }

  const auto t0 = std::chrono::steady_clock::now();
  // Qualified: the `fast_forward` parameter shadows the emu-layer function.
  auto ckpt = ::bsp::fast_forward(program, fast_forward);
  out.ffwd_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!ckpt) {
    out.error = "program exited or faulted before fast_forward=" +
                std::to_string(fast_forward);
    return out;
  }
  out.checkpoint = std::make_shared<const Checkpoint>(std::move(*ckpt));

  if (image) {
    if (publish_checkpoint(dir, workload, seed, *image, fast_forward,
                           *out.checkpoint, &out.error)
            .empty()) {
      out.checkpoint = nullptr;
      return out;
    }
  }
  return out;
}

}  // namespace bsp::campaign
