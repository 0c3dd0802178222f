#include "sampling/sampled.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "campaign/ckpt_cache.hpp"
#include "campaign/store.hpp"
#include "emu/checkpoint.hpp"
#include "obs/interval.hpp"
#include "stats/stats.hpp"
#include "util/parallel.hpp"
#include "util/subprocess.hpp"

namespace bsp::sampling {
namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

// Last non-empty line of a worker's stdout: the result line, tolerating
// any stray diagnostics an instrumented build might print first.
std::string last_nonempty_line(const std::string& text) {
  std::size_t end = text.size();
  while (end > 0) {
    std::size_t start = text.rfind('\n', end - 1);
    const std::size_t from = start == std::string::npos ? 0 : start + 1;
    if (end > from) return text.substr(from, end - from);
    if (start == std::string::npos) break;
    end = start;
  }
  return "";
}

}  // namespace

PrewarmResult materialise_interval_checkpoints(const Program& program,
                                               const std::string& workload,
                                               u64 seed,
                                               const SamplePlan& plan,
                                               const std::string& cache_dir) {
  PrewarmResult out;
  std::set<u64> offsets;
  for (const IntervalSpec& spec : plan.intervals)
    if (spec.offset > 0) offsets.insert(spec.offset);
  if (offsets.empty()) return out;

  const WallTimer timer;
  // One incremental functional pass: ascending offsets extend the same
  // emulator, which is loaded only once some offset misses the cache. A
  // miss after hits continues from the latest hit's checkpoint — legal
  // because a later capture's page set is a superset of any earlier
  // prefix's (same deterministic stream), so the restore fully overwrites
  // the emulator's state. When every offset hits, nothing is emulated or
  // restored.
  std::optional<campaign::ImageHash> image;
  if (!cache_dir.empty()) image.emplace(program);
  std::optional<Emulator> emu;
  u64 pos = 0;
  std::shared_ptr<const Checkpoint> resume;  // latest hit not yet restored
  for (const u64 offset : offsets) {
    if (image) {
      const std::string path = campaign::checkpoint_cache_path(
          cache_dir, workload, seed, *image, offset);
      if (auto ckpt = load_checkpoint_file(path)) {
        resume = std::make_shared<const Checkpoint>(std::move(*ckpt));
        pos = offset;
        ++out.reused;
        out.by_offset[offset] = resume;
        continue;
      }
    }
    if (!emu) emu.emplace(program);
    if (resume) {
      restore_checkpoint(*emu, *resume);
      resume = nullptr;
    }
    emu->run_fast(offset - pos);
    pos = emu->instructions_retired();
    if (pos < offset) {
      // Exit/fault before the offset: later intervals are unreachable.
      // Not an error — their specs are recorded as skipped.
      break;
    }
    auto ckpt = std::make_shared<const Checkpoint>(capture_checkpoint(*emu));
    if (image) {
      std::string err;
      if (campaign::publish_checkpoint(cache_dir, workload, seed, *image,
                                       offset, *ckpt, &err)
              .empty()) {
        out.error = err;
        out.ffwd_sec = timer.seconds();
        return out;
      }
    }
    out.by_offset[offset] = std::move(ckpt);
    ++out.materialised;
  }
  out.ffwd_sec = timer.seconds();
  return out;
}

IntervalResult run_one_interval(const MachineConfig& config,
                                const Program& program,
                                const IntervalSpec& spec,
                                const Checkpoint* start, bool host_profile,
                                bool cpi_stack, const SimOptions& sim_opts) {
  IntervalResult out;
  out.spec = spec;
  const WallTimer timer;
  Simulator sim = start ? Simulator(config, program, *start)
                        : Simulator(config, program);
  if (host_profile) sim.enable_host_profile();
  if (cpi_stack) sim.enable_cpi_stack();
  sim.set_options(sim_opts);
  const SimResult r = sim.run(spec.commits, spec.warmup);
  out.stats = r.stats;
  out.error = r.error;
  out.exited = r.exited;
  out.exit_code = r.exit_code;
  out.host_sec = timer.seconds();
  return out;
}

std::string interval_to_jsonl(const IntervalResult& r) {
  std::ostringstream os;
  os << "{\"type\":\"interval\""
     << ",\"index\":" << r.spec.index
     << ",\"offset\":" << r.spec.offset
     << ",\"warmup\":" << r.spec.warmup
     << ",\"commits\":" << r.spec.commits
     << ",\"measured_start\":" << r.spec.measured_start
     << ",\"status\":\""
     << (r.skipped ? "skipped" : r.ok() ? "ok" : "failed") << "\""
     << ",\"exited\":" << (r.exited ? "true" : "false")
     << ",\"exit_code\":" << r.exit_code
     << ",\"host_sec\":" << fmt6(r.host_sec);
  if (!r.error.empty()) os << ",\"error\":\"" << escape(r.error) << "\"";
  if (!r.skipped && r.ok()) {
    os << ",\"stats\":{";
    bool first = true;
    for (const obs::CounterDesc& c : obs::simstats_counters()) {
      os << (first ? "\"" : ",\"") << c.name << "\":" << r.stats.*c.field;
      first = false;
    }
    os << ",\"host_seconds\":" << fmt6(r.stats.host_seconds)
       << ",\"ipc\":" << fmt6(r.stats.ipc()) << "}";
  }
  os << "}";
  return os.str();
}

bool interval_from_jsonl(const std::string& line, IntervalResult* out,
                         std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error) *error = why;
    return false;
  };
  if (line.empty() || line.front() != '{' || line.back() != '}')
    return fail("not a JSON object line");
  const auto type = campaign::jsonl_field(line, "type");
  if (!type || *type != "interval") return fail("not an interval record");
  const auto num = [&](const char* key) -> std::optional<u64> {
    const auto v = campaign::jsonl_field(line, key);
    if (!v) return std::nullopt;
    return std::strtoull(v->c_str(), nullptr, 0);
  };
  const auto index = num("index");
  const auto offset = num("offset");
  const auto warmup = num("warmup");
  const auto commits = num("commits");
  const auto measured_start = num("measured_start");
  const auto status = campaign::jsonl_field(line, "status");
  if (!index || !offset || !warmup || !commits || !measured_start || !status)
    return fail("missing interval fields");
  IntervalResult r;
  r.spec.index = static_cast<unsigned>(*index);
  r.spec.offset = *offset;
  r.spec.warmup = *warmup;
  r.spec.commits = *commits;
  r.spec.measured_start = *measured_start;
  r.skipped = *status == "skipped";
  if (const auto e = campaign::jsonl_field(line, "error")) r.error = *e;
  if (*status == "failed" && r.error.empty())
    r.error = "interval worker reported failure";
  if (const auto v = campaign::jsonl_field(line, "exited"))
    r.exited = *v == "true";
  if (const auto v = num("exit_code"))
    r.exit_code = static_cast<int>(static_cast<long long>(*v));
  if (const auto v = campaign::jsonl_field(line, "host_sec"))
    r.host_sec = std::strtod(v->c_str(), nullptr);
  if (!r.skipped && r.ok()) {
    for (const obs::CounterDesc& c : obs::simstats_counters()) {
      const auto v = num(c.name);
      if (!v) {
        // Registry-`optional` counters default to 0 (record written by a
        // pre-upgrade worker binary).
        if (c.optional) continue;
        return fail(std::string("missing counter ") + c.name);
      }
      r.stats.*c.field = *v;
    }
    if (const auto v = campaign::jsonl_field(line, "host_seconds"))
      r.stats.host_seconds = std::strtod(v->c_str(), nullptr);
  }
  *out = std::move(r);
  return true;
}

namespace {

// Process-isolation body: launch worker_cmd + [index], parse the last
// non-empty stdout line as the interval record.
IntervalResult run_interval_subprocess(const IntervalSpec& spec,
                                       const SampleOptions& opts) {
  IntervalResult out;
  out.spec = spec;
  std::vector<std::string> argv = opts.worker_cmd;
  argv.push_back(std::to_string(spec.index));
  SubprocessLimits limits;
  limits.timeout_sec = opts.timeout_sec;
  const WallTimer timer;
  const SubprocessResult r = run_subprocess(argv, limits);
  out.host_sec = timer.seconds();
  if (r.spawn_error) {
    out.error = "spawn: " + r.error;
    return out;
  }
  if (r.timed_out) {
    out.error = "interval worker timed out";
    return out;
  }
  if (r.signal != 0) {
    out.error = "interval worker crashed: " + signal_name(r.signal);
    return out;
  }
  const std::string line = last_nonempty_line(r.out);
  IntervalResult parsed;
  std::string perr;
  if (!interval_from_jsonl(line, &parsed, &perr)) {
    out.error = "bad worker output (" + perr + ")";
    if (!r.err.empty()) out.error += "; stderr: " + r.err;
    return out;
  }
  if (parsed.spec.index != spec.index) {
    out.error = "worker answered for interval " +
                std::to_string(parsed.spec.index);
    return out;
  }
  parsed.host_sec = out.host_sec;  // include fork/exec + parse overhead
  return parsed;
}

}  // namespace

SampledResult run_sampled(const MachineConfig& config, const Program& program,
                          const std::string& workload, u64 seed,
                          u64 max_commits, u64 warmup, u64 fast_forward,
                          const SampleOptions& opts) {
  SampledResult out;
  const WallTimer wall;
  out.plan = plan_intervals(max_commits, warmup, fast_forward, opts.intervals,
                            opts.warmup);

  PrewarmResult prewarm = materialise_interval_checkpoints(
      program, workload, seed, out.plan, opts.ckpt_cache_dir);
  out.ckpt_materialised = prewarm.materialised;
  out.ckpt_reused = prewarm.reused;
  out.prewarm_sec = prewarm.ffwd_sec;
  if (!prewarm.ok()) {
    out.error = "prewarm: " + prewarm.error;
    out.wall_sec = wall.seconds();
    return out;
  }

  const std::size_t k = out.plan.intervals.size();
  out.intervals.resize(k);
  // Intervals whose checkpoint the functional pass never reached (program
  // exited first) are skipped up front; workers run the rest in parallel.
  std::vector<std::size_t> runnable;
  for (std::size_t i = 0; i < k; ++i) {
    const IntervalSpec& spec = out.plan.intervals[i];
    out.intervals[i].spec = spec;
    if (spec.offset > 0 && !prewarm.by_offset.count(spec.offset)) {
      out.intervals[i].skipped = true;
    } else {
      runnable.push_back(i);
    }
  }

  const bool process_mode = !opts.worker_cmd.empty();
  parallel_for(
      runnable.size(),
      [&](std::size_t r) {
        const std::size_t i = runnable[r];
        const IntervalSpec& spec = out.plan.intervals[i];
        if (process_mode) {
          out.intervals[i] = run_interval_subprocess(spec, opts);
        } else {
          const Checkpoint* start = nullptr;
          if (spec.offset > 0) start = prewarm.by_offset[spec.offset].get();
          out.intervals[i] = run_one_interval(config, program, spec, start,
                                              opts.host_profile,
                                              opts.cpi_stack, opts.sim);
        }
      },
      opts.jobs);

  for (const IntervalResult& r : out.intervals) {
    if (r.skipped) {
      out.exited = true;  // the program ended before this interval
    } else if (r.exited) {
      out.exited = true;
      out.exit_code = r.exit_code;
    }
    if (!r.ok() && out.error.empty())
      out.error = "interval " + std::to_string(r.spec.index) + ": " + r.error;
  }

  out.aggregate = stitch_stats(out.intervals);
  out.ipc = estimate_ipc(out.intervals);
  out.wall_sec = wall.seconds();
  return out;
}

}  // namespace bsp::sampling
