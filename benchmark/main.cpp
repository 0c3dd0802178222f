// bsp-bench: runs one benchmark workload for --seconds, checks its outputs,
// and prints its metrics. The last line of stdout is one JSON object:
//   {"correct": B, "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). benchmark/run.sh builds this binary and runs it; README.md
// defines the workloads and metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <thread>

#include "probe.hpp"
#include "stats/stats.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

using namespace bench;
namespace fs = std::filesystem;

struct Metric {
  const char* name;
  const char* unit;
};

// Printed by every untraced run: medians over its rounds, host times scaled
// to the probe's reference speed (probe.hpp).
const std::vector<Metric> kEndToEnd = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"commits_per_s", "instr/s"},
    {"tasks_per_s", "tasks/s"},
    {"peak_rss_mb", "MiB"},
};

// Printed by every traced run; 0 where the workload does not exercise the
// layer. BENCHMARK.json's per_layer list is this one.
const std::vector<Metric> kPerLayer = {
    {"bench.self_s", "s"},
    {"bench.probe_s", "s"},
    {"trace.overhead_pct", "%"},
    {"workloads.build_s", "s"},
    {"workloads.builds", "count"},
    {"workloads.self_s", "s"},
    {"emu.ffwd_s", "s"},
    {"emu.ffwd_instrs", "count"},
    {"emu.ffwd_mips", "Minstr/s"},
    {"core.run_s", "s"},
    {"core.construct_s", "s"},
    {"core.commits", "count"},
    {"core.cycles", "count"},
    {"core.ns_per_commit", "ns"},
    {"core.ns_per_cycle", "ns"},
    {"core.base.ns_per_commit", "ns"},
    {"core.x2.ns_per_commit", "ns"},
    {"core.x4.ns_per_commit", "ns"},
    {"core.gzip.ns_per_commit", "ns"},
    {"core.li.ns_per_commit", "ns"},
    {"core.mcf.ns_per_commit", "ns"},
    {"core.vortex.ns_per_commit", "ns"},
    {"core.idle_skip_frac", "ratio"},
    {"core.dispatch_useful_frac", "ratio"},
    {"core.op_replays_per_kcommit", "1/kinstr"},
    {"core.load_replays_per_kcommit", "1/kinstr"},
    {"core.self_s", "s"},
    {"core.phase.commit_share", "ratio"},
    {"core.phase.resolve_share", "ratio"},
    {"core.phase.select_share", "ratio"},
    {"core.phase.memory_share", "ratio"},
    {"core.phase.dispatch_share", "ratio"},
    {"core.phase.fetch_share", "ratio"},
    {"core.phase.cosim_share", "ratio"},
    {"core.phase.replay_share", "ratio"},
    {"core.ns_per_loop_cycle", "ns"},
    {"obs.overhead_pct", "%"},
    {"obs.interval_rows", "count"},
    {"obs.cpi_identity_frac", "ratio"},
    {"sampling.prewarm_s", "s"},
    {"sampling.ckpt_materialised", "count"},
    {"sampling.detail_s", "s"},
    {"sampling.interval_s_p50", "s"},
    {"sampling.interval_s_max", "s"},
    {"sampling.parallel_eff", "ratio"},
    {"sampling.interval_ns_per_commit", "ns"},
    {"sampling.mono_ns_per_commit", "ns"},
    {"sampling.warmup_frac", "ratio"},
    {"sampling.bzip.err_pct", "%"},
    {"sampling.mcf.err_pct", "%"},
    {"sampling.li.err_pct", "%"},
    {"sampling.parser.err_pct", "%"},
    {"sampling.gzip.err_pct", "%"},
    {"sampling.vortex.err_pct", "%"},
    {"sampling.err_pct_max", "%"},
    {"sampling.ci_miss", "count"},
    {"sampling.self_s", "s"},
    {"campaign.expand_s", "s"},
    {"campaign.prewarm_s", "s"},
    {"campaign.ckpt_groups", "count"},
    {"campaign.ckpt_hit_frac", "ratio"},
    {"campaign.runner_s", "s"},
    {"campaign.task_ms_p50", "ms"},
    {"campaign.task_ms_p90", "ms"},
    {"campaign.busy_frac", "ratio"},
    {"campaign.overhead_s", "s"},
    {"campaign.store_bytes", "bytes"},
    {"campaign.retried", "count"},
    {"campaign.paper_gap_pp", "pct-points"},
    {"campaign.self_s", "s"},
    {"subprocess.cpu_frac", "ratio"},
    {"subprocess.sys_s", "s"},
    {"subprocess.rss_mb_max", "MiB"},
    {"remote.runner_s", "s"},
    {"remote.busy_frac", "ratio"},
    {"remote.overhead_s", "s"},
    {"remote.tasks_per_worker_min", "count"},
    {"remote.tasks_per_worker_max", "count"},
    {"remote.prewarm_groups", "count"},
};

// The workload seeds every workload has been run with: 0..80, 0x5eed and
// 0xbeef. Any other --seed folds into 0..80, so a run never starts from an
// input nobody has tried: the simulator's selective-replay relaxation can
// livelock on some inputs (README.md, "Known simulator bug").
constexpr u64 kTriedSeeds = 81;
u64 workload_seed(u64 seed) {
  if (seed < kTriedSeeds || seed == 0x5eed || seed == 0xbeef) return seed;
  return seed % kTriedSeeds;
}

// Ends the process if a run outlives `limit` (a wedged worker, say), so the
// benchmark always exits within its time cap.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, limit, [this] { return stop_; })) {
            std::cerr << "bsp-bench: run exceeded " << limit.count()
                      << "s, giving up\n";
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// Removes a scratch directory tree when the run ends.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(v) ? v : 0.0);
  return buf;
}

enum class Kind { kPlain, kTraced, kSibling };

struct Measured {
  Kind kind;
  Round round;
  double probe_s;  // probe_host() just before the round
  // Multiplies the round's host times into times at the probe's reference
  // speed (probe.hpp).
  double to_reference() const { return kProbeReferenceSeconds / probe_s; }
};

struct Sample {
  std::vector<double> values;
  double median() const { return quantile(values, 0.5); }
};

}  // namespace

int main(int argc, char** argv) {
  std::string workload, golden_path;
  std::string trace_dir = ".bench_build/trace";
  std::string work_dir = ".bench_build/work";
  u64 seed = 0x5eed;
  double seconds = 25, scale = 1;
  unsigned trace = 0;
  bool write_golden = false;

  bsp::ArgParser parser(
      "bsp-bench: run one benchmark workload for --seconds, check its "
      "outputs and print its metrics");
  parser.add_value("--workload", "NAME",
                   "detail, sampled-k8, sweep-thread or sweep-process",
                   &workload);
  parser.add_value("--seed", "S",
                   "workload seed, hex ok (default 0x5eed); values past 80 "
                   "other than 0x5eed and 0xbeef fold into 0..80",
                   &seed);
  parser.add_value("--seconds", "T", "how long to measure (default 25)",
                   &seconds);
  parser.add_value("--trace", "0|1",
                   "1: traced run; print the per-layer metrics and write a "
                   "Chrome trace to --trace-dir",
                   &trace);
  parser.add_value("--trace-dir", "DIR",
                   "where traced runs write <workload>.json (default "
                   ".bench_build/trace)",
                   &trace_dir);
  parser.add_value("--scale", "X",
                   "multiply every run's instruction budget (default 1)",
                   &scale);
  parser.add_value("--golden", "FILE",
                   "golden fingerprints, checked when seed is 0x5eed and "
                   "scale is 1",
                   &golden_path);
  parser.add_flag("--write-golden",
                  "store this workload's fingerprints in --golden instead "
                  "of checking them",
                  &write_golden);
  parser.add_value("--work-dir", "DIR",
                   "scratch space for stores and checkpoints (default "
                   ".bench_build/work)",
                   &work_dir);
  parser.parse(argc, argv);

  seed = workload_seed(seed);
  auto wl = make_workload(workload);
  if (!wl) {
    std::cerr << "bsp-bench: unknown --workload '" << workload << "'\n";
    return 2;
  }
  if (!(seconds > 0) || trace > 1 || !(scale > 0 && scale <= 1)) {
    std::cerr << "bsp-bench: need --seconds > 0, --trace 0|1 and "
                 "0 < --scale <= 1\n";
    return 2;
  }
  const auto sibling = trace ? make_sibling(workload) : nullptr;

  const Watchdog watchdog(std::chrono::seconds(170));
  const ScratchDir scratch{work_dir + "/" + workload + "-" +
                           std::to_string(::getpid())};
  const Sizes sizes(scale);
  Tracer tracer;

  // Untraced runs repeat plain rounds. Traced runs rotate traced rounds
  // with untraced ones (trace.overhead_pct) and untraced rounds of the
  // sibling, if the workload has one.
  std::vector<Kind> cycle = {Kind::kPlain};
  if (trace) {
    cycle = {Kind::kTraced, Kind::kPlain};
    if (sibling) cycle.push_back(Kind::kSibling);
  }
  const std::size_t min_rounds = cycle.size() * (trace ? 2 : 3);

  std::vector<Measured> rounds;
  std::vector<std::string> errors;
  std::map<std::string, double> fixed_layer;
  Prints golden_prints;
  // After the first round: what a fresh process needs to run the workload
  // once. Later rounds add the allocator's fragmentation, which varies from
  // run to run with how the threads interleaved.
  double rss_mb = 0;
  try {
    const bsp::WallTimer elapsed;
    for (unsigned r = 0;; ++r) {
      const Kind kind = cycle[r % cycle.size()];
      const RoundCtx ctx{tracer, seed, sizes,
                         scratch.path + "/round-" + std::to_string(r)};
      fs::create_directories(ctx.dir);
      BenchWorkload& w = kind == Kind::kSibling ? *sibling : *wl;
      Measured m{kind, {}, probe_host(w.threads())};
      tracer.start_round(r, kind == Kind::kTraced);
      {
        const Span span(tracer, "bench.round");
        m.round = w.round(ctx);
      }
      tracer.start_round(r, false);
      if (r == 0) rss_mb = peak_rss_mb();
      fs::remove_all(ctx.dir);
      rounds.push_back(std::move(m));
      if (elapsed.seconds() >= seconds && rounds.size() >= min_rounds) break;
    }

    // Output checks, untimed. Rounds must reproduce each other exactly.
    const Round* first = nullptr;
    const Round* first_sibling = nullptr;
    for (const Measured& m : rounds) {
      const Round& round = m.round;
      errors.insert(errors.end(), round.errors.begin(), round.errors.end());
      const Round*& ref = m.kind == Kind::kSibling ? first_sibling : first;
      if (!ref)
        ref = &round;
      else
        compare_prints(ref->prints, round.prints, "repeated round", false,
                       &errors);
    }
    const RoundCtx check_ctx{tracer, seed, sizes, scratch.path + "/check"};
    fs::create_directories(check_ctx.dir);
    golden_prints = first->prints;
    wl->check(check_ctx, *first, &golden_prints, &fixed_layer, &errors);

    if (!golden_path.empty() && seed == 0x5eed && scale == 1) {
      Golden golden;
      std::string why;
      const bool loaded = load_golden(golden_path, &golden, &why);
      if (write_golden) {
        golden[wl->golden_section()] = golden_prints;
        if (!save_golden(golden_path, golden))
          errors.push_back("cannot write " + golden_path);
      } else if (!loaded) {
        errors.push_back(why);
      } else {
        compare_prints(golden[wl->golden_section()], golden_prints,
                       "golden " + wl->golden_section(), false, &errors);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "bsp-bench: " << e.what() << "\n";
    return 1;
  }

  u64 attempted = 0, failed = 0;
  for (const Measured& m : rounds) {
    attempted += m.round.ops;
    failed += m.round.failed;
  }

  // name -> per-round values, and the units to print.
  std::map<std::string, Sample> samples;
  const std::vector<Metric>* table = &kEndToEnd;
  std::vector<double> probes;
  for (const Measured& m : rounds) probes.push_back(m.probe_s);
  if (!trace) {
    for (const Measured& m : rounds) {
      const Round& r = m.round;
      const double wall = r.wall_s * m.to_reference();
      samples["wall_s"].values.push_back(wall);
      samples["setup_s"].values.push_back(r.setup_s * m.to_reference());
      samples["commits_per_s"].values.push_back(r.commits / wall);
      samples["tasks_per_s"].values.push_back(r.ops / wall);
    }
    samples["peak_rss_mb"].values.push_back(rss_mb);
  } else {
    table = &kPerLayer;
    const auto self = tracer.self_seconds();
    std::map<Kind, std::vector<double>> walls;
    std::map<std::string, Sample> from_sibling;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      const Kind kind = rounds[i].kind;
      const Round& r = rounds[i].round;
      walls[kind].push_back(r.wall_s * rounds[i].to_reference());
      if (kind == Kind::kSibling)
        for (const auto& [name, v] : r.layer)
          from_sibling[name].values.push_back(v);
      if (kind != Kind::kTraced) continue;
      for (const auto& [name, v] : r.layer) samples[name].values.push_back(v);
      if (const auto it = self.find(static_cast<unsigned>(i));
          it != self.end())
        for (const auto& [layer, v] : it->second)
          samples[layer + ".self_s"].values.push_back(v);
    }
    // Metrics only the sibling gives (host phases and interval rows from
    // instrumented runs, the remote layer's) come from its rounds.
    for (const auto& [name, s] : from_sibling) samples.try_emplace(name, s);
    for (const auto& [name, v] : fixed_layer) samples[name].values = {v};
    samples["bench.probe_s"].values = probes;
    const double traced = quantile(walls[Kind::kTraced], 0.5);
    const double plain = quantile(walls[Kind::kPlain], 0.5);
    samples["trace.overhead_pct"].values = {100 * (traced / plain - 1)};
    if (workload == "detail") {
      const double obs = quantile(walls[Kind::kSibling], 0.5);
      samples["obs.overhead_pct"].values = {100 * (obs / plain - 1)};
    }
    fs::create_directories(trace_dir);
    const std::string path = trace_dir + "/" + workload + ".json";
    if (tracer.write_chrome_json(path))
      std::cout << "trace: " << path << "\n";
    else
      errors.push_back("cannot write " + path);
  }

  std::cout << workload << ": " << rounds.size() << " rounds, seed 0x"
            << std::hex << seed << std::dec << ", " << attempted
            << " operations, " << failed << " failed; host probe "
            << number(quantile(probes, 0.5)) << " s (reference "
            << kProbeReferenceSeconds << " s)\n";
  std::string metrics;
  for (const Metric& m : *table) {
    const Sample& s = samples[m.name];
    const double v = s.median();
    std::printf("  %-32s %14s %-10s n=%zu q1=%s q3=%s\n", m.name,
                number(v).c_str(), m.unit, s.values.size(),
                number(quantile(s.values, 0.25)).c_str(),
                number(quantile(s.values, 0.75)).c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + m.name + "\": {\"value\": " + number(v) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i)
    std::cerr << "check failed: " << errors[i] << "\n";
  if (errors.size() > 20)
    std::cerr << "... and " << errors.size() - 20 << " more\n";
  std::cout << "{\"correct\": " << (errors.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return errors.empty() ? 0 : 1;
}
