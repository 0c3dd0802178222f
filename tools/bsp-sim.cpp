// bsp-sim: run a program (source, object file, or built-in workload) on the
// cycle-level bit-sliced core.
//
//   bsp-sim <program.{s,bspo} | workload> [options]      (--help lists them)
//
// The run knobs bsp-sweep shares (--host-profile, --cpi-stack,
// --ckpt-cache) come from the campaign::RunnerOptions registry;
// --interval-stats here streams a monolithic run's time-series to a file
// instead. With --sample-intervals K the measured region is sharded into K
// intervals simulated in parallel (src/sampling/) and stitched back with a
// confidence interval on the IPC estimate.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <vector>

#include "asm/objfile.hpp"
#include "campaign/campaign.hpp"
#include "campaign/ckpt_cache.hpp"
#include "core/simulator.hpp"
#include "emu/checkpoint.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/interval.hpp"
#include "obs/sinks.hpp"
#include "sampling/sampled.hpp"
#include "util/cli.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace bsp;

std::optional<Program> load_input(const std::string& spec) {
  const auto ends_with = [&](const char* suffix) {
    const std::string s = suffix;
    return spec.size() > s.size() &&
           spec.compare(spec.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".bspo") || ends_with(".s")) {
    std::string error;
    auto p = load_program_file(spec, &error);
    if (!p) std::cerr << "bsp-sim: " << error << "\n";
    return p;
  }
  try {
    return build_workload(spec).program;
  } catch (const std::exception& e) {
    std::cerr << "bsp-sim: " << e.what() << "\n";
    return std::nullopt;
  }
}

std::optional<TechniqueSet> parse_techniques(const std::string& spec) {
  if (spec == "none") return kNoTechniques;
  if (spec == "all") return kAllTechniques;
  if (spec == "extended") return kExtendedTechniques;
  TechniqueSet set = kNoTechniques;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto row =
        std::find_if(std::begin(kTechniqueTable), std::end(kTechniqueTable),
                     [&](const TechniqueInfo& r) { return item == r.token; });
    if (row == std::end(kTechniqueTable)) return std::nullopt;
    set |= static_cast<unsigned>(row->technique);
  }
  return set;
}

// The headline stats block — shared verbatim between the monolithic run
// and the sampled aggregate, so a 1-interval sampled run's output diffs
// clean against the monolithic run (the CI smoke relies on this).
void print_stats(const SimStats& s) {
  std::cout << "instructions: " << s.committed << "\n"
            << "cycles:       " << s.cycles << "\n"
            << "IPC:          " << s.ipc() << "\n"
            << "branches:     " << s.branches << " ("
            << 100.0 * s.branch_accuracy() << "% predicted)\n"
            << "loads:        " << s.loads << " (" << s.load_forwards
            << " forwarded, " << s.loads_issued_partial_lsq
            << " issued on partial bits)\n"
            << "L1D:          " << s.l1d_hits << " hits / " << s.l1d_misses
            << " misses\n"
            << "replays:      " << s.load_replays << " loads, "
            << s.op_replays << " slice-ops, " << s.way_mispredicts
            << " way mispredicts\n"
            << "early:        " << s.early_resolved_branches
            << " branch resolutions, " << s.early_miss_detects
            << " miss detects\n";
  if (s.narrow_operands)
    std::cout << "extensions:   " << s.narrow_operands << " narrow results\n";
}

void print_host_profile(const SimStats& s) {
  if (!s.host_profile.enabled) return;
  const obs::HostProfile& hp = s.host_profile;
  const double total = hp.total();
  const auto pct = [&](double v) {
    return total > 0 ? 100.0 * v / total : 0.0;
  };
  // The nested share (replay inside memory) says "of total" explicitly so
  // the parenthetical can't be misread as a share of its parent phase.
  char replay[64] = "";
  if (hp.replay > 0)
    std::snprintf(replay, sizeof replay, "  (replay %.1f%% of total)",
                  pct(hp.replay));
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "host:         %.3fs wall, %.3fs in phases over %llu loop "
                "cycles\n"
                "  commit   %5.1f%%\n"
                "  resolve  %5.1f%%\n"
                "  select   %5.1f%%\n"
                "  memory   %5.1f%%%s\n"
                "  dispatch %5.1f%%\n"
                "  fetch    %5.1f%%\n",
                s.host_seconds, total,
                static_cast<unsigned long long>(hp.loop_cycles),
                pct(hp.commit), pct(hp.resolve),
                pct(hp.select), pct(hp.memory), replay,
                pct(hp.dispatch), pct(hp.fetch));
  std::cout << buf;
}

// Scheduler host events per measured commit (Simulator::host_events()):
// with the phase shares above, host time decomposes into events/commit x
// ns/event.
void print_host_events(const HostEvents& ev, u64 committed) {
  const double n = committed ? static_cast<double>(committed) : 1.0;
  const auto per = [&](u64 v) { return static_cast<double>(v) / n; };
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "host events per commit: %.3f queue_op, %.3f wakes, %.3f "
                "waiter visits (%.3f re-registered, %.3f on the same list)\n"
                "  %.3f select candidates (%.3f dead), %.3f selections, "
                "%.5f sort fallbacks, %.5f far-tier spills\n"
                "  %.3f LSQ visits, %.3f branch checks (%.3f per resolved "
                "branch)\n",
                per(ev.queue_ops), per(ev.wakes), per(ev.waiter_visits),
                per(ev.reregisters), per(ev.same_list_reregisters),
                per(ev.select_candidates), per(ev.dead_candidates),
                per(ev.selections), per(ev.sort_fallbacks),
                per(ev.far_spills), per(ev.lsq_visits),
                per(ev.branch_checks),
                ev.branch_resolves ? static_cast<double>(ev.branch_checks) /
                                         static_cast<double>(ev.branch_resolves)
                                   : 0.0);
  std::cout << buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input, ckpt_path;
  unsigned slices = 2;
  std::string techniques_spec = "all";
  // The run's budgets and sampled shape; workload and seed are set below.
  campaign::TaskSpec task;
  task.warmup = 0;
  bool print_config = false;
  bool detail = false;
  bool trace = false;
  Cycle trace_start = 0, trace_end = 200;
  std::string perfetto_path, konata_path, interval_path;
  u64 interval = 10'000;
  unsigned sample_jobs = 0;
  std::string sample_out;
  campaign::RunnerOptions run;

  ArgParser parser(
      "bsp-sim: run a program on the cycle-level bit-sliced core\n\n"
      "usage: bsp-sim <program.{s,bspo} | workload> [options]");
  parser.set_positional([&](const std::string& a) {
    if (!input.empty()) {
      std::cerr << "bsp-sim: unexpected argument '" << a << "'\n";
      std::exit(2);
    }
    input = a;
  });
  parser.add_value("--slices", "N", "1 (base), 2, 4 or 8 (default 2)",
                   &slices);
  std::string tokens;
  for (const TechniqueInfo& row : kTechniqueTable)
    tokens += (tokens.empty() ? "" : ",") + std::string(row.token);
  parser.add_value("--techniques", "SPEC",
                   "none | all | extended | comma list of " + tokens +
                       " (default all)",
                   &techniques_spec);
  parser.add_value("-n, --instructions", "N",
                   "measured commit budget (default 200000)",
                   &task.instructions);
  parser.add_value("--warmup", "N",
                   "detail commits discarded before measuring", &task.warmup);
  parser.add_value("--fast-forward", "N",
                   "functional instructions skipped before detail",
                   &task.fast_forward);
  campaign::add_sample_flags(parser, &task.sample_intervals,
                             &task.sample_warmup);
  parser.add_value("--checkpoint", "FILE",
                   "start from a captured BSPC state", &ckpt_path);
  parser.add_optional_values(
      "--trace", "[START END]",
      "pipeview trace of cycles [START, END) (default 0 200)", 2,
      [&](const std::vector<std::string>& v) {
        trace = true;
        if (v.empty()) return;
        trace_start = parse_cli_u64("--trace", v[0]);
        trace_end = parse_cli_u64("--trace", v[1]);
      });
  parser.add_value("--trace-perfetto", "FILE",
                   "Chrome trace-event JSON (chrome://tracing, "
                   "ui.perfetto.dev)",
                   &perfetto_path);
  parser.add_value("--trace-konata", "FILE",
                   "Konata pipeline log (github.com/shioyadan/Konata)",
                   &konata_path);
  parser.add_value("--interval-stats", "FILE",
                   "JSONL time-series of counter deltas", &interval_path);
  parser.add_value("--interval", "N",
                   "--interval-stats period in committed instructions "
                   "(default 10000)",
                   &interval);
  parser.add_flag("--print-config",
                  "dump the machine configuration (Table 2) and its "
                  "Figure-10 pipeline diagram first",
                  &print_config);
  parser.add_flag("--detail",
                  "print occupancy, load-to-use, branch-resolve and "
                  "commit-width distributions",
                  &detail);
  add_run_option_flags(parser, &run, {"interval"});
  parser.add_value("--sample-jobs", "J",
                   "sampled-interval parallelism (0 = cores)", &sample_jobs);
  parser.add_value("--sample-out", "FILE", "per-interval results as JSONL",
                   &sample_out);
  parser.parse(argc, argv);
  if (input.empty()) {
    std::cerr << "bsp-sim: no input (try --help)\n";
    return 2;
  }
  if (!SliceGeometry{slices}.valid()) {
    std::cerr << "bsp-sim: --slices must be 1, 2, 4 or 8, got " << slices
              << "\n";
    return 2;
  }
  const auto techniques = parse_techniques(techniques_spec);
  if (!techniques) {
    std::cerr << "bsp-sim: bad technique spec\n";
    return 2;
  }
  if (interval == 0) {
    std::cerr << "bsp-sim: --interval must be > 0\n";
    return 2;
  }

  const auto program = load_input(input);
  if (!program) return 1;

  const MachineConfig cfg =
      slices == 1 ? base_machine() : bitsliced_machine(slices, *techniques);
  if (print_config)
    std::cout << cfg.describe() << "Figure 10 pipeline: "
              << pipeline_diagram(cfg) << "\n\n";

  task.workload = input;
  // Checkpoint-cache keying seed: bsp-sim builds workloads with the
  // default WorkloadParams seed, and the content hash carries correctness
  // anyway (the readable prefix is for humans).
  task.seed = 0x5eed;

  if (task.sample_intervals > 0) {
    if (!ckpt_path.empty()) {
      std::cerr << "bsp-sim: --checkpoint cannot be combined with sampled "
                   "simulation (use --fast-forward)\n";
      return 2;
    }
    if (trace || detail || !perfetto_path.empty() || !konata_path.empty() ||
        !interval_path.empty()) {
      std::cerr << "bsp-sim: tracing/--detail/--interval-stats describe one "
                   "monolithic run; drop --sample-intervals\n";
      return 2;
    }
  }
  if (!ckpt_path.empty() && task.fast_forward > 0) {
    std::cerr << "bsp-sim: --checkpoint and --fast-forward are mutually "
                 "exclusive\n";
    return 2;
  }
  std::optional<Checkpoint> loaded;  // --checkpoint
  if (!ckpt_path.empty()) {
    std::string error;
    loaded = load_checkpoint_file(ckpt_path, &error);
    if (!loaded) {
      std::cerr << "bsp-sim: " << error << "\n";
      return 1;
    }
  }
  // Every start state the run needs, through the campaign cache when
  // --ckpt-cache is given (publishes for later runs), a plain emulator
  // fast-forward otherwise.
  const WallTimer wall;
  const campaign::CheckpointSet ckpts = campaign::materialise_checkpoints(
      *program, input, task.seed, campaign::checkpoint_offsets(task),
      run.ckpt_cache_dir);
  if (const std::string why = ckpts.failure(task.fast_forward);
      !why.empty()) {
    std::cerr << "bsp-sim: " << why << "\n";
    return 1;
  }

  if (task.sample_intervals > 0) {
    const sampling::SampledResult res = sampling::run_intervals(
        task, cfg, *program, ckpts, run, sample_jobs);
    if (!sample_out.empty()) {
      std::ofstream os(sample_out);
      if (!os) {
        std::cerr << "bsp-sim: cannot open " << sample_out
                  << " for writing\n";
        return 1;
      }
      for (const sampling::IntervalResult& r : res.intervals)
        os << sampling::interval_to_jsonl(r) << "\n";
    }
    if (!res.ok()) {
      std::cerr << "bsp-sim: " << res.error << "\n";
      return 1;
    }
    print_stats(res.aggregate);
    // The leaves are registered counters, so the stitched aggregate keeps
    // the accounting identity across shards.
    if (run.cpi_stack)
      std::cout << obs::format_cpi_stack(res.aggregate,
                                         cfg.core.commit_width);
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "sampled:      %zu intervals, warmup %llu, %zu ckpts "
                  "materialised, %zu reused\n"
                  "IPC estimate: %.6f +/- %.6f (weighted %.6f, n=%u)\n"
                  "wall:         %.3fs total (%.3fs prewarm, %.3fs serial "
                  "detail)\n",
                  res.plan.intervals.size(),
                  static_cast<unsigned long long>(res.plan.sample_warmup),
                  ckpts.materialised, ckpts.reused, res.ipc.mean,
                  res.ipc.ci95, res.ipc.weighted, res.ipc.n, wall.seconds(),
                  ckpts.ffwd_sec, res.aggregate.host_seconds);
    std::cout << buf;
    return res.exited ? res.exit_code : 0;
  }

  const Checkpoint* start =
      loaded ? &*loaded : ckpts.start(task.fast_forward);
  Simulator sim(cfg, *program, start);
  if (detail) sim.enable_detail();
  if (run.host_profile) sim.enable_host_profile();
  if (run.cpi_stack) sim.enable_cpi_stack();

  // Structured sinks and the interval sampler stream straight to their
  // files; the ofstreams must outlive run().
  const auto open_out = [](const std::string& path) {
    auto os = std::make_unique<std::ofstream>(path);
    if (!*os) {
      std::cerr << "bsp-sim: cannot open " << path << " for writing\n";
      std::exit(1);
    }
    return os;
  };
  std::unique_ptr<std::ofstream> perfetto_os, konata_os, interval_os;
  std::unique_ptr<obs::ChromeTraceSink> perfetto_sink;
  std::unique_ptr<obs::KonataSink> konata_sink;
  std::unique_ptr<obs::IntervalSampler> sampler;
  obs::PipeTextSink pipe_sink(std::cout, trace_start, trace_end);
  if (trace) sim.add_trace_sink(&pipe_sink);
  if (!perfetto_path.empty()) {
    perfetto_os = open_out(perfetto_path);
    perfetto_sink = std::make_unique<obs::ChromeTraceSink>(*perfetto_os);
    sim.add_trace_sink(perfetto_sink.get());
  }
  if (!konata_path.empty()) {
    konata_os = open_out(konata_path);
    konata_sink = std::make_unique<obs::KonataSink>(*konata_os);
    sim.add_trace_sink(konata_sink.get());
  }
  if (!interval_path.empty()) {
    interval_os = open_out(interval_path);
    sampler = std::make_unique<obs::IntervalSampler>(interval,
                                                     interval_os.get());
    sim.set_interval_sampler(sampler.get());
  }

  const SimResult r = sim.run(task.instructions, task.warmup);
  if (!r.ok()) {
    std::cerr << "bsp-sim: " << r.error << "\n";
    return 1;
  }
  const SimStats& s = r.stats;
  print_stats(s);
  if (run.cpi_stack)
    std::cout << obs::format_cpi_stack(s, cfg.core.commit_width);
  print_host_profile(s);
  if (run.host_profile) print_host_events(sim.host_events(), s.committed);
  if (detail) {
    const DetailedStats& d = sim.detail();
    const auto line = [](const char* name, const Histogram& h) {
      std::cout << "  " << name << ": mean " << h.mean() << ", p50 "
                << h.percentile(0.5) << ", p90 " << h.percentile(0.9)
                << ", p99 " << h.percentile(0.99) << "\n";
    };
    std::cout << "distributions:\n";
    line("RUU occupancy      ", d.ruu_occupancy);
    line("LSQ occupancy      ", d.lsq_occupancy);
    line("load-to-use cycles ", d.load_to_use);
    line("branch resolve dly ", d.branch_resolve_delay);
    line("commits per cycle  ", d.commit_width);
  }
  return r.exited ? r.exit_code : 0;
}
