// bsp-sim: run a program (source, object file, or built-in workload) on the
// cycle-level bit-sliced core.
//
//   bsp-sim <program.{s,bspo} | workload> [options]
//     --slices N            1 (base), 2, 4, 8            [default 2]
//     --techniques SPEC     none | all | extended | comma list of
//                           bypass,ooo,branch,lsq,tag,specfwd,narrow
//     --instructions N      commit budget                [default 200000]
//     --warmup N            detail commits discarded before measuring
//     --fast-forward N      functional instructions skipped before detail
//     --checkpoint F        start from a captured BSPC state
//     --trace [START END]   pipeview trace of cycles [START, END)
//     --trace-perfetto F    Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev)
//     --trace-konata F      Konata pipeline log (github.com/shioyadan/Konata)
//     --interval-stats F    JSONL time-series of counter deltas
//     --interval N          sampling period in committed insns [default 10000]
//     --cpi-stack           charge every commit slot to a stall cause and
//                           print the CPI stack (obs/cpi_stack.hpp)
//     --cosim MODE          full | spot[:N] | off — oracle co-simulation
//                           cadence (core/simulator.hpp)  [default full]
//     --host-profile        report where host time went per scheduler phase,
//                           and the scheduler's host events per commit
//     --print-config        dump the machine configuration (Table 2) and
//                           its Figure-10 pipeline diagram first
//   Sampled simulation (src/sampling/): shard the measured region into K
//   intervals and simulate them in parallel, stitching the stats back
//   together with a confidence interval on the IPC estimate.
//     --sample-intervals K  interval count (0 = monolithic)   [default 0]
//     --sample-warmup N     per-interval warm-up commits      [default 2000]
//     --sample-jobs J       interval parallelism (0 = cores)
//     --sample-isolate M    thread | process                  [default thread]
//     --sample-out F        per-interval results as JSONL
//     --ckpt-cache DIR      shared BSPC checkpoint cache directory
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "asm/assembler.hpp"
#include "asm/objfile.hpp"
#include "campaign/ckpt_cache.hpp"
#include "core/simulator.hpp"
#include "emu/checkpoint.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/interval.hpp"
#include "obs/sinks.hpp"
#include "sampling/sampled.hpp"
#include "util/cli.hpp"
#include "util/subprocess.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace bsp;

std::optional<Program> load_input(const std::string& spec) {
  const auto ends_with = [&](const char* suffix) {
    const std::string s = suffix;
    return spec.size() > s.size() &&
           spec.compare(spec.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".bspo")) {
    std::string error;
    auto p = load_object_file(spec, &error);
    if (!p) std::cerr << "bsp-sim: " << error << "\n";
    return p;
  }
  if (ends_with(".s")) {
    std::ifstream in(spec);
    if (!in) {
      std::cerr << "bsp-sim: cannot open " << spec << "\n";
      return std::nullopt;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    AsmResult r = assemble(ss.str());
    if (!r.ok()) {
      std::cerr << spec << ":\n" << r.error_text();
      return std::nullopt;
    }
    return std::move(r.program);
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
    if (item == "bypass") set |= static_cast<unsigned>(Technique::PartialBypass);
    else if (item == "ooo") set |= static_cast<unsigned>(Technique::OooSlices);
    else if (item == "branch") set |= static_cast<unsigned>(Technique::EarlyBranch);
    else if (item == "lsq") set |= static_cast<unsigned>(Technique::EarlyLsq);
    else if (item == "tag") set |= static_cast<unsigned>(Technique::PartialTag);
    else if (item == "specfwd") set |= static_cast<unsigned>(Technique::SpecForward);
    else if (item == "narrow") set |= static_cast<unsigned>(Technique::NarrowWidth);
    else return std::nullopt;
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
  if (s.spec_forwards || s.narrow_operands)
    std::cout << "extensions:   " << s.spec_forwards << " spec forwards ("
              << s.spec_forward_misses << " refuted), " << s.narrow_operands
              << " narrow results\n";
}

void print_host_profile(const SimStats& s) {
  if (!s.host_profile.enabled) return;
  const obs::HostProfile& hp = s.host_profile;
  const double total = hp.total();
  const auto pct = [&](double v) {
    return total > 0 ? 100.0 * v / total : 0.0;
  };
  // Nested shares (co-sim inside commit, replay inside memory) say "of
  // total" explicitly so the parenthetical can't be misread as a share of
  // its parent phase; co-sim disappears when it never ran (--cosim off).
  char cosim[64] = "";
  if (hp.cosim > 0)
    std::snprintf(cosim, sizeof cosim, "  (co-sim %.1f%% of total)",
                  pct(hp.cosim));
  char replay[64] = "";
  if (hp.replay > 0)
    std::snprintf(replay, sizeof replay, "  (replay %.1f%% of total)",
                  pct(hp.replay));
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "host:         %.3fs wall, %.3fs in phases over %llu loop "
                "cycles\n"
                "  commit   %5.1f%%%s\n"
                "  resolve  %5.1f%%\n"
                "  select   %5.1f%%\n"
                "  memory   %5.1f%%%s\n"
                "  dispatch %5.1f%%\n"
                "  fetch    %5.1f%%\n",
                s.host_seconds, total,
                static_cast<unsigned long long>(hp.loop_cycles),
                pct(hp.commit), cosim, pct(hp.resolve),
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
                "%.5f sort fallbacks, %.5f far-wheel spills\n"
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
  TechniqueSet techniques = kAllTechniques;
  u64 instructions = 200'000;
  u64 warmup = 0;
  u64 fast_forward = 0;
  bool print_config = false;
  bool detail = false;
  bool trace = false;
  Cycle trace_start = 0, trace_end = 200;
  std::string perfetto_path, konata_path, interval_path;
  u64 interval = 10'000;
  bool host_profile = false;
  bool cpi_stack = false;
  SimOptions sim_opts;
  unsigned sample_intervals = 0;
  u64 sample_warmup = sampling::kDefaultSampleWarmup;
  unsigned sample_jobs = 0;
  bool sample_process = false;
  std::string sample_out, ckpt_cache;
  long sample_worker = -1;  // hidden: run one interval, print its JSONL

  // Original argv, re-forwarded verbatim to --sample-isolate process
  // workers (plus the resolved cache dir and the hidden worker flag).
  std::vector<std::string> raw_args(argv + 1, argv + argc);

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "bsp-sim: " << a << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--slices") {
      slices = parse_cli_unsigned(a, value());
      if (!SliceGeometry{slices}.valid()) {
        std::cerr << "bsp-sim: --slices must be 1, 2, 4 or 8, got " << slices
                  << "\n";
        return 2;
      }
    } else if (a == "--techniques") {
      const auto t = parse_techniques(value());
      if (!t) {
        std::cerr << "bsp-sim: bad technique spec\n";
        return 2;
      }
      techniques = *t;
    } else if (a == "--instructions" || a == "-n") {
      instructions = parse_cli_u64(a, value());
    } else if (a == "--warmup") {
      warmup = parse_cli_u64(a, value());
    } else if (a == "--fast-forward") {
      fast_forward = parse_cli_u64(a, value());
    } else if (a == "--sample-intervals") {
      sample_intervals = parse_cli_unsigned(a, value());
    } else if (a == "--sample-warmup") {
      sample_warmup = parse_cli_u64(a, value());
    } else if (a == "--sample-jobs") {
      sample_jobs = parse_cli_unsigned(a, value());
    } else if (a == "--sample-isolate") {
      const std::string mode = value();
      if (mode == "process") {
        sample_process = true;
      } else if (mode != "thread") {
        std::cerr << "bsp-sim: --sample-isolate must be thread or process\n";
        return 2;
      }
    } else if (a == "--sample-out") {
      sample_out = value();
    } else if (a == "--ckpt-cache") {
      ckpt_cache = value();
    } else if (a == "--sample-worker") {
      sample_worker = parse_cli_unsigned(a, value());
    } else if (a == "--checkpoint") {
      ckpt_path = value();
    } else if (a == "--trace") {
      trace = true;
      if (i + 2 < argc && argv[i + 1][0] != '-' && argv[i + 2][0] != '-') {
        trace_start = parse_cli_u64(a, argv[++i]);
        trace_end = parse_cli_u64(a, argv[++i]);
      }
    } else if (a == "--trace-perfetto") {
      perfetto_path = value();
    } else if (a == "--trace-konata") {
      konata_path = value();
    } else if (a == "--interval-stats") {
      interval_path = value();
    } else if (a == "--interval") {
      interval = parse_cli_u64(a, value());
      if (interval == 0) {
        std::cerr << "bsp-sim: --interval must be > 0\n";
        return 2;
      }
    } else if (a == "--host-profile") {
      host_profile = true;
    } else if (a == "--cpi-stack") {
      cpi_stack = true;
    } else if (a == "--cosim") {
      if (!parse_cosim(value(), &sim_opts)) {
        std::cerr << "bsp-sim: --cosim must be full, spot[:N], or off\n";
        return 2;
      }
    } else if (a == "--print-config") {
      print_config = true;
    } else if (a == "--detail") {
      detail = true;
    } else if (a == "-h" || a == "--help") {
      std::cout << "usage: bsp-sim <program.{s,bspo} | workload> "
                   "[--slices N] [--techniques SPEC] [-n N] [--warmup N] "
                   "[--fast-forward N] [--checkpoint in.bspc] "
                   "[--trace [START END]] "
                   "[--trace-perfetto out.json] [--trace-konata out.kanata] "
                   "[--interval-stats out.jsonl] [--interval N] "
                   "[--cpi-stack] [--host-profile] [--cosim MODE] "
                   "[--print-config] "
                   "[--sample-intervals K] [--sample-warmup N] "
                   "[--sample-jobs J] [--sample-isolate thread|process] "
                   "[--sample-out out.jsonl] [--ckpt-cache DIR]\n";
      return 0;
    } else if (!a.empty() && a[0] != '-' && input.empty()) {
      input = a;
    } else {
      std::cerr << "bsp-sim: unknown argument '" << a << "'\n";
      return 2;
    }
  }
  if (input.empty()) {
    std::cerr << "bsp-sim: no input (try --help)\n";
    return 2;
  }

  const auto program = load_input(input);
  if (!program) return 1;

  const MachineConfig cfg =
      slices == 1 ? base_machine() : bitsliced_machine(slices, techniques);
  if (print_config)
    std::cout << cfg.describe() << "Figure 10 pipeline: "
              << pipeline_diagram(cfg) << "\n\n";

  // Checkpoint-cache keying seed: bsp-sim builds workloads with the
  // default WorkloadParams seed, and the content hash carries correctness
  // anyway (the readable prefix is for humans).
  constexpr u64 kSeed = 0x5eed;

  // Hidden per-interval worker (--sample-isolate process protocol): the
  // parent re-execs itself with its own CLI plus this flag; the worker
  // recomputes the identical plan, restores its interval's checkpoint
  // from the shared cache, simulates it, and prints one JSONL line.
  if (sample_worker >= 0) {
    const sampling::SamplePlan plan = sampling::plan_intervals(
        instructions, warmup, fast_forward, sample_intervals, sample_warmup);
    if (static_cast<std::size_t>(sample_worker) >= plan.intervals.size()) {
      std::cerr << "bsp-sim: --sample-worker index out of range\n";
      return 2;
    }
    const sampling::IntervalSpec spec =
        plan.intervals[static_cast<std::size_t>(sample_worker)];
    std::optional<Checkpoint> start;
    if (spec.offset > 0) {
      const std::string path = campaign::checkpoint_cache_path(
          ckpt_cache, input, kSeed, campaign::ImageHash(*program),
          spec.offset);
      std::string error;
      start = load_checkpoint_file(path, &error);
      if (!start) {
        sampling::IntervalResult fail;
        fail.spec = spec;
        fail.error = "cannot load interval checkpoint: " + error;
        std::cout << sampling::interval_to_jsonl(fail) << "\n";
        return 1;
      }
    }
    const sampling::IntervalResult r = sampling::run_one_interval(
        cfg, *program, spec, start ? &*start : nullptr, host_profile,
        cpi_stack, sim_opts);
    std::cout << sampling::interval_to_jsonl(r) << "\n";
    return r.ok() ? 0 : 1;
  }

  if (sample_intervals > 0) {
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
    sampling::SampleOptions opts;
    opts.intervals = sample_intervals;
    opts.warmup = sample_warmup;
    opts.jobs = sample_jobs;
    opts.host_profile = host_profile;
    opts.cpi_stack = cpi_stack;
    opts.sim = sim_opts;  // process workers get it via the forwarded argv
    opts.ckpt_cache_dir = ckpt_cache;
    if (sample_process) {
      if (ckpt_cache.empty()) {
        // Workers are separate processes: they restore from disk, so
        // materialise the cache in a throwaway directory.
        char tmpl[] = "/tmp/bsp-sample-XXXXXX";
        const char* dir = ::mkdtemp(tmpl);
        if (!dir) {
          std::cerr << "bsp-sim: cannot create temporary checkpoint cache\n";
          return 1;
        }
        ckpt_cache = dir;
        opts.ckpt_cache_dir = ckpt_cache;
      }
      opts.worker_cmd.push_back(self_exe_path(argv[0]));
      opts.worker_cmd.insert(opts.worker_cmd.end(), raw_args.begin(),
                             raw_args.end());
      // Later flags win in the parse loop, so re-appending the resolved
      // cache dir overrides whatever the original argv said.
      opts.worker_cmd.push_back("--ckpt-cache");
      opts.worker_cmd.push_back(ckpt_cache);
      opts.worker_cmd.push_back("--sample-worker");
      // run_sampled appends the interval index as the final argument.
    }
    const sampling::SampledResult res =
        sampling::run_sampled(cfg, *program, input, kSeed, instructions,
                              warmup, fast_forward, opts);
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
    if (cpi_stack)
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
                  res.ckpt_materialised, res.ckpt_reused, res.ipc.mean,
                  res.ipc.ci95, res.ipc.weighted, res.ipc.n, res.wall_sec,
                  res.prewarm_sec, res.aggregate.host_seconds);
    std::cout << buf;
    return res.exited ? res.exit_code : 0;
  }

  std::optional<Checkpoint> ckpt;
  if (!ckpt_path.empty()) {
    std::string error;
    ckpt = load_checkpoint_file(ckpt_path, &error);
    if (!ckpt) {
      std::cerr << "bsp-sim: " << error << "\n";
      return 1;
    }
  }
  if (fast_forward > 0) {
    if (ckpt) {
      std::cerr << "bsp-sim: --checkpoint and --fast-forward are mutually "
                   "exclusive\n";
      return 2;
    }
    // Through the campaign cache when --ckpt-cache is given (publishes for
    // later runs), a plain emulator fast-forward otherwise.
    campaign::CkptFetch fetch = campaign::fetch_checkpoint(
        ckpt_cache, input, kSeed, *program, fast_forward);
    if (!fetch.ok()) {
      std::cerr << "bsp-sim: " << fetch.error << "\n";
      return 1;
    }
    ckpt = *fetch.checkpoint;
  }
  Simulator sim = ckpt ? Simulator(cfg, *program, *ckpt)
                       : Simulator(cfg, *program);
  if (trace) sim.set_pipe_trace(std::cout, trace_start, trace_end);
  if (detail) sim.enable_detail();
  if (host_profile) sim.enable_host_profile();
  if (cpi_stack) sim.enable_cpi_stack();
  sim.set_options(sim_opts);

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

  const SimResult r = sim.run(instructions, warmup);
  if (!r.ok()) {
    std::cerr << "bsp-sim: " << r.error << "\n";
    return 1;
  }
  const SimStats& s = r.stats;
  print_stats(s);
  if (cpi_stack) std::cout << obs::format_cpi_stack(s, cfg.core.commit_width);
  print_host_profile(s);
  if (host_profile) print_host_events(sim.host_events(), s.committed);
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
