#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "campaign/builtin.hpp"
#include "campaign/campaign.hpp"
#include "campaign/remote.hpp"
#include "core/simulator.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/interval.hpp"
#include "sampling/sampled.hpp"
#include "stats/stats.hpp"
#include "util/parallel.hpp"
#include "workloads/workloads.hpp"

namespace bench {
namespace {

namespace fs = std::filesystem;
using bsp::SimStats;
using bsp::campaign::TaskRunner;

// Simulation threads per run; the benchmark host has 4 vCPUs.
constexpr unsigned kJobs = 4;

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// One simulated run as the core layer's metrics see it.
struct CoreSample {
  std::string kernel;
  std::string machine;  // "base", "x2" or "x4"
  const SimStats* stats;
};

// core.* metrics: host time in Simulator::run (warm-up included) per
// measured commit and cycle, by machine and by kernel, plus the scheduler's
// event ratios and, when profiled, the host-phase shares.
void add_core_metrics(const std::vector<CoreSample>& samples,
                      std::map<std::string, double>* layer) {
  struct Sum {
    double host = 0;
    u64 commits = 0;
  };
  Sum all;
  std::map<std::string, Sum> by_group;
  u64 cycles = 0, idle = 0, dispatched = 0, op_replays = 0, load_replays = 0;
  bsp::obs::HostProfile profile;
  for (const CoreSample& s : samples) {
    const SimStats& st = *s.stats;
    for (Sum* sum : {&all, &by_group[s.machine], &by_group[s.kernel]}) {
      sum->host += st.host_seconds;
      sum->commits += st.committed;
    }
    cycles += st.cycles;
    idle += st.idle_cycles_skipped;
    dispatched += st.dispatched + st.bogus_dispatched;
    op_replays += st.op_replays;
    load_replays += st.load_replays;
    if (st.host_profile.enabled) profile.merge(st.host_profile);
  }
  auto& m = *layer;
  m["core.run_s"] = all.host;
  m["core.commits"] = static_cast<double>(all.commits);
  m["core.cycles"] = static_cast<double>(cycles);
  m["core.ns_per_commit"] = 1e9 * ratio(all.host, all.commits);
  m["core.ns_per_cycle"] = 1e9 * ratio(all.host, cycles);
  for (const auto& [group, sum] : by_group)
    m["core." + group + ".ns_per_commit"] = 1e9 * ratio(sum.host, sum.commits);
  m["core.idle_skip_frac"] = ratio(idle, cycles);
  m["core.dispatch_useful_frac"] = ratio(all.commits, dispatched);
  m["core.op_replays_per_kcommit"] = 1e3 * ratio(op_replays, all.commits);
  m["core.load_replays_per_kcommit"] = 1e3 * ratio(load_replays, all.commits);
  if (profile.enabled) {
    const double total = profile.total();
    const std::pair<const char*, double> phases[] = {
        {"commit", profile.commit}, {"resolve", profile.resolve},
        {"select", profile.select}, {"memory", profile.memory},
        {"dispatch", profile.dispatch}, {"fetch", profile.fetch},
        {"cosim", profile.cosim}, {"replay", profile.replay}};
    for (const auto& [name, sec] : phases)
      m[std::string("core.phase.") + name + "_share"] = ratio(sec, total);
    m["core.ns_per_loop_cycle"] = 1e9 * ratio(total, profile.loop_cycles);
  }
}

// ---------------------------------------------------------------------------
// detail, detail-obs: single-threaded monolithic runs, timing core only.

struct DetailMachine {
  const char* label;
  bsp::MachineConfig config;
};

std::vector<DetailMachine> detail_machines() {
  return {{"base", bsp::base_machine()},
          {"x2", bsp::bitsliced_machine(2, bsp::kAllTechniques)},
          {"x4", bsp::bitsliced_machine(4, bsp::kAllTechniques)}};
}

// Compute-dense, pointer-chasing, memory-bound (long idle skips) and
// replay-heavy kernels.
const std::vector<std::string> kDetailKernels = {"gzip", "li", "mcf",
                                                 "vortex"};

class Detail : public BenchWorkload {
 public:
  explicit Detail(bool instruments) : instruments_(instruments) {}

  std::string golden_section() const override { return "detail"; }
  unsigned threads() const override { return 1; }

  Round round(const RoundCtx& ctx) override {
    const Sizes& z = ctx.sizes;
    const auto machines = detail_machines();
    bsp::WorkloadParams params;
    params.seed = ctx.seed;
    Round out;

    struct Run {
      std::string kernel, machine;
      unsigned width = 0;
      std::unique_ptr<bsp::Simulator> sim;
      std::unique_ptr<bsp::obs::IntervalSampler> sampler;
      bsp::SimResult result;
    };
    std::vector<bsp::Workload> programs;
    std::vector<Run> runs;
    double build_s = 0, construct_s = 0;
    const bsp::WallTimer setup;
    for (const std::string& k : kDetailKernels) {
      const Span span(ctx.tracer, "workloads.build_workload", {k});
      const bsp::WallTimer t;
      programs.push_back(bsp::build_workload(k, params));
      build_s += t.seconds();
    }
    for (std::size_t ki = 0; ki < kDetailKernels.size(); ++ki)
      for (const DetailMachine& m : machines) {
        Run r;
        r.kernel = kDetailKernels[ki];
        r.machine = m.label;
        r.width = m.config.core.commit_width;
        const Span span(ctx.tracer, "core.Simulator",
                        {r.kernel, r.machine});
        const bsp::WallTimer t;
        r.sim = std::make_unique<bsp::Simulator>(m.config,
                                                 programs[ki].program);
        if (instruments_) {
          r.sim->enable_cpi_stack();
          r.sim->enable_host_profile();
          r.sampler =
              std::make_unique<bsp::obs::IntervalSampler>(z.detail_interval);
          r.sim->set_interval_sampler(r.sampler.get());
        }
        construct_s += t.seconds();
        runs.push_back(std::move(r));
      }
    out.setup_s = setup.seconds();

    const bsp::WallTimer wall;
    for (Run& r : runs) {
      const Span span(ctx.tracer, "core.run",
                      {r.kernel, r.machine});
      r.result = r.sim->run(z.detail_measured, z.detail_warmup);
    }
    out.wall_s = wall.seconds();

    std::vector<CoreSample> samples;
    u64 rows = 0, identity_ok = 0;
    for (const Run& r : runs) {
      const SimStats& st = r.result.stats;
      ++out.ops;
      const std::string key = r.kernel + "/" + r.machine;
      if (!r.result.ok()) {
        ++out.failed;
        out.errors.push_back(key + ": " + r.result.error);
        continue;
      }
      out.commits += st.committed;
      out.prints[key] = fingerprint(st);
      samples.push_back({r.kernel, r.machine, &st});
      if (instruments_) {
        rows += r.sampler->rows().size();
        std::string why;
        if (bsp::obs::cpi_identity_holds(st, r.width, &why))
          ++identity_ok;
        else
          out.errors.push_back(key + ": CPI identity broken: " + why);
      }
    }
    add_core_metrics(samples, &out.layer);
    out.layer["workloads.build_s"] = build_s;
    out.layer["workloads.builds"] = static_cast<double>(programs.size());
    out.layer["core.construct_s"] = construct_s;
    if (instruments_) {
      out.layer["obs.interval_rows"] = static_cast<double>(rows);
      out.layer["obs.cpi_identity_frac"] =
          ratio(static_cast<double>(identity_ok), runs.size());
    }
    return out;
  }

  // One instrumented round (detail-obs). Instruments must not perturb the
  // run: every non-cpi_* counter equals the plain round's, and the CPI
  // identity holds on every run. Its fingerprints join the golden section
  // as "obs/<run key>".
  void check(const RoundCtx& ctx, const Round& first, Prints* prints,
             std::map<std::string, double>*,
             std::vector<std::string>* errors) override {
    const Round obs = Detail(true).round(ctx);
    errors->insert(errors->end(), obs.errors.begin(), obs.errors.end());
    compare_prints(first.prints, obs.prints, "instrumented vs plain detail",
                   /*nocpi=*/true, errors);
    for (const auto& [key, print] : obs.prints) (*prints)["obs/" + key] = print;
  }

 private:
  bool instruments_;
};

// ---------------------------------------------------------------------------
// sampled-k8: K=8 sampled runs of six kernels on the x2 full stack.

constexpr unsigned kSampleIntervals = 8;
// bzip and mcf carry the cold-start bias; li and parser are unbiased.
const std::vector<std::string> kSampledKernels = {"bzip",   "mcf",  "li",
                                                  "parser", "gzip", "vortex"};

class Sampled : public BenchWorkload {
 public:
  std::string golden_section() const override { return "sampled-k8"; }
  unsigned threads() const override { return kJobs; }

  Round round(const RoundCtx& ctx) override {
    const Sizes& z = ctx.sizes;
    const bsp::MachineConfig cfg =
        bsp::bitsliced_machine(2, bsp::kAllTechniques);
    bsp::WorkloadParams params;
    params.seed = ctx.seed;
    const std::string ckpt = ctx.dir + "/ckpt";
    Round out;

    std::vector<bsp::Workload> programs;
    double build_s = 0, ffwd_s = 0;
    u64 ffwd_instrs = 0, materialised = 0;
    const bsp::WallTimer setup;
    for (const std::string& k : kSampledKernels) {
      {
        const Span span(ctx.tracer, "workloads.build_workload", {k});
        const bsp::WallTimer t;
        programs.push_back(bsp::build_workload(k, params));
        build_s += t.seconds();
      }
      const bsp::sampling::SamplePlan plan = bsp::sampling::plan_intervals(
          z.sampled_measured, z.sampled_warmup, 0, kSampleIntervals,
          z.sampled_interval_warmup);
      const Span span(ctx.tracer,
                      "sampling.materialise_interval_checkpoints",
                      {k});
      const auto pr = bsp::sampling::materialise_interval_checkpoints(
          programs.back().program, k, ctx.seed, plan, ckpt);
      if (!pr.ok()) out.errors.push_back(k + ": prewarm: " + pr.error);
      ffwd_s += pr.ffwd_sec;
      materialised += pr.materialised;
      // One incremental functional pass runs up to the last offset.
      ffwd_instrs += plan.intervals.back().offset;
    }
    out.setup_s = setup.seconds();

    bsp::sampling::SampleOptions opts;
    opts.intervals = kSampleIntervals;
    opts.warmup = z.sampled_interval_warmup;
    opts.jobs = kJobs;
    opts.ckpt_cache_dir = ckpt;
    std::vector<bsp::sampling::SampledResult> results;
    const bsp::WallTimer wall;
    for (std::size_t ki = 0; ki < kSampledKernels.size(); ++ki) {
      const Span span(ctx.tracer, "sampling.run_sampled",
                      {kSampledKernels[ki], "x2"});
      results.push_back(bsp::sampling::run_sampled(
          cfg, programs[ki].program, kSampledKernels[ki], ctx.seed,
          z.sampled_measured, z.sampled_warmup, 0, opts));
    }
    out.wall_s = wall.seconds();

    std::vector<CoreSample> samples;
    std::vector<double> interval_s;
    double prewarm_s = 0, detail_s = 0, workers_wall = 0;
    u64 interval_commits = 0, warm = 0, detailed = 0;
    for (std::size_t ki = 0; ki < results.size(); ++ki) {
      const std::string& k = kSampledKernels[ki];
      const auto& sr = results[ki];
      if (!sr.ok()) out.errors.push_back(k + ": " + sr.error);
      prewarm_s += sr.prewarm_sec;
      workers_wall += sr.wall_sec - sr.prewarm_sec;
      estimates_[k] = sr.ipc;
      for (const auto& iv : sr.intervals) {
        ++out.ops;
        const std::string key = k + "/i" + std::to_string(iv.spec.index);
        if (!iv.measured()) {
          ++out.failed;
          out.errors.push_back(key + ": " +
                               (iv.skipped ? "skipped" : iv.error));
          continue;
        }
        out.commits += iv.stats.committed;
        out.prints[key] = fingerprint(iv.stats);
        samples.push_back({k, "x2", &iv.stats});
        interval_s.push_back(iv.host_sec);
        detail_s += iv.host_sec;
        interval_commits += iv.stats.committed;
        warm += iv.spec.warmup;
        detailed += iv.spec.warmup + iv.spec.commits;
      }
    }
    add_core_metrics(samples, &out.layer);
    auto& m = out.layer;
    m["workloads.build_s"] = build_s;
    m["workloads.builds"] = static_cast<double>(programs.size());
    m["emu.ffwd_s"] = ffwd_s;
    m["emu.ffwd_instrs"] = static_cast<double>(ffwd_instrs);
    m["emu.ffwd_mips"] = 1e-6 * ratio(ffwd_instrs, ffwd_s);
    m["sampling.ckpt_materialised"] = static_cast<double>(materialised);
    m["sampling.prewarm_s"] = prewarm_s;
    m["sampling.detail_s"] = detail_s;
    m["sampling.interval_s_p50"] = quantile(interval_s, 0.5);
    m["sampling.interval_s_max"] = quantile(interval_s, 1.0);
    m["sampling.parallel_eff"] = ratio(detail_s, kJobs * workers_wall);
    m["sampling.interval_ns_per_commit"] =
        1e9 * ratio(detail_s, interval_commits);
    m["sampling.warmup_frac"] = ratio(warm, detailed);
    return out;
  }

  // Monolithic reference per kernel: the sampled estimate's error against
  // it, and whether its CI95 contains it.
  void check(const RoundCtx& ctx, const Round&, Prints* prints,
             std::map<std::string, double>* layer,
             std::vector<std::string>* errors) override {
    const bsp::MachineConfig cfg =
        bsp::bitsliced_machine(2, bsp::kAllTechniques);
    bsp::WorkloadParams params;
    params.seed = ctx.seed;
    const auto mono = bsp::parallel_map<bsp::SimResult>(
        kSampledKernels.size(),
        [&](std::size_t i) {
          const auto w = bsp::build_workload(kSampledKernels[i], params);
          return bsp::simulate(cfg, w.program, ctx.sizes.sampled_measured,
                               ctx.sizes.sampled_warmup);
        },
        kJobs);
    double host = 0, err_max = 0, ci_miss = 0;
    u64 commits = 0;
    for (std::size_t i = 0; i < mono.size(); ++i) {
      const std::string& k = kSampledKernels[i];
      if (!mono[i].ok()) {
        errors->push_back(k + "/mono: " + mono[i].error);
        continue;
      }
      const SimStats& st = mono[i].stats;
      (*prints)[k + "/mono"] = fingerprint(st);
      host += st.host_seconds;
      commits += st.committed;
      const auto& est = estimates_[k];
      const double gap = std::abs(est.mean - st.ipc());
      const double err = 100 * ratio(gap, st.ipc());
      (*layer)["sampling." + k + ".err_pct"] = err;
      err_max = std::max(err_max, err);
      if (gap > est.ci95) ++ci_miss;
    }
    (*layer)["sampling.err_pct_max"] = err_max;
    (*layer)["sampling.ci_miss"] = ci_miss;
    (*layer)["sampling.mono_ns_per_commit"] = 1e9 * ratio(host, commits);
  }

 private:
  std::map<std::string, bsp::sampling::IpcEstimate> estimates_;
};

// ---------------------------------------------------------------------------
// sweep-thread, sweep-process, sweep-serve: the fig11 campaign.

enum class Isolation { kThread, kProcess, kServe };

// Suite-average IPC change of the full stack against the base machine, as
// the paper reports it in Figure 11.
constexpr double kPaperX2Pct = -0.01;
constexpr double kPaperX4Pct = -18;

const char* group_of(const bsp::campaign::MachinePoint& m) {
  if (m.kind == bsp::campaign::MachineKind::Base) return "base";
  return m.slices == 2 ? "x2" : m.slices == 4 ? "x4" : "other";
}

// Mean over x2 and x4 of |model - paper| in percentage points.
double paper_gap_pp(const std::vector<bsp::campaign::TaskRecord>& records) {
  const auto suite_ipc = [&](auto&& pick) {
    double sum = 0;
    unsigned n = 0;
    for (const auto& r : records)
      if (r.status == "ok" && pick(r.task.machine)) {
        sum += r.stats.ipc();
        ++n;
      }
    return n ? sum / n : 0.0;
  };
  const double base = suite_ipc([](const auto& m) {
    return m.kind == bsp::campaign::MachineKind::Base;
  });
  const auto gap = [&](unsigned slices, double paper) {
    const double full = suite_ipc([&](const auto& m) {
      return m.kind == bsp::campaign::MachineKind::Sliced &&
             m.slices == slices && m.techniques == bsp::kAllTechniques;
    });
    return std::abs(100 * (ratio(full, base) - 1) - paper);
  };
  return (gap(2, kPaperX2Pct) + gap(4, kPaperX4Pct)) / 2;
}

// Times every call of the production runner `inner` (summed into
// *total_ns) and records it as a span, a child of `parent` since pool
// threads have no open span. The runner builds (or reuses) the program,
// restores the checkpoint and simulates: core work, so the span is core's.
TaskRunner timed_runner(TaskRunner inner, Tracer& tracer, std::uint64_t parent,
                        std::shared_ptr<std::atomic<long long>> total_ns) {
  return [inner = std::move(inner), &tracer, parent,
          total_ns](const bsp::campaign::TaskSpec& t) {
    const Span span(tracer, "core.task_runner",
                    {t.workload, t.machine.key(), t.id()}, parent);
    const auto t0 = std::chrono::steady_clock::now();
    auto r = inner(t);
    *total_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return r;
  };
}

// The bound port from serve_campaign's port file, or 0 once `done` is set
// without one (the coordinator failed before listening).
unsigned wait_for_port(const std::string& path, const std::atomic<bool>& done) {
  for (;;) {
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line))
      if (line.rfind("port=", 0) == 0) return std::stoul(line.substr(5));
    if (done) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// The built-in fig11 grid at the benchmark's budgets.
bsp::campaign::SweepSpec fig11_spec(const RoundCtx& ctx) {
  bsp::campaign::SweepSpec s = bsp::campaign::find_campaign("fig11")->make();
  s.seeds = {ctx.seed};
  s.instructions = ctx.sizes.sweep_measured;
  s.warmup = ctx.sizes.sweep_warmup;
  s.fast_forward = ctx.sizes.sweep_ffwd;
  return s;
}

class Sweep : public BenchWorkload {
 public:
  explicit Sweep(Isolation mode) : mode_(mode) {}

  std::string golden_section() const override { return "sweep"; }
  unsigned threads() const override { return kJobs; }

  Round round(const RoundCtx& ctx) override {
    namespace cp = bsp::campaign;
    const cp::SweepSpec sweep = fig11_spec(ctx);
    const std::string ckpt = ctx.dir + "/ckpt";
    const std::string store = ctx.dir + "/store.jsonl";
    cp::CampaignOptions copts;
    copts.scheduler.jobs = kJobs;
    copts.scheduler.ckpt_cache_dir = ckpt;
    copts.out_path = store;
    copts.fresh = true;
    copts.progress = false;
    cp::RunnerOptions ropts;
    ropts.ckpt_cache_dir = ckpt;
    Round out;

    std::vector<cp::TaskSpec> tasks;
    double expand_s = 0, prewarm_s = 0;
    cp::PrewarmStats pw;
    const bsp::WallTimer setup;
    {
      const Span span(ctx.tracer, "campaign.expand");
      const bsp::WallTimer t;
      tasks = sweep.expand();
      expand_s = t.seconds();
    }
    {
      const Span span(ctx.tracer, "campaign.prewarm_checkpoint_cache");
      const bsp::WallTimer t;
      pw = cp::prewarm_checkpoint_cache(tasks, copts.scheduler);
      prewarm_s = t.seconds();
    }
    out.setup_s = setup.seconds();

    auto runner_ns = std::make_shared<std::atomic<long long>>(0);
    cp::CampaignReport report;
    std::vector<cp::WorkerReport> workers;
    const bsp::WallTimer wall;
    if (mode_ == Isolation::kServe) {
      workers = serve(ctx, sweep, copts, ropts, runner_ns, &report,
                      &out.errors);
    } else {
      const Span span(ctx.tracer, "campaign.run_campaign");
      // In process mode the worker subprocesses run the tasks instead.
      const TaskRunner runner = timed_runner(
          cp::make_sim_runner(ropts), ctx.tracer, span.id(), runner_ns);
      if (mode_ == Isolation::kProcess) {
        copts.scheduler.isolate = cp::IsolationMode::kProcess;
        copts.scheduler.worker_cmd = {BSP_SWEEP_EXE, "--ckpt-cache", ckpt,
                                      "--worker-json"};
        copts.scheduler.worker_task_json = true;
      }
      report = cp::run_campaign(sweep, runner, copts);
    }
    out.wall_s = wall.seconds();

    check_exactly_once(tasks, store, &out.errors);
    std::vector<CoreSample> samples;
    std::vector<double> task_ms;
    double busy_ms = 0, cpu_s = 0, sys_s = 0;
    long rss_kb = 0;
    u64 hits = 0;
    out.ops = tasks.size();
    out.failed = tasks.size() - std::min(tasks.size(), report.records.size());
    for (const cp::TaskRecord& rec : report.records) {
      if (rec.status != "ok") {
        ++out.failed;
        out.errors.push_back(rec.task.id() + ": " + rec.status + " " +
                             rec.error);
        continue;
      }
      out.commits += rec.stats.committed;
      out.prints[rec.task.id()] = fingerprint(rec.stats);
      samples.push_back({rec.task.workload, group_of(rec.task.machine),
                         &rec.stats});
      task_ms.push_back(rec.duration_ms);
      busy_ms += rec.duration_ms;
      cpu_s += rec.user_sec + rec.sys_sec;
      sys_s += rec.sys_sec;
      rss_kb = std::max(rss_kb, rec.max_rss_kb);
      if (rec.ckpt_cache == "hit") ++hits;
    }
    add_core_metrics(samples, &out.layer);
    auto& m = out.layer;
    const double runner_s = 1e-9 * static_cast<double>(runner_ns->load());
    m["emu.ffwd_s"] = pw.ffwd_sec;
    m["emu.ffwd_instrs"] =
        static_cast<double>(pw.materialised * ctx.sizes.sweep_ffwd);
    m["emu.ffwd_mips"] =
        1e-6 * ratio(pw.materialised * ctx.sizes.sweep_ffwd, pw.ffwd_sec);
    m["campaign.expand_s"] = expand_s;
    m["campaign.prewarm_s"] = prewarm_s;
    m["campaign.ckpt_groups"] = static_cast<double>(pw.groups);
    m["campaign.ckpt_hit_frac"] = ratio(hits, report.records.size());
    m["campaign.task_ms_p50"] = quantile(task_ms, 0.5);
    m["campaign.task_ms_p90"] = quantile(task_ms, 0.9);
    m["campaign.busy_frac"] = ratio(busy_ms / 1e3, kJobs * out.wall_s);
    m["campaign.overhead_s"] = out.wall_s - busy_ms / 1e3 / kJobs;
    std::error_code ec;
    const auto bytes = fs::file_size(store, ec);
    m["campaign.store_bytes"] = ec ? 0 : static_cast<double>(bytes);
    m["campaign.retried"] = static_cast<double>(report.retried);
    m["campaign.paper_gap_pp"] = paper_gap_pp(report.records);
    switch (mode_) {
      case Isolation::kThread:
        m["campaign.runner_s"] = runner_s;
        break;
      case Isolation::kProcess:
        m["subprocess.cpu_frac"] = ratio(cpu_s, busy_ms / 1e3);
        m["subprocess.sys_s"] = sys_s;
        m["subprocess.rss_mb_max"] = static_cast<double>(rss_kb) / 1024;
        break;
      case Isolation::kServe: {
        std::vector<double> ran;
        double groups = 0;
        for (const auto& w : workers) {
          ran.push_back(static_cast<double>(w.ran));
          groups += static_cast<double>(w.prewarm_groups);
        }
        m["remote.runner_s"] = runner_s;
        m["remote.busy_frac"] = ratio(runner_s, kJobs * out.wall_s);
        m["remote.overhead_s"] = out.wall_s - runner_s / kJobs;
        m["remote.tasks_per_worker_min"] = quantile(ran, 0);
        m["remote.tasks_per_worker_max"] = quantile(ran, 1);
        m["remote.prewarm_groups"] = groups;
        break;
      }
    }
    return out;
  }

  // Isolation must not change the physics: every task's stats equal an
  // in-process thread-mode run's. sweep-thread is that mode, so it checks
  // one served round (sweep-serve) against its own.
  void check(const RoundCtx& ctx, const Round& first, Prints*,
             std::map<std::string, double>*,
             std::vector<std::string>* errors) override {
    namespace cp = bsp::campaign;
    if (mode_ == Isolation::kThread) {
      const Round served = Sweep(Isolation::kServe).round(ctx);
      errors->insert(errors->end(), served.errors.begin(),
                     served.errors.end());
      compare_prints(first.prints, served.prints, "sweep-serve vs sweep-thread",
                     /*nocpi=*/false, errors);
      return;
    }
    const auto tasks = fig11_spec(ctx).expand();
    cp::SchedulerOptions sched;
    sched.jobs = kJobs;
    sched.ckpt_cache_dir = ctx.dir + "/ckpt";
    cp::prewarm_checkpoint_cache(tasks, sched);
    cp::RunnerOptions ropts;
    ropts.ckpt_cache_dir = sched.ckpt_cache_dir;
    Prints want;
    std::mutex m;
    cp::run_tasks(tasks, cp::make_sim_runner(ropts), sched,
                  [&](std::size_t i, const cp::TaskOutcome& out) {
                    std::lock_guard<std::mutex> lock(m);
                    want[tasks[i].id()] = fingerprint(out.stats);
                  });
    compare_prints(want, first.prints,
                   golden_section() + " vs in-process thread mode",
                   /*nocpi=*/false, errors);
  }

 private:
  // serve_campaign on an ephemeral localhost port with two in-process
  // workers of two slots each: 4 simulation threads, 2 connections.
  std::vector<bsp::campaign::WorkerReport> serve(
      const RoundCtx& ctx, const bsp::campaign::SweepSpec& sweep,
      const bsp::campaign::CampaignOptions& copts,
      const bsp::campaign::RunnerOptions& ropts,
      std::shared_ptr<std::atomic<long long>> runner_ns,
      bsp::campaign::CampaignReport* report,
      std::vector<std::string>* errors) {
    namespace cp = bsp::campaign;
    constexpr unsigned kWorkers = 2;
    cp::RemoteOptions remote;
    remote.bind = {"127.0.0.1", 0};
    remote.port_file = ctx.dir + "/port";
    remote.spec.campaign = sweep.name;
    const Span span(ctx.tracer, "remote.serve_campaign");
    std::atomic<bool> done{false};
    std::string coordinator_error;
    std::thread coordinator([&] {
      try {
        *report = cp::serve_campaign(sweep, copts, remote);
      } catch (const std::exception& e) {
        coordinator_error = e.what();
      }
      done = true;
    });
    const unsigned port = wait_for_port(remote.port_file, done);
    std::vector<cp::WorkerReport> reports(kWorkers);
    std::vector<std::thread> threads;
    for (unsigned w = 0; port != 0 && w < kWorkers; ++w)
      threads.emplace_back([&, w] {
        const Span ws(ctx.tracer, "remote.run_remote_worker", {}, span.id());
        cp::WorkerOptions wo;
        wo.connect = {"127.0.0.1", static_cast<std::uint16_t>(port)};
        wo.slots = kJobs / kWorkers;
        wo.hostname = "bench-worker-" + std::to_string(w);
        reports[w] = cp::run_remote_worker(
            wo, [&, parent = ws.id()](const cp::RemoteSpec&,
                                      TaskRunner* runner,
                                      cp::SchedulerOptions* sched) {
              sched->ckpt_cache_dir = ropts.ckpt_cache_dir;
              *runner = timed_runner(cp::make_sim_runner(ropts), ctx.tracer,
                                     parent, runner_ns);
            });
      });
    for (std::thread& t : threads) t.join();
    coordinator.join();
    if (!coordinator_error.empty())
      errors->push_back("serve_campaign: " + coordinator_error);
    for (const auto& r : reports)
      if (!r.done)
        errors->push_back("remote worker: " +
                          (r.error.empty() ? "no DONE" : r.error));
    return reports;
  }

  // Every expanded task has exactly one record line in the store.
  static void check_exactly_once(
      const std::vector<bsp::campaign::TaskSpec>& tasks,
      const std::string& store, std::vector<std::string>* errors) {
    std::map<std::string, unsigned> seen;
    for (const auto& t : tasks) seen[t.id()] = 0;
    std::ifstream f(store);
    std::string line;
    while (std::getline(f, line)) {
      const auto rec = bsp::campaign::parse_jsonl(line);
      const std::string id = rec ? rec->task.id() : "<unparseable line>";
      if (!seen.count(id))
        errors->push_back("store holds unexpected record " + id);
      else
        ++seen[id];
    }
    for (const auto& [id, n] : seen)
      if (n != 1)
        errors->push_back("task " + id + " has " + std::to_string(n) +
                          " records");
  }

  Isolation mode_;
};

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Sizes::Sizes(double scale) {
  const auto s = [scale](double n) {
    return std::max<u64>(1, static_cast<u64>(std::llround(n * scale)));
  };
  detail_measured = s(50'000);
  detail_warmup = s(5'000);
  detail_interval = s(5'000);
  sampled_measured = s(400'000);
  sampled_warmup = s(20'000);
  sampled_interval_warmup = s(10'000);
  sweep_measured = s(10'000);
  sweep_warmup = s(10'000);
  sweep_ffwd = s(1'000'000);
}

std::unique_ptr<BenchWorkload> make_workload(const std::string& name) {
  if (name == "detail") return std::make_unique<Detail>(false);
  if (name == "sampled-k8") return std::make_unique<Sampled>();
  if (name == "sweep-thread")
    return std::make_unique<Sweep>(Isolation::kThread);
  if (name == "sweep-process")
    return std::make_unique<Sweep>(Isolation::kProcess);
  return nullptr;
}

std::unique_ptr<BenchWorkload> make_sibling(const std::string& name) {
  if (name == "detail") return std::make_unique<Detail>(true);
  if (name == "sweep-thread") return std::make_unique<Sweep>(Isolation::kServe);
  return nullptr;
}

}  // namespace bench
