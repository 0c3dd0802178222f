#include "campaign/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <type_traits>

#include "campaign/ckpt_cache.hpp"
#include "core/simulator.hpp"
#include "obs/interval.hpp"
#include "obs/json.hpp"
#include "util/cli.hpp"
#include "workloads/workloads.hpp"

namespace bsp::campaign {

namespace {

// Build-once map shared by concurrent tasks: the first caller for a key
// runs `build`; the others block on its shared_future and receive the
// same value (or rethrow the same exception).
template <class Key, class Value>
class BuildOnce {
 public:
  // *built (optional) reports whether this call was the builder.
  template <class Build>
  Value get(const Key& key, Build&& build, bool* built = nullptr) {
    std::shared_future<Value> fut;
    std::promise<Value> promise;
    bool builder = false;
    {
      std::lock_guard<std::mutex> lock(m_);
      const auto it = map_.find(key);
      if (it == map_.end()) {
        fut = promise.get_future().share();
        map_.emplace(key, fut);
        builder = true;
      } else {
        fut = it->second;
      }
    }
    if (builder) {
      try {
        promise.set_value(build());
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    }
    if (built) *built = builder;
    return fut.get();
  }

 private:
  std::mutex m_;
  std::map<Key, std::shared_future<Value>> map_;
};

// The tasks not yet `done`, round-robin across workloads: the first pending
// task of every workload (workloads in grid order), then the second of
// every workload, and so on; each workload's own tasks stay in grid order.
// Concurrent workers then run different programs, so a big program's pages
// are live in one task at a time rather than in all of them at once.
std::vector<std::size_t> dispatch_order(const std::vector<TaskSpec>& tasks,
                                        const std::vector<bool>& done) {
  std::vector<std::vector<std::size_t>> by_workload;
  std::unordered_map<std::string, std::size_t> slot;
  std::size_t count = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (done[i]) continue;
    const auto [it, fresh] = slot.emplace(tasks[i].workload, slot.size());
    if (fresh) by_workload.emplace_back();
    by_workload[it->second].push_back(i);
    ++count;
  }
  std::vector<std::size_t> order;
  order.reserve(count);
  for (std::size_t round = 0; order.size() < count; ++round)
    for (const std::vector<std::size_t>& w : by_workload)
      if (round < w.size()) order.push_back(w[round]);
  return order;
}

// The live line: "\r[name] done/total (resumed) | failed | crashed |
// retried | tasks/s | commits per host-second | peak RSS | ETA".
void print_line(const std::string& name, const ProgressSnapshot& s) {
  const CampaignReport& c = s.counts;
  char eta[32];
  if (s.eta_sec >= 0) {
    if (s.eta_sec >= 90)
      std::snprintf(eta, sizeof eta, "%.1fmin", s.eta_sec / 60);
    else
      std::snprintf(eta, sizeof eta, "%.0fs", s.eta_sec);
  } else {
    std::snprintf(eta, sizeof eta, "?");
  }
  char sim_rate[32] = "";
  if (s.commits_per_host_second > 0)
    std::snprintf(sim_rate, sizeof sim_rate, " | %.2fM commits/hs",
                  s.commits_per_host_second / 1e6);
  char rss[32] = "";
  if (c.max_rss_kb > 0)
    std::snprintf(rss, sizeof rss, " | peak %.0fMB",
                  static_cast<double>(c.max_rss_kb) / 1024.0);
  std::fprintf(stderr,
               "\r[%s] %zu/%zu done (%zu resumed) | %zu failed | %zu crashed "
               "| %zu retried | %.2f tasks/s%s%s | ETA %s   ",
               name.c_str(), c.ran + c.skipped, c.total, c.skipped, c.failed,
               c.crashed, c.retried, s.rate, sim_rate, rss, eta);
  std::fflush(stderr);
}

// The summed host-phase profile as shares of the instrumented loop.
void print_phases(const std::string& name, const obs::HostProfile& hp) {
  const double total = hp.total();
  if (total <= 0) return;
  const auto pct = [&](double v) { return 100.0 * v / total; };
  // replay is nested inside memory, so its parenthetical says "of total"
  // explicitly — a bare percentage inside "memory X% (...)" reads as a
  // share of memory. ffwd happens before the cycle loop, so it reports in
  // absolute seconds beside the loop's 100%, not as a share of it.
  char replay[48] = "";
  if (hp.replay > 0)
    std::snprintf(replay, sizeof replay, " (replay %.1f%% of total)",
                  pct(hp.replay));
  char ffwd[40] = "";
  if (hp.ffwd > 0)
    std::snprintf(ffwd, sizeof ffwd, " | ffwd %.2fs pre-loop", hp.ffwd);
  std::fprintf(stderr,
               "[%s] host phases: commit %.1f%% | "
               "resolve %.1f%% | select %.1f%% | memory %.1f%%%s"
               " | dispatch %.1f%% | fetch %.1f%%%s\n",
               name.c_str(), pct(hp.commit), pct(hp.resolve),
               pct(hp.select), pct(hp.memory), replay, pct(hp.dispatch),
               pct(hp.fetch), ffwd);
}

}  // namespace

ProgressSnapshot progress_at(const CampaignReport& counts,
                             double elapsed_sec) {
  ProgressSnapshot s;
  s.counts = counts;
  s.elapsed_sec = elapsed_sec;
  s.rate = elapsed_sec > 0 ? static_cast<double>(counts.ran) / elapsed_sec
                           : 0;
  s.eta_sec =
      s.rate > 0 ? static_cast<double>(counts.remaining()) / s.rate : -1;
  s.commits_per_host_second =
      counts.host_seconds > 0
          ? static_cast<double>(counts.committed) / counts.host_seconds
          : 0.0;
  return s;
}

CampaignLedger::CampaignLedger(const SweepSpec& spec,
                               const CampaignOptions& options)
    : name_(spec.name),
      print_(options.progress),
      tasks_(spec.expand()),
      store_(options.out_path.empty() ? spec.name + ".jsonl"
                                      : options.out_path,
             options.fresh),
      latest_(tasks_.size()),
      done_(tasks_.size()) {
  for (std::size_t i = 0; i < tasks_.size(); ++i)
    index_.emplace(tasks_[i].id(), i);
  if (!options.fresh) {
    // Records for tasks outside this grid stay in the file, not here.
    for (TaskRecord& rec : load_records(store_.path())) {
      const auto idx = index_of(rec.task.id());
      if (!idx) continue;
      done_[*idx] = !options.retry_failed || rec.ok();
      latest_[*idx] = std::move(rec);
    }
  }
  pending_ = dispatch_order(tasks_, done_);
  report_.total = tasks_.size();
  report_.skipped = tasks_.size() - pending_.size();
  start_ = std::chrono::steady_clock::now();
}

std::vector<TaskSpec> CampaignLedger::pending_tasks() const {
  std::vector<TaskSpec> out;
  out.reserve(pending_.size());
  for (const std::size_t i : pending_) out.push_back(tasks_[i]);
  return out;
}

std::optional<std::size_t> CampaignLedger::index_of(
    const std::string& id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

bool CampaignLedger::record(std::size_t idx, TaskRecord rec) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (done_[idx]) return false;
  done_[idx] = true;
  store_.append(rec);
  ++report_.ran;
  if (rec.ckpt_cache == "hit") ++report_.ckpt_hits;
  if (rec.ckpt_cache == "miss") ++report_.ckpt_misses;
  if (rec.ok()) {
    ++report_.ok;
    report_.committed += rec.stats.committed;
    report_.host_seconds += rec.stats.host_seconds;
    if (rec.stats.host_profile.enabled)
      report_.host_phases.merge(rec.stats.host_profile);
  } else if (rec.status == "crashed") {
    ++report_.crashed;
  } else {
    ++report_.failed;  // "failed" and "timeout" statuses
  }
  if (rec.retried()) ++report_.retried;
  report_.max_rss_kb = std::max(report_.max_rss_kb, rec.max_rss_kb);
  latest_[idx] = std::move(rec);
  if (print_) print_line(name_, progress_locked());
  return true;
}

bool CampaignLedger::done(std::size_t idx) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_[idx];
}

std::size_t CampaignLedger::remaining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return report_.remaining();
}

ProgressSnapshot CampaignLedger::progress_locked() const {
  return progress_at(report_, std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start_)
                                  .count());
}

ProgressSnapshot CampaignLedger::progress() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return progress_locked();
}

CampaignReport CampaignLedger::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (print_) {
    const ProgressSnapshot s = progress_locked();
    print_line(name_, s);
    std::fputc('\n', stderr);
    if (s.counts.host_phases.enabled)
      print_phases(name_, s.counts.host_phases);
    std::fflush(stderr);
  }
  CampaignReport report = report_;
  for (std::optional<TaskRecord>& rec : latest_)
    if (rec) report.records.push_back(std::move(*rec));
  return report;
}

CampaignReport run_campaign(const SweepSpec& spec, const TaskRunner& runner,
                            const CampaignOptions& options) {
  CampaignLedger ledger(spec, options);
  const std::vector<TaskSpec> pending = ledger.pending_tasks();
  // Checkpoint-cache pre-pass: pay each distinct fast-forward once, up
  // front, so the sweep's workers (thread or process) only ever restore.
  const PrewarmStats prewarm =
      prewarm_checkpoint_cache(pending, options.scheduler);
  run_tasks(pending, runner, options.scheduler,
            [&](std::size_t pi, const TaskOutcome& out) {
              ledger.record(ledger.pending()[pi], TaskRecord{out, pending[pi]});
            });
  CampaignReport report = ledger.finish();
  report.prewarm = prewarm;
  return report;
}

TaskRunner memoise_workloads(WorkloadTaskBody body) {
  using Memo =
      BuildOnce<std::pair<std::string, u64>, std::shared_ptr<const Workload>>;
  auto memo = std::make_shared<Memo>();
  return [memo, body = std::move(body)](const TaskSpec& task) {
    std::shared_ptr<const Workload> workload;
    try {
      workload = memo->get({task.workload, task.seed}, [&] {
        WorkloadParams params;
        params.seed = task.seed;
        return std::make_shared<const Workload>(
            build_workload(task.workload, params));
      });
    } catch (const std::exception& e) {
      TaskOutcome r;
      r.error = std::string("workload build failed: ") + e.what();
      return r;
    }
    return body(task, *workload);
  };
}

const std::vector<RunOptionField>& run_option_fields() {
  static const std::vector<RunOptionField> kFields = {
      {"interval", "--interval-stats", "N",
       "record a time-series of counter deltas every N committed "
       "instructions into each record's \"series\"",
       &RunnerOptions::interval},
      {"host_profile", "--host-profile", "",
       "profile host time per simulator phase (records' \"host_phases\")",
       &RunnerOptions::host_profile},
      {"ckpt_cache_dir", "--ckpt-cache", "DIR",
       "shared checkpoint cache: each distinct fast-forward checkpoint is "
       "materialised once into DIR (atomic) and restored by every later "
       "task and run",
       &RunnerOptions::ckpt_cache_dir, /*host_local=*/true},
      {"cpi_stack", "--cpi-stack", "",
       "CPI-stack cycle accounting: charge every commit slot to a stall "
       "cause (cpi_* counters, sum == cycles * commit width) and print it",
       &RunnerOptions::cpi_stack},
      {"sample_intervals", "--sample-intervals", "K",
       "sampled simulation: split the measured window into K intervals "
       "simulated from functional checkpoints, stitched with a mean-IPC "
       "95% confidence interval (0 = monolithic)",
       &RunnerOptions::sample_intervals},
      {"sample_warmup", "--sample-warmup", "N",
       "warm-up commits discarded before each sampled interval (default " +
           std::to_string(sampling::kDefaultSampleWarmup) +
           "; interval 0 keeps the run's own, so K=1 is the monolithic run)",
       &RunnerOptions::sample_warmup},
  };
  return kFields;
}

namespace {

template <class T>
constexpr bool kIsBool = std::is_same_v<std::decay_t<T>, bool>;
template <class T>
constexpr bool kIsString = std::is_same_v<std::decay_t<T>, std::string>;

}  // namespace

bool RunOptionField::is_default(const RunnerOptions& o) const {
  static const RunnerOptions kDefaults;
  return std::visit([&](auto m) { return o.*m == kDefaults.*m; }, member);
}

std::string RunOptionField::json(const RunnerOptions& o) const {
  return std::visit(
      [&](auto m) -> std::string {
        using T = decltype(o.*m);
        if constexpr (kIsBool<T>)
          return o.*m ? "true" : "false";
        else if constexpr (kIsString<T>)
          return "\"" + obs::json_escape(o.*m) + "\"";
        else
          return std::to_string(o.*m);
      },
      member);
}

bool RunOptionField::set_json(const obs::JsonValue& v,
                              RunnerOptions* o) const {
  return std::visit(
      [&](auto m) {
        using T = std::decay_t<decltype(o->*m)>;
        if constexpr (kIsBool<T>) {
          if (v.kind != obs::JsonValue::Kind::Bool) return false;
          o->*m = v.boolean;
        } else if constexpr (kIsString<T>) {
          if (!v.is_string()) return false;
          o->*m = v.str;
        } else {
          const auto n = v.as_uint(std::numeric_limits<T>::max());
          if (!n) return false;
          o->*m = static_cast<T>(*n);
        }
        return true;
      },
      member);
}

void RunOptionField::copy(const RunnerOptions& from,
                          RunnerOptions* to) const {
  std::visit([&](auto m) { to->*m = from.*m; }, member);
}

void add_run_option_flags(ArgParser& parser, RunnerOptions* out,
                          const std::vector<std::string>& skip) {
  for (const RunOptionField& f : run_option_fields()) {
    if (std::find(skip.begin(), skip.end(), f.key) != skip.end()) continue;
    std::visit(
        [&](auto m) {
          if constexpr (kIsBool<decltype(out->*m)>)
            parser.add_flag(f.flag, f.help, &(out->*m));
          else
            parser.add_value(f.flag, f.placeholder, f.help, &(out->*m));
        },
        f.member);
  }
}

std::vector<std::string> run_option_args(const RunnerOptions& options) {
  std::vector<std::string> args;
  for (const RunOptionField& f : run_option_fields()) {
    if (f.is_default(options)) continue;
    args.push_back(f.flag);
    std::visit(
        [&](auto m) {
          using T = decltype(options.*m);
          if constexpr (kIsString<T>)
            args.push_back(options.*m);
          else if constexpr (!kIsBool<T>)
            args.push_back(std::to_string(options.*m));
        },
        f.member);
  }
  return args;
}

TaskOutcome simulate_task(const TaskSpec& task, const MachineConfig& config,
                          const Program& program, const Checkpoint* start,
                          const RunnerOptions& options) {
  TaskOutcome r;
  Simulator sim = start ? Simulator(config, program, *start)
                        : Simulator(config, program);
  obs::IntervalSampler sampler(options.interval ? options.interval : 1);
  if (options.interval) sim.set_interval_sampler(&sampler);
  if (options.host_profile) sim.enable_host_profile();
  if (options.cpi_stack) sim.enable_cpi_stack();
  const SimResult res = sim.run(task.instructions, task.warmup);
  r.stats = res.stats;
  r.error = res.error;
  r.exited = res.exited;
  r.exit_code = res.exit_code;
  if (options.interval) {
    r.interval = options.interval;
    r.series.reserve(sampler.rows().size());
    for (const obs::IntervalRow& row : sampler.rows()) {
      std::vector<u64> flat;
      flat.reserve(2 + row.delta.size());
      flat.push_back(row.cycle);
      flat.push_back(row.committed);
      flat.insert(flat.end(), row.delta.begin(), row.delta.end());
      r.series.push_back(std::move(flat));
    }
  }
  return r;
}

TaskRunner make_sim_runner(const RunnerOptions& options) {
  // (workload, seed, fast_forward) -> start checkpoint: within one process
  // each distinct fast-forward is paid (or its cache file read) exactly
  // once, no matter how many concurrent tasks need it.
  using CkptMemo = BuildOnce<std::tuple<std::string, u64, u64>, CkptFetch>;
  auto ckpts = std::make_shared<CkptMemo>();
  return memoise_workloads([ckpts, options](const TaskSpec& task,
                                            const Workload& workload) {
    // Fast-forward tasks start from a shared checkpoint: in-process memo
    // first, then the on-disk cache, then (cold path) one fast-forward run
    // whose result every later task reuses.
    CkptFetch ckpt;
    if (task.fast_forward > 0) {
      bool builder = false;
      ckpt = ckpts->get(
          {task.workload, task.seed, task.fast_forward},
          [&] {
            return fetch_checkpoint(options.ckpt_cache_dir, task.workload,
                                    task.seed, workload.program,
                                    task.fast_forward);
          },
          &builder);
      if (!ckpt.ok()) {
        TaskOutcome r;
        r.error = "fast-forward failed: " + ckpt.error;
        return r;
      }
      // Memo consumers after the first share the builder's fetch; only the
      // builder reports its miss (and pays its ffwd_sec) so per-task
      // records sum to the real host cost instead of multiply counting it.
      if (!builder) {
        ckpt.hit = true;
        ckpt.ffwd_sec = 0;
      }
    }
    TaskOutcome r = simulate_task(task, task.machine.build(),
                                  workload.program, ckpt.checkpoint.get(),
                                  options);
    if (task.fast_forward > 0) {
      r.ckpt_cache = ckpt.hit ? "hit" : "miss";
      r.ffwd_sec = ckpt.ffwd_sec;
      if (options.host_profile) r.stats.host_profile.ffwd = ckpt.ffwd_sec;
    }
    return r;
  });
}

}  // namespace bsp::campaign
