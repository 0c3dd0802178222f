// Campaign engine tests: deterministic grid expansion, JSONL round-trips,
// checkpoint/resume, fault isolation with bounded retry, timeouts, and
// byte-determinism of the result store. Uses synthetic runners throughout
// (no simulation) except the one equivalence test that pins the production
// runner to simulate().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <regex>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>

#include <filesystem>

#include "campaign/builtin.hpp"
#include "campaign/campaign.hpp"
#include "campaign/ckpt_cache.hpp"
#include "core/simulator.hpp"
#include "emu/checkpoint.hpp"
#include "workloads/workloads.hpp"

namespace bsp::campaign {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "bsp_campaign_" + name + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

SweepSpec small_spec() {
  SweepSpec spec;
  spec.name = "unit";
  spec.workloads = {"li", "go", "bzip"};
  spec.seeds = {0x5eed, 0x1234};
  spec.instructions = 1000;
  spec.warmup = 0;
  MachinePoint base;
  base.label = "base";
  spec.machines.push_back(base);
  MachinePoint sliced;
  sliced.label = "full x2";
  sliced.kind = MachineKind::Sliced;
  sliced.slices = 2;
  sliced.techniques = kAllTechniques;
  spec.machines.push_back(sliced);
  return spec;
}

// Each task's latest record in the store at `path`, by task id.
std::map<std::string, TaskRecord> stored_by_id(const std::string& path) {
  std::map<std::string, TaskRecord> out;
  for (TaskRecord& rec : load_records(path))
    out.emplace(rec.task.id(), std::move(rec));
  return out;
}

// Deterministic fake stats derived from the task id, so fake runs are
// reproducible and distinguishable per task.
SimStats fake_stats(const TaskSpec& task) {
  u64 h = 1469598103934665603ull;
  for (const char c : task.id()) h = (h ^ static_cast<u64>(c)) * 1099511628211ull;
  SimStats s;
  s.cycles = 1000 + h % 1000;
  s.committed = task.instructions;
  s.branches = h % 97;
  return s;
}

TaskRunner fake_runner() {
  return [](const TaskSpec& task) {
    TaskOutcome r;
    r.stats = fake_stats(task);
    return r;
  };
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(SweepSpec, ExpansionIsDeterministicAndDuplicateFree) {
  const SweepSpec spec = small_spec();
  const auto a = spec.expand();
  const auto b = spec.expand();
  ASSERT_EQ(a.size(), 3u * 2u * 2u);
  std::set<std::string> ids;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id(), b[i].id());
    ids.insert(a[i].id());
  }
  EXPECT_EQ(ids.size(), a.size()) << "duplicate task ids in expansion";

  // Duplicated grid entries must collapse instead of producing dupes.
  SweepSpec dup = spec;
  dup.workloads.push_back("li");
  dup.seeds.push_back(0x5eed);
  dup.machines.push_back(dup.machines.front());
  EXPECT_EQ(dup.expand().size(), a.size());
}

TEST(SweepSpec, TaskIdEncodesEveryAxis) {
  // expand()[1] is the Sliced machine point — techniques/slices only enter
  // the id for non-Base kinds.
  const TaskSpec t = small_spec().expand()[1];
  auto changed = [&](auto mutate) {
    TaskSpec u = t;
    mutate(u);
    return u.id();
  };
  std::set<std::string> ids = {t.id()};
  ids.insert(changed([](TaskSpec& u) { u.workload = "vortex"; }));
  ids.insert(changed([](TaskSpec& u) { u.seed = 0xBEE5; }));
  ids.insert(changed([](TaskSpec& u) { u.instructions = 77; }));
  ids.insert(changed([](TaskSpec& u) { u.warmup = 33; }));
  ids.insert(changed([](TaskSpec& u) { u.machine.kind = MachineKind::Simple;
                                       u.machine.slices = 2; }));
  ids.insert(changed([](TaskSpec& u) { u.machine.techniques = 0x3; }));
  EXPECT_EQ(ids.size(), 7u);
}

TEST(ResultStore, JsonlRoundTripsAllFields) {
  TaskRecord rec;
  rec.task = small_spec().expand().front();
  rec.status = "ok";
  rec.attempts = 2;
  rec.duration_ms = 12.5;
  rec.stats = fake_stats(rec.task);
  rec.stats.way_mispredicts = 17;
  rec.stats.l1d_misses = 23;
  rec.stats.idle_cycles_skipped = 4321;
  rec.stats.host_seconds = 1.375;

  const auto back = parse_jsonl(to_jsonl(rec));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->task.id(), rec.task.id());
  EXPECT_EQ(back->status, "ok");
  EXPECT_EQ(back->attempts, 2u);
  EXPECT_EQ(back->stats.cycles, rec.stats.cycles);
  EXPECT_EQ(back->stats.committed, rec.stats.committed);
  EXPECT_EQ(back->stats.way_mispredicts, 17u);
  EXPECT_EQ(back->stats.l1d_misses, 23u);
  EXPECT_EQ(back->stats.idle_cycles_skipped, 4321u);
  EXPECT_DOUBLE_EQ(back->stats.host_seconds, 1.375);

  TaskRecord failed = rec;
  failed.status = "failed";
  failed.error = "co-simulation divergence: \"pc\" mismatch\n";
  const auto fback = parse_jsonl(to_jsonl(failed));
  ASSERT_TRUE(fback.has_value());
  EXPECT_EQ(fback->status, "failed");
  EXPECT_EQ(fback->error, failed.error);
}

TEST(ResultStore, UnescapeHandlesSurrogatesAndMalformedEscapes) {
  // to_jsonl writes a \u escape only below 0x20 (json_escape), so a valid
  // surrogate pair still decodes, but a lone surrogate or bad hex marks a
  // line no writer produced: it is garbage and rejected whole. Worker
  // stderr need not be UTF-8; its raw bytes pass through unchanged.
  TaskRecord rec;
  rec.task = small_spec().expand().front();
  rec.status = "failed";
  rec.error = "MARKER";
  const std::string line = to_jsonl(rec);
  const std::string marker = "\"error\":\"MARKER\"";
  const std::size_t at = line.find(marker);
  ASSERT_NE(at, std::string::npos);
  const auto with_error = [&](const std::string& escaped) {
    return parse_jsonl(std::string(line).replace(
        at, marker.size(), "\"error\":\"" + escaped + "\""));
  };
  const auto pair = with_error("a\\ud83d\\ude00z");
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->error, "a\xF0\x9F\x98\x80z");
  for (const char* bad : {"\\ud800x", "\\ud83d", "\\udc00", "\\uZZZZ",
                          "\\u12"})
    EXPECT_FALSE(with_error(bad).has_value()) << bad;

  rec.error = "segfault in \xFF\xFE\xC3 (not UTF-8)";
  const auto raw = parse_jsonl(to_jsonl(rec));
  ASSERT_TRUE(raw.has_value());
  EXPECT_EQ(raw->error, rec.error);
}

TEST(ResultStore, IgnoresTornTrailingLine) {
  const std::string path = temp_path("torn");
  TaskRecord rec;
  rec.task = small_spec().expand().front();
  rec.status = "ok";
  rec.stats = fake_stats(rec.task);
  {
    std::ofstream out(path);
    out << to_jsonl(rec) << "\n";
    out << to_jsonl(rec).substr(0, 40);  // killed mid-append
  }
  const std::vector<TaskRecord> records = load_records(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].task.id(), rec.task.id());
  std::remove(path.c_str());
}

TEST(ResultStore, LoadRecordsKeepsOnlyTheLastRecordPerTask) {
  // A store can legitimately hold several records for one task id: a retry
  // appended over a failure, or a remote re-dispatch that raced. Every
  // aggregation path must see one record per task — the LAST one — or
  // means and counts double-count.
  const std::string path = temp_path("dedup");
  const auto tasks = small_spec().expand();
  TaskRecord stale;
  stale.task = tasks[0];
  stale.status = "fail: injected";
  stale.error = "injected";
  TaskRecord fresh;
  fresh.task = tasks[0];
  fresh.status = "ok";
  fresh.stats = fake_stats(tasks[0]);
  fresh.attempts = 2;
  TaskRecord other;
  other.task = tasks[1];
  other.status = "ok";
  other.stats = fake_stats(tasks[1]);
  {
    std::ofstream out(path);
    out << to_jsonl(stale) << "\n"
        << to_jsonl(other) << "\n"
        << to_jsonl(fresh) << "\n";
  }
  const std::vector<TaskRecord> records = load_records(path);
  ASSERT_EQ(records.size(), 2u);
  // First-seen order is preserved; the duplicate is resolved in place.
  EXPECT_EQ(records[0].task.id(), tasks[0].id());
  EXPECT_EQ(records[0].status, "ok");
  EXPECT_EQ(records[0].attempts, 2u);
  EXPECT_EQ(records[1].task.id(), tasks[1].id());
  std::remove(path.c_str());
}

TEST(Progress, ResumeRateAndEtaComeFromThisRunOnly) {
  // 90 of 100 tasks were satisfied by the resumed store. Five more finish
  // in the first 10 seconds of this run: the rate must be 0.5/s (not the
  // 9.5/s a naive done/elapsed over the full baseline would claim), and
  // the ETA must extrapolate only over the 5 genuinely remaining tasks.
  CampaignReport counts;
  counts.total = 100;
  counts.skipped = 90;
  const ProgressSnapshot fresh = progress_at(counts, 10.0);
  EXPECT_EQ(fresh.counts.total, 100u);
  EXPECT_EQ(fresh.counts.skipped, 90u);
  EXPECT_EQ(fresh.counts.remaining(), 10u);
  EXPECT_DOUBLE_EQ(fresh.rate, 0.0);
  EXPECT_LT(fresh.eta_sec, 0) << "no completions yet: ETA is unknown";
  counts.ran = 5;
  counts.ok = 5;
  const ProgressSnapshot s = progress_at(counts, 10.0);
  EXPECT_EQ(s.counts.ran, 5u);
  EXPECT_EQ(s.counts.remaining(), 5u);
  EXPECT_DOUBLE_EQ(s.rate, 0.5);
  EXPECT_DOUBLE_EQ(s.eta_sec, 10.0);
}

TEST(Progress, NarrowedGridResumesOnlyItsOwnTasks) {
  // A store written by the full grid, resumed by a one-workload grid: the
  // other workloads' records stay in the file but count nowhere.
  const SweepSpec wide = small_spec();
  SweepSpec narrow = wide;
  narrow.workloads = {"go"};
  const std::size_t wide_tasks = wide.expand().size();
  const std::size_t narrow_tasks = narrow.expand().size();
  ASSERT_LT(narrow_tasks, wide_tasks);
  const std::string path = temp_path("narrowed");
  CampaignOptions options;
  options.out_path = path;
  options.fresh = true;
  options.progress = false;
  ASSERT_EQ(run_campaign(wide, fake_runner(), options).ran, wide_tasks);

  options.fresh = false;
  CampaignLedger ledger(narrow, options);
  EXPECT_TRUE(ledger.pending().empty());
  EXPECT_EQ(ledger.remaining(), 0u);
  const ProgressSnapshot s = ledger.progress();
  EXPECT_EQ(s.counts.total, narrow_tasks);
  EXPECT_EQ(s.counts.skipped, narrow_tasks);
  EXPECT_EQ(s.counts.remaining(), 0u);
  const CampaignReport report = ledger.finish();
  EXPECT_EQ(report.skipped, narrow_tasks);
  EXPECT_EQ(report.ran, 0u);
  ASSERT_EQ(report.records.size(), narrow_tasks);
  for (const TaskRecord& rec : report.records)
    EXPECT_EQ(rec.task.workload, "go") << rec.task.id();
  EXPECT_EQ(load_records(path).size(), wide_tasks)
      << "the other workloads' records stay in the file";
  std::remove(path.c_str());
}

TEST(Campaign, ResumeSkipsCompletedTasks) {
  const SweepSpec spec = small_spec();
  const std::string path = temp_path("resume");
  const auto tasks = spec.expand();

  // Simulate a killed run: records exist for the first 5 tasks only.
  {
    ResultStore store(path, /*truncate=*/true);
    for (std::size_t i = 0; i < 5; ++i) {
      TaskRecord rec;
      rec.task = tasks[i];
      rec.status = "ok";
      rec.stats = fake_stats(tasks[i]);
      store.append(rec);
    }
  }

  std::mutex m;
  std::map<std::string, int> calls;
  CampaignOptions options;
  options.out_path = path;
  options.progress = false;
  const auto report = run_campaign(
      spec,
      [&](const TaskSpec& task) {
        { std::lock_guard<std::mutex> lock(m); ++calls[task.id()]; }
        return fake_runner()(task);
      },
      options);

  EXPECT_EQ(report.total, tasks.size());
  EXPECT_EQ(report.skipped, 5u);
  EXPECT_EQ(report.ran, tasks.size() - 5);
  EXPECT_EQ(report.ok, tasks.size() - 5);
  EXPECT_EQ(report.records.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    EXPECT_EQ(calls[tasks[i].id()], i < 5 ? 0 : 1) << tasks[i].id();

  // A full rerun against the same store runs nothing at all.
  const auto rerun = run_campaign(spec, fake_runner(), options);
  EXPECT_EQ(rerun.skipped, tasks.size());
  EXPECT_EQ(rerun.ran, 0u);
  std::remove(path.c_str());
}

// Stores written while a co-simulation label existed carry "cosim_mode"
// and a "/cosim=MODE" id suffix. Every label ran the same check, so such a
// line loads as the unlabelled task and resumes it.
TEST(Campaign, CosimLabelledRecordResumesTheUnlabelledTask) {
  SweepSpec spec = small_spec();
  spec.workloads = {"li"};
  spec.seeds = {0x5eed};
  const auto tasks = spec.expand();
  ASSERT_EQ(tasks.size(), 2u);
  TaskRecord rec;
  rec.task = tasks[0];
  rec.status = "ok";
  rec.stats = fake_stats(tasks[0]);
  std::string line = to_jsonl(rec);
  const std::string id = "\"task\":\"" + tasks[0].id() + "\"";
  const std::size_t at_id = line.find(id);
  ASSERT_NE(at_id, std::string::npos);
  line.insert(at_id + id.size() - 1, "/cosim=spot:64");
  const std::size_t at_status = line.find("\"status\":");
  ASSERT_NE(at_status, std::string::npos);
  line.insert(at_status, "\"cosim_mode\":\"spot:64\",");

  const auto loaded = parse_jsonl(line);
  ASSERT_TRUE(loaded.has_value()) << line;
  EXPECT_EQ(loaded->task.id(), tasks[0].id());

  const std::string path = temp_path("cosim_label");
  {
    std::ofstream out(path, std::ios::trunc);
    out << line << "\n";
  }
  std::mutex m;
  std::set<std::string> ran;
  CampaignOptions options;
  options.out_path = path;
  options.progress = false;
  const auto report = run_campaign(
      spec,
      [&](const TaskSpec& task) {
        { std::lock_guard<std::mutex> lock(m); ran.insert(task.id()); }
        return fake_runner()(task);
      },
      options);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(report.ran, 1u);
  EXPECT_EQ(ran, std::set<std::string>{tasks[1].id()});
  ASSERT_EQ(report.records.size(), 2u);
  EXPECT_EQ(report.records[0].task.id(), tasks[0].id());
  std::remove(path.c_str());
}

TEST(Campaign, InjectedFailureIsRetriedThenRecordedWithoutAborting) {
  const SweepSpec spec = small_spec();
  const auto tasks = spec.expand();
  const std::string poison = tasks[3].id();   // always fails
  const std::string flaky = tasks[7].id();    // fails once, then succeeds
  const std::string path = temp_path("faults");

  std::mutex m;
  std::map<std::string, int> attempts;
  CampaignOptions options;
  options.out_path = path;
  options.fresh = true;
  options.progress = false;
  options.scheduler.jobs = 1;
  options.scheduler.max_attempts = 3;
  const auto report = run_campaign(
      spec,
      [&](const TaskSpec& task) -> TaskOutcome {
        int n;
        { std::lock_guard<std::mutex> lock(m); n = ++attempts[task.id()]; }
        if (task.id() == poison) throw std::runtime_error("co-sim abort");
        if (task.id() == flaky && n == 1) {
          TaskOutcome fail;
          fail.error = "transient divergence";
          return fail;
        }
        return fake_runner()(task);
      },
      options);

  EXPECT_EQ(report.ran, tasks.size());
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.ok, tasks.size() - 1);
  EXPECT_EQ(report.retried, 2u);  // the poison task and the flaky task
  EXPECT_EQ(attempts[poison], 3);
  EXPECT_EQ(attempts[flaky], 2);

  const auto stored = stored_by_id(path);
  const TaskRecord& poisoned = stored.at(poison);
  EXPECT_EQ(poisoned.status, "failed");
  EXPECT_EQ(poisoned.attempts, 3u);
  EXPECT_NE(poisoned.error.find("co-sim abort"), std::string::npos);
  const TaskRecord& flaked = stored.at(flaky);
  EXPECT_EQ(flaked.status, "ok");
  EXPECT_EQ(flaked.attempts, 2u);

  // retry_failed reruns exactly the failed task.
  options.fresh = false;
  options.retry_failed = true;
  const auto retry = run_campaign(spec, fake_runner(), options);
  EXPECT_EQ(retry.ran, 1u);
  EXPECT_EQ(retry.ok, 1u);
  EXPECT_EQ(stored_by_id(path).at(poison).status, "ok");
  std::remove(path.c_str());
}

TEST(Campaign, TimedOutTaskIsRecordedAndDoesNotKillTheCampaign) {
  SweepSpec spec = small_spec();
  spec.workloads = {"li"};
  spec.seeds = {0x5eed};
  const auto tasks = spec.expand();
  ASSERT_EQ(tasks.size(), 2u);
  const std::string slow = tasks[0].id();
  const std::string path = temp_path("timeout");

  CampaignOptions options;
  options.out_path = path;
  options.fresh = true;
  options.progress = false;
  options.scheduler.jobs = 1;
  options.scheduler.timeout_sec = 0.05;
  // `slow` by value: the timed-out attempt's detached thread outlives this
  // scope's locals (TaskRunner's contract).
  const auto report = run_campaign(
      spec,
      [slow](const TaskSpec& task) -> TaskOutcome {
        if (task.id() == slow)
          std::this_thread::sleep_for(std::chrono::milliseconds(500));
        return fake_runner()(task);
      },
      options);

  EXPECT_EQ(report.ran, 2u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.ok, 1u);
  EXPECT_EQ(stored_by_id(path).at(slow).status, "timeout");
  // Let the abandoned detached attempt drain before the test exits.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  std::remove(path.c_str());
}

TEST(Campaign, SameSpecAndSeedGivesByteIdenticalJsonlModuloDurations) {
  const SweepSpec spec = small_spec();
  const std::string path_a = temp_path("det_a");
  const std::string path_b = temp_path("det_b");
  CampaignOptions options;
  options.fresh = true;
  options.progress = false;
  options.scheduler.jobs = 1;  // sequential => record order is dispatch order
  options.out_path = path_a;
  run_campaign(spec, fake_runner(), options);
  options.out_path = path_b;
  run_campaign(spec, fake_runner(), options);

  const std::regex duration("\"duration_ms\":[0-9.]+");
  const std::string a =
      std::regex_replace(read_file(path_a), duration, "\"duration_ms\":X");
  const std::string b =
      std::regex_replace(read_file(path_b), duration, "\"duration_ms\":X");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// The rule CampaignLedger::pending() keeps: each workload's tasks in grid
// order, and no task dispatched while a workload with pending tasks has had
// fewer dispatched than the task's own workload (round-robin).
void expect_round_robin(const std::vector<TaskSpec>& tasks,
                        const std::vector<std::size_t>& order) {
  std::map<std::string, std::size_t> left, sent, last;
  for (const std::size_t i : order) ++left[tasks[i].workload];
  for (const std::size_t i : order) {
    const std::string& w = tasks[i].workload;
    if (sent[w] > 0) {
      EXPECT_LT(last[w], i) << "grid order broken in " << w;
    }
    for (const auto& [other, n] : left) {
      if (n > 0) {
        EXPECT_LE(sent[w], sent[other])
            << tasks[i].id() << " dispatched while " << other << " waits";
      }
    }
    last[w] = i;
    ++sent[w];
    --left[w];
  }
}

CampaignOptions ledger_options(const std::string& path, bool fresh) {
  CampaignOptions options;
  options.out_path = path;
  options.fresh = fresh;
  options.progress = false;
  return options;
}

TEST(DispatchOrder, Fig11StartsWithEveryWorkloadOnce) {
  const SweepSpec spec = find_campaign("fig11")->make();
  const std::string path = temp_path("dispatch_fig11");
  const CampaignLedger ledger(spec, ledger_options(path, true));
  const std::vector<std::size_t>& order = ledger.pending();
  ASSERT_EQ(order.size(), ledger.tasks().size());
  ASSERT_EQ(spec.workloads.size(), 11u);
  std::set<std::string> first;
  for (std::size_t k = 0; k < 11; ++k)
    first.insert(ledger.tasks()[order[k]].workload);
  EXPECT_EQ(first.size(), 11u);
  expect_round_robin(ledger.tasks(), order);
  const std::vector<TaskSpec> pending = ledger.pending_tasks();
  for (std::size_t k = 0; k < order.size(); ++k)
    EXPECT_EQ(pending[k].id(), ledger.tasks()[order[k]].id());
  std::remove(path.c_str());
}

TEST(DispatchOrder, ResumedStoreKeepsTheRuleForTheRest) {
  const SweepSpec spec = find_campaign("fig11")->make();
  const std::string path = temp_path("dispatch_resume");
  std::vector<std::size_t> first_run;
  {
    const CampaignLedger ledger(spec, ledger_options(path, true));
    first_run = ledger.pending();
  }
  // Two killed runs: one that ran the first half of the dispatch order,
  // and one (from a store written in grid order) that ran the first half
  // of the grid.
  const std::vector<TaskSpec> tasks = spec.expand();
  std::vector<std::size_t> grid(tasks.size());
  for (std::size_t i = 0; i < grid.size(); ++i) grid[i] = i;
  for (const std::vector<std::size_t>* ran : {&first_run, &grid}) {
    const std::size_t half = tasks.size() / 2;
    std::set<std::size_t> stored;
    {
      ResultStore store(path, /*truncate=*/true);
      for (std::size_t k = 0; k < half; ++k) {
        TaskRecord rec;
        rec.task = tasks[(*ran)[k]];
        rec.status = "ok";
        rec.stats = fake_stats(rec.task);
        store.append(rec);
        stored.insert((*ran)[k]);
      }
    }
    const CampaignLedger ledger(spec, ledger_options(path, false));
    const std::vector<std::size_t>& order = ledger.pending();
    EXPECT_EQ(order.size(), tasks.size() - half);
    for (const std::size_t i : order) EXPECT_EQ(stored.count(i), 0u);
    expect_round_robin(ledger.tasks(), order);
  }
  std::remove(path.c_str());
}

TEST(DispatchOrder, ReportsStayInGridOrderAndTheStoreHoldsEveryTask) {
  const SweepSpec spec = small_spec();
  const std::string path = temp_path("dispatch_report");
  CampaignOptions options = ledger_options(path, true);
  options.scheduler.jobs = 1;
  std::vector<TaskSpec> ran;  // jobs = 1 runs every task on this thread
  const CampaignReport report = run_campaign(
      spec,
      [&](const TaskSpec& task) {
        ran.push_back(task);
        return fake_runner()(task);
      },
      options);
  const std::vector<TaskSpec> tasks = spec.expand();
  ASSERT_EQ(report.records.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    EXPECT_EQ(report.records[i].task.id(), tasks[i].id());
  // The workloads alternate from the first task on.
  ASSERT_EQ(ran.size(), tasks.size());
  EXPECT_EQ(ran[0].id(), tasks[0].id());
  EXPECT_NE(ran[1].workload, ran[0].workload);
  // A sequential store appends in run order, and holds each task once with
  // the same record a grid-order run writes.
  const std::vector<TaskRecord> stored = load_records(path);
  ASSERT_EQ(stored.size(), tasks.size());
  std::set<std::string> ids;
  for (std::size_t k = 0; k < stored.size(); ++k) {
    EXPECT_EQ(stored[k].task.id(), ran[k].id());
    EXPECT_EQ(stored[k].status, "ok");
    EXPECT_EQ(stored[k].stats.cycles, fake_stats(stored[k].task).cycles);
    ids.insert(stored[k].task.id());
  }
  EXPECT_EQ(ids.size(), tasks.size());
  std::remove(path.c_str());
}

TEST(Campaign, SimRunnerMatchesLegacySimulate) {
  // The production runner must reproduce exactly what the legacy bench
  // drivers compute for the same configuration, program, and budgets.
  TaskSpec task;
  task.campaign = "equiv";
  task.workload = "li";
  task.seed = 0x5eed;
  task.machine.label = "full x2";
  task.machine.kind = MachineKind::Sliced;
  task.machine.slices = 2;
  task.machine.techniques = kAllTechniques;
  task.instructions = 5000;
  task.warmup = 1000;

  const TaskOutcome r = make_sim_runner()(task);
  ASSERT_TRUE(r.error.empty()) << r.error;

  const Workload w = build_workload("li");
  const SimResult direct = simulate(bitsliced_machine(2, kAllTechniques),
                                    w.program, 5000, 1000);
  ASSERT_TRUE(direct.ok()) << direct.error;
  EXPECT_EQ(r.stats.cycles, direct.stats.cycles);
  EXPECT_EQ(r.stats.committed, direct.stats.committed);
  EXPECT_EQ(r.stats.branch_mispredicts, direct.stats.branch_mispredicts);
  EXPECT_EQ(r.stats.l1d_misses, direct.stats.l1d_misses);
  EXPECT_EQ(r.stats.way_mispredicts, direct.stats.way_mispredicts);
}

TEST(Builtin, CampaignsExpandAndStayAlignedWithTheLegacyStacks) {
  ASSERT_NE(find_campaign("fig11"), nullptr);
  ASSERT_NE(find_campaign("abl_slice_width"), nullptr);
  // Figure 12 and Table 1 are views over the fig11 store, not campaigns.
  EXPECT_EQ(find_campaign("fig12"), nullptr);
  EXPECT_EQ(find_campaign("nope"), nullptr);

  const SweepSpec fig11 = find_campaign("fig11")->make();
  // base + (1 simple + 5 techniques) per slice count.
  EXPECT_EQ(fig11.machines.size(), 1u + 2u * (1u + technique_order().size()));
  EXPECT_EQ(fig11.workloads, workload_names());
  EXPECT_EQ(fig11.instructions, 200'000u);
  EXPECT_EQ(fig11.warmup, 300'000u);

  // The final stack point must be the full paper configuration.
  const MachinePoint& last = fig11.machines.back();
  EXPECT_EQ(last.kind, MachineKind::Sliced);
  EXPECT_EQ(last.slices, 4u);
  EXPECT_EQ(last.techniques, kAllTechniques);

  for (const auto& c : builtin_campaigns()) {
    const auto tasks = c.make().expand();
    EXPECT_FALSE(tasks.empty()) << c.name;
    std::set<std::string> ids;
    for (const auto& t : tasks) ids.insert(t.id());
    EXPECT_EQ(ids.size(), tasks.size()) << c.name;
    EXPECT_NE(find_view(c.name), nullptr) << c.name;
  }
}

// Every point of every built-in campaign builds exactly the MachineConfig
// the bench driver it replaced built by hand (the drivers' loops, copied
// here), so the ported campaigns simulate the same machines.
TEST(Builtin, CampaignPointsBuildTheLegacyDriverConfigs) {
  const auto all_but = [](Technique t) {
    return kAllTechniques & ~static_cast<unsigned>(t);
  };
  const auto with = [](MachineConfig cfg, auto edit) {
    edit(cfg);
    return cfg;
  };
  std::map<std::string, std::vector<MachineConfig>> legacy;
  legacy["fig11"] = {base_machine()};
  for (const unsigned s : {2u, 4u})
    for (const StackPoint& p : technique_stack(s))
      legacy["fig11"].push_back(p.config);
  legacy["abl_slice_width"] = {base_machine()};
  for (const unsigned s : {2u, 4u, 8u})
    legacy["abl_slice_width"].push_back(bitsliced_machine(s, kAllTechniques));
  for (const unsigned s : {2u, 4u, 8u})
    legacy["abl_slice_width"].push_back(simple_pipelined_machine(s));
  for (const TechniqueSet t :
       {kAllTechniques,
        kAllTechniques | static_cast<unsigned>(Technique::SpecForward),
        kAllTechniques | static_cast<unsigned>(Technique::NarrowWidth),
        kExtendedTechniques})
    legacy["abl_extensions"].push_back(bitsliced_machine(4, t));
  const TechniqueSet common = all_but(Technique::PartialTag);
  const unsigned tag = static_cast<unsigned>(Technique::PartialTag);
  const unsigned sam = static_cast<unsigned>(Technique::SumAddressed);
  for (const TechniqueSet t :
       {common, common | tag, common | sam, common | tag | sam})
    legacy["abl_sam"].push_back(bitsliced_machine(4, t));
  legacy["abl_seeds"] = {base_machine(), simple_pipelined_machine(2),
                         bitsliced_machine(2, kAllTechniques)};
  for (const bool bimodal : {false, true})
    for (const TechniqueSet t :
         {kAllTechniques, all_but(Technique::EarlyBranch)})
      legacy["abl_predictor"].push_back(
          with(bitsliced_machine(4, t),
               [&](MachineConfig& c) { c.branch.use_bimodal = bimodal; }));
  for (const WayPolicy w :
       {WayPolicy::MRU, WayPolicy::FirstMatch, WayPolicy::Random})
    legacy["abl_way_policy"].push_back(
        with(bitsliced_machine(2, kAllTechniques),
             [&](MachineConfig& c) { c.core.way_policy = w; }));
  for (const unsigned width : {2u, 4u, 8u}) {
    const auto resize = [&](MachineConfig& c) {
      c.core.ruu_entries = 16 * width;
      c.core.lsq_entries = 8 * width;
      c.core.fetch_width = c.core.issue_width = c.core.commit_width = width;
    };
    for (const MachineConfig& cfg :
         {base_machine(), simple_pipelined_machine(2),
          bitsliced_machine(2, kAllTechniques)})
      legacy["abl_window"].push_back(with(cfg, resize));
  }
  for (const unsigned s : {2u, 4u}) {
    legacy["abl_fp_corner"].push_back(simple_pipelined_machine(s));
    legacy["abl_fp_corner"].push_back(bitsliced_machine(s, kAllTechniques));
  }
  legacy["abl_stability"] = {bitsliced_machine(2, kAllTechniques)};

  ASSERT_EQ(legacy.size(), builtin_campaigns().size());
  for (const auto& c : builtin_campaigns()) {
    const SweepSpec spec = c.make();
    const auto& want = legacy.at(c.name);
    ASSERT_EQ(spec.machines.size(), want.size()) << c.name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const MachineConfig got = spec.machines[i].build();
      EXPECT_TRUE(got == want[i]) << c.name << " point " << i;
      EXPECT_EQ(got.describe(), want[i].describe()) << c.name << " " << i;
    }
  }
  // The drivers' default workload subsets and seeds.
  EXPECT_EQ(find_campaign("abl_seeds")->make().seeds,
            (std::vector<u64>{0x5eed, 0xD00D, 0xBEE5, 0x1234, 0xFEED}));
  EXPECT_EQ(find_campaign("abl_predictor")->make().workloads,
            (std::vector<std::string>{"go", "gcc", "li", "parser"}));
  EXPECT_EQ(find_campaign("abl_window")->make().workloads,
            (std::vector<std::string>{"bzip", "li", "vortex"}));
  EXPECT_EQ(find_campaign("abl_fp_corner")->make().workloads.front(),
            "fp_saxpy");
}

TEST(MachinePoint, OverridesEditThePresetAndRejectGarbage) {
  MachineConfig cfg = base_machine();
  ASSERT_TRUE(apply_overrides(cfg, ""));
  EXPECT_TRUE(cfg == base_machine());
  ASSERT_TRUE(apply_overrides(
      cfg, "ruu=128,lsq=64,width=8,predictor=bimodal,way=random"));
  EXPECT_EQ(cfg.core.ruu_entries, 128u);
  EXPECT_EQ(cfg.core.lsq_entries, 64u);
  EXPECT_EQ(cfg.core.fetch_width, 8u);
  EXPECT_EQ(cfg.core.issue_width, 8u);
  EXPECT_EQ(cfg.core.commit_width, 8u);
  EXPECT_TRUE(cfg.branch.use_bimodal);
  EXPECT_EQ(cfg.core.way_policy, WayPolicy::Random);
  for (const char* bad : {"ruu", "ruu=", "ruu=0", "ruu=-4", "ruu=4x",
                          "rob=32", "way=lru", "predictor=perceptron",
                          "ruu=32,"}) {
    std::string error;
    MachineConfig c = base_machine();
    EXPECT_FALSE(apply_overrides(c, bad, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  MachinePoint p;
  p.overrides = "width=banana";
  EXPECT_THROW(p.build(), std::invalid_argument);
}

TEST(MachinePoint, OverridesEnterTheIdAndRecordOnlyWhenSet) {
  TaskSpec t = small_spec().expand()[1];
  const std::string plain_id = t.id();
  const std::string plain_line = task_jsonl(t);
  EXPECT_EQ(plain_line.find("overrides"), std::string::npos);
  EXPECT_EQ(t.machine.key(), "sliced-x2-t0x1f");

  t.machine.overrides = "ruu=32,lsq=16,width=2";
  EXPECT_EQ(t.machine.key(), "sliced-x2-t0x1f+ruu=32,lsq=16,width=2");
  EXPECT_NE(t.id(), plain_id);
  const std::string line = task_jsonl(t);
  EXPECT_NE(line.find(R"("overrides":"ruu=32,lsq=16,width=2")"),
            std::string::npos);
  const auto back = parse_jsonl(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->task.machine.overrides, t.machine.overrides);
  EXPECT_EQ(back->task.id(), t.id());
  EXPECT_TRUE(back->task.machine.build() == t.machine.build());

  // And through a store: load_records keeps the override, and the
  // override-free twin stays a separate task.
  const std::string path = temp_path("overrides");
  {
    TaskRecord with;
    with.task = t;
    with.status = "ok";
    with.stats = fake_stats(t);
    TaskRecord without = with;
    without.task.machine.overrides.clear();
    std::ofstream out(path);
    out << to_jsonl(with) << "\n" << to_jsonl(without) << "\n";
  }
  const auto records = load_records(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].task.machine.overrides, "ruu=32,lsq=16,width=2");
  EXPECT_EQ(records[0].task.machine.build().core.ruu_entries, 32u);
  EXPECT_EQ(records[1].task.id(), plain_id);
  std::remove(path.c_str());
}

// Fake ok records for `spec` with a per-(workload, machine) IPC taken
// from `ipc`.
std::vector<TaskRecord> records_with_ipc(
    const SweepSpec& spec,
    const std::function<double(const TaskSpec&)>& ipc) {
  std::vector<TaskRecord> out;
  for (const TaskSpec& t : spec.expand()) {
    TaskRecord r;
    r.task = t;
    r.status = "ok";
    r.stats.committed = 100000;
    r.stats.cycles = static_cast<u64>(100000 / ipc(t));
    out.push_back(r);
  }
  return out;
}

std::string render(const std::string& view,
                   const std::vector<TaskRecord>& records) {
  std::ostringstream os;
  find_view(view)->render(records, false, os);
  return os.str();
}

// fig11 and fig12 must print the same average speedup of the full stack
// over simple pipelining, from one helper (the mean of per-benchmark
// ratios). The fake store makes the two candidate means differ, so a view
// that printed a ratio of means would fail.
TEST(Views, Fig11AndFig12PrintTheSameAverageSpeedup) {
  SweepSpec spec = find_campaign("fig11")->make();
  spec.workloads = {"li", "mcf"};
  const auto records = records_with_ipc(spec, [](const TaskSpec& t) {
    const double wl = t.workload == "li" ? 1.0 : 0.25;
    if (t.machine.kind == MachineKind::Base) return 1.2 * wl;
    if (t.machine.kind == MachineKind::Simple) return 0.5 * wl;
    return (t.machine.techniques == kAllTechniques
                ? (t.workload == "li" ? 1.0 : 0.4)
                : 0.6) *
           wl;
  });
  const std::string fig11 = render("fig11", records);
  const std::string fig12 = render("fig12", records);
  const std::string mean = R"(\(mean of per-benchmark ratios\): ([-0-9.]+%))";
  const std::regex f11("full vs simple pipelining " + mean);
  const std::regex f12("average total speedup " + mean);
  std::vector<std::string> a, b;
  for (std::sregex_iterator it(fig11.begin(), fig11.end(), f11), end;
       it != end; ++it)
    a.push_back((*it)[1]);
  for (std::sregex_iterator it(fig12.begin(), fig12.end(), f12), end;
       it != end; ++it)
    b.push_back((*it)[1]);
  ASSERT_EQ(a.size(), 2u) << fig11;  // x2 and x4
  EXPECT_EQ(a, b);
  // li: 1.0/0.5 = 2.0, mcf: 0.1/0.125 = 0.8 -> mean ratio 1.4 (+40%); the
  // ratio of means would be 1.1/0.625 = 1.76 (+76%).
  EXPECT_EQ(a[0], "40.0%");
  EXPECT_EQ(a[1], "40.0%");
}

// Every view over a tiny real campaign: its builtin campaign (fig11 for
// fig12 and table1) at 2000 instructions on li, plus fp_saxpy for the FP
// corner case, must print the line that carries its result.
class ViewSmoke
    : public testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(ViewSmoke, TinyCampaignPrintsItsResult) {
  const auto& [view, expect] = GetParam();
  const BuiltinCampaign* c = find_campaign(view);
  SweepSpec spec = (c ? c : find_campaign("fig11"))->make();
  spec.workloads = {"li"};
  if (view == "abl_fp_corner") spec.workloads.push_back("fp_saxpy");
  spec.instructions = 2000;
  spec.warmup = 0;
  CampaignOptions options;
  options.out_path = temp_path("view_" + view);
  options.fresh = true;
  options.progress = false;
  const auto report = run_campaign(spec, make_sim_runner(), options);
  EXPECT_EQ(report.ok, report.total);
  const std::string out = render(view, report.records);
  EXPECT_TRUE(std::regex_search(out, std::regex(expect))) << out;
  std::remove(options.out_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllViews, ViewSmoke,
    testing::Values(
        std::pair{"fig11", R"(full vs simple pipelining \(mean of per-)"},
        std::pair{"fig12", R"(average total speedup \(mean of per-)"},
        std::pair{"table1", R"(li +[0-9.]+ +[0-9.]+% .* 95%)"},
        std::pair{"abl_slice_width", R"(li +[0-9.]+ .*\nmean +[0-9.]+)"},
        std::pair{"abl_extensions", R"(li( +[0-9.]+){4}( +[0-9]+){3})"},
        std::pair{"abl_sam", R"(average( +[0-9.]+){4})"},
        std::pair{"abl_seeds", R"(li +spread +[-0-9.]+%\.\.)"},
        std::pair{"abl_predictor", R"(li +bimodal-4k +[0-9]+%)"},
        std::pair{"abl_way_policy", R"(li +first-match +[0-9.]+%)"},
        std::pair{"abl_window", R"(li +64/32, 4-wide \(Table 2\) +[0-9])"},
        std::pair{"abl_fp_corner", R"(fp/div saxpy +slice-by-4.*\n)"
                                   R"(integer suite avg +slice-by-2)"},
        std::pair{"abl_stability", R"(li +0 +[0-9.]+ +0\.0%)"}),
    [](const auto& info) { return std::string(info.param.first); });

TEST(Views, EveryCampaignViewRendersItsRecords) {
  for (const auto& c : builtin_campaigns()) {
    SweepSpec spec = c.make();
    spec.workloads.resize(1);
    spec.seeds.resize(std::min<std::size_t>(spec.seeds.size(), 2));
    const auto records =
        records_with_ipc(spec, [](const TaskSpec&) { return 1.0; });
    const std::string out = render(c.name, records);
    EXPECT_NE(out.find("1.00"), std::string::npos) << c.name << ":\n" << out;
    // Any view over any store renders without throwing.
    for (const auto& v : report_views()) render(v.name, records);
  }
}

TEST(SweepSpec, FastForwardEntersTaskIdOnlyWhenSet) {
  // Byte-compat: ff == 0 must produce the exact ids of old stores, so
  // existing campaign JSONL files still resume cleanly.
  SweepSpec spec = small_spec();
  const std::string plain = spec.expand().front().id();
  EXPECT_EQ(plain.find("/ff="), std::string::npos);

  spec.fast_forward = 5'000'000;
  const TaskSpec t = spec.expand().front();
  EXPECT_EQ(t.fast_forward, 5'000'000u);
  EXPECT_EQ(t.id(), plain + "/ff=5000000");
}

TEST(ResultStore, JsonlRoundTripsCheckpointCacheFields) {
  TaskRecord rec;
  rec.task = small_spec().expand().front();
  rec.task.fast_forward = 10'000'000;
  rec.status = "ok";
  rec.stats = fake_stats(rec.task);
  rec.ckpt_cache = "hit";
  rec.ffwd_sec = 2.25;

  const std::string line = to_jsonl(rec);
  EXPECT_NE(line.find("\"fast_forward\":10000000"), std::string::npos);
  const auto back = parse_jsonl(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->task.id(), rec.task.id());
  EXPECT_EQ(back->task.fast_forward, 10'000'000u);
  EXPECT_EQ(back->ckpt_cache, "hit");
  EXPECT_DOUBLE_EQ(back->ffwd_sec, 2.25);

  // Records without fast-forward keep the legacy shape: no new keys.
  TaskRecord legacy;
  legacy.task = small_spec().expand().front();
  legacy.status = "ok";
  legacy.stats = fake_stats(legacy.task);
  const std::string old_line = to_jsonl(legacy);
  EXPECT_EQ(old_line.find("fast_forward"), std::string::npos);
  EXPECT_EQ(old_line.find("ckpt_cache"), std::string::npos);
  const auto lback = parse_jsonl(old_line);
  ASSERT_TRUE(lback.has_value());
  EXPECT_EQ(lback->task.fast_forward, 0u);
  EXPECT_TRUE(lback->ckpt_cache.empty());
  EXPECT_DOUBLE_EQ(lback->ffwd_sec, 0.0);
}

TEST(CkptCache, MissMaterialisesThenHitsAndSurvivesCorruption) {
  const std::string dir =
      testing::TempDir() + "bsp_ckptcache_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const Workload w = build_workload("li");

  const CkptFetch miss = fetch_checkpoint(dir, "li", 0x5eed, w.program, 30'000);
  ASSERT_TRUE(miss.ok()) << miss.error;
  EXPECT_FALSE(miss.hit);
  EXPECT_GE(miss.ffwd_sec, 0.0);
  const ImageHash image(w.program);
  EXPECT_EQ(miss.path, checkpoint_cache_path(dir, "li", 0x5eed, image, 30'000));
  EXPECT_TRUE(std::filesystem::exists(miss.path));
  EXPECT_EQ(miss.checkpoint->retired, 30'000u);

  const CkptFetch hit = fetch_checkpoint(dir, "li", 0x5eed, w.program, 30'000);
  ASSERT_TRUE(hit.ok()) << hit.error;
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.checkpoint->pc, miss.checkpoint->pc);
  EXPECT_EQ(hit.checkpoint->regs, miss.checkpoint->regs);
  EXPECT_EQ(hit.checkpoint->retired, miss.checkpoint->retired);
  EXPECT_EQ(hit.checkpoint->pages.size(), miss.checkpoint->pages.size());

  // Distinct fast-forward counts key distinct files.
  EXPECT_NE(checkpoint_cache_path(dir, "li", 0x5eed, image, 30'000),
            checkpoint_cache_path(dir, "li", 0x5eed, image, 60'000));

  // A truncated cache file is a miss, not an error: re-materialised and
  // overwritten with a good image.
  {
    std::ofstream out(miss.path, std::ios::binary | std::ios::trunc);
    out << "BSPC";  // magic only
  }
  const CkptFetch heal = fetch_checkpoint(dir, "li", 0x5eed, w.program, 30'000);
  ASSERT_TRUE(heal.ok()) << heal.error;
  EXPECT_FALSE(heal.hit);
  const CkptFetch again = fetch_checkpoint(dir, "li", 0x5eed, w.program,
                                           30'000);
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_TRUE(again.hit);

  // The publish path (write tmp, rename) must never leave `.tmp.<pid>`
  // staging files behind, heal or no heal.
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << "stale staging file: " << entry.path();
  std::filesystem::remove_all(dir);
}

// FNV-1a a byte at a time over the fields ImageHash covers, then the
// fast-forward count: the reference for the chunked hash.
std::string byte_loop_cache_key(const Program& p, u64 fast_forward) {
  u64 h = 14695981039346656037ull;
  const auto bytes = [&h](const void* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<const unsigned char*>(data)[i];
      h *= 1099511628211ull;
    }
  };
  const auto word = [&bytes](u64 v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 8);
  };
  word(p.text_base);
  word(p.text.size());
  bytes(p.text.data(), p.text.size() * sizeof(u32));
  word(p.data_base);
  word(p.data.size());
  bytes(p.data.data(), p.data.size());
  word(p.entry);
  word(fast_forward);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ImageHash takes an all-zero 8-byte chunk in one multiply by P^8. Every
// key must still equal the byte loop's, whatever the zeros' sizes and
// offsets.
TEST(CkptCache, ZeroRunHashMatchesTheByteLoop) {
  const auto expect_same = [](const Program& p, const std::string& what) {
    for (const u64 ff : {u64{0}, u64{1'000'000}})
      EXPECT_EQ(ImageHash(p).key(ff), byte_loop_cache_key(p, ff))
          << what << ", fast_forward " << ff;
  };
  Program p;
  expect_same(p, "empty text and data");
  p.text = {0x24020001, 0, 0, 0x0000000c};  // zero words inside the text
  expect_same(p, "empty data");

  for (std::size_t n = 1; n <= 17; ++n) {
    p.data.assign(n, 0);
    expect_same(p, "all-zero data of " + std::to_string(n) + " bytes");
  }
  for (const std::size_t n : {std::size_t{4096}, std::size_t{2} << 20}) {
    p.data.assign(n, 0);
    expect_same(p, "all-zero data of " + std::to_string(n) + " bytes");
  }

  // A zero run of every length up to 20 at every start offset in two
  // chunks, inside 43 bytes of non-zero data: runs that straddle, fill and
  // miss 8-byte boundaries, and a size that is no multiple of 8.
  for (std::size_t start = 0; start < 16; ++start) {
    for (std::size_t len = 1; len <= 20; ++len) {
      p.data.assign(43, 0xa5);
      std::fill_n(p.data.begin() + start, len, 0);
      expect_same(p, "zeros at [" + std::to_string(start) + ", " +
                         std::to_string(start + len) + ")");
    }
  }

  p.data.resize(1003);
  for (std::size_t i = 0; i < p.data.size(); ++i)
    p.data[i] = static_cast<u8>(i % 255 + 1);
  expect_same(p, "data with no zero byte");

  p.data.assign(4099, 0);
  p.data[8] = 1;
  p.data[4098] = 0xff;
  expect_same(p, "sparse data of 4099 bytes");

  expect_same(build_workload("mcf").program, "mcf");
}

TEST(CkptCache, ConcurrentMaterialisationRaceIsSafe) {
  // Two threads race the same cold cache entry. Each writes to a private
  // tmp file and renames into place, so both must succeed, produce
  // identical checkpoints, and leave one valid cache file that later
  // fetches hit — no torn file, no error, regardless of who wins the
  // rename.
  const std::string dir =
      testing::TempDir() + "bsp_ckptrace_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const Workload w = build_workload("li");

  CkptFetch a, b;
  std::thread ta([&] {
    a = fetch_checkpoint(dir, "li", 0x5eed, w.program, 20'000);
  });
  std::thread tb([&] {
    b = fetch_checkpoint(dir, "li", 0x5eed, w.program, 20'000);
  });
  ta.join();
  tb.join();
  ASSERT_TRUE(a.ok()) << a.error;
  ASSERT_TRUE(b.ok()) << b.error;
  EXPECT_EQ(a.checkpoint->pc, b.checkpoint->pc);
  EXPECT_EQ(a.checkpoint->regs, b.checkpoint->regs);
  EXPECT_EQ(a.checkpoint->retired, 20'000u);
  EXPECT_TRUE(std::filesystem::exists(a.path));
  // No tmp litter survives the race.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);

  const CkptFetch after = fetch_checkpoint(dir, "li", 0x5eed, w.program,
                                           20'000);
  ASSERT_TRUE(after.ok()) << after.error;
  EXPECT_TRUE(after.hit);
  std::filesystem::remove_all(dir);
}

TEST(Campaign, SimRunnerMemoisesTheCheckpointSoOneTaskPaysTheMiss) {
  // Within one runner (one sweep), concurrent tasks sharing a
  // (workload, seed, ff) group must fast-forward once: the shared-future
  // memo makes exactly one task the payer ("miss"); every other task
  // reports "hit" even when they all start simultaneously.
  const std::string dir =
      testing::TempDir() + "bsp_ckptmemo_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  RunnerOptions ropts;
  ropts.ckpt_cache_dir = dir;
  const TaskRunner runner = make_sim_runner(ropts);

  SweepSpec spec = small_spec();
  spec.workloads = {"li"};
  spec.seeds = {0x5eed};
  spec.fast_forward = 30'000;
  spec.instructions = 500;
  const auto tasks = spec.expand();
  ASSERT_EQ(tasks.size(), 2u);

  std::vector<TaskOutcome> results(tasks.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < tasks.size(); ++i)
    threads.emplace_back([&, i] { results[i] = runner(tasks[i]); });
  for (auto& t : threads) t.join();

  std::size_t misses = 0, hits = 0;
  for (const TaskOutcome& r : results) {
    ASSERT_TRUE(r.error.empty()) << r.error;
    if (r.ckpt_cache == "miss") ++misses;
    if (r.ckpt_cache == "hit") ++hits;
  }
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(hits, tasks.size() - 1);
  std::filesystem::remove_all(dir);
}

TEST(ResultStore, JsonlRoundTripsSampledFields) {
  TaskRecord rec;
  rec.task = small_spec().expand().front();
  rec.status = "ok";
  rec.stats = fake_stats(rec.task);
  rec.sample_intervals = 4;
  rec.sample_warmup = 2'000;
  rec.ipc_mean = 1.537625;
  rec.ipc_ci95 = 0.078125;
  rec.samples = {{0, 0, 0, 1'000, 12'648, 1'000},
                 {1, 0, 1'000, 1'000, 9'967, 1'000}};

  const auto back = parse_jsonl(to_jsonl(rec));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sample_intervals, 4u);
  EXPECT_EQ(back->sample_warmup, 2'000u);
  EXPECT_DOUBLE_EQ(back->ipc_mean, 1.537625);
  EXPECT_DOUBLE_EQ(back->ipc_ci95, 0.078125);
  EXPECT_EQ(back->samples, rec.samples);

  // Non-sampled records keep the legacy byte shape: no sampled keys at
  // all, and parsing leaves the fields zeroed.
  TaskRecord legacy;
  legacy.task = rec.task;
  legacy.status = "ok";
  legacy.stats = fake_stats(legacy.task);
  const std::string line = to_jsonl(legacy);
  EXPECT_EQ(line.find("sample_intervals"), std::string::npos);
  EXPECT_EQ(line.find("ipc_mean"), std::string::npos);
  EXPECT_EQ(line.find("\"samples\""), std::string::npos);
  const auto lback = parse_jsonl(line);
  ASSERT_TRUE(lback.has_value());
  EXPECT_EQ(lback->sample_intervals, 0u);
  EXPECT_TRUE(lback->samples.empty());
}

// The store's bytes are the contract resumed stores and bsp-report rely
// on: these literal lines pin to_jsonl for each record shape, so a change
// to how records are declared or assembled cannot silently move a key, a
// default or a number format.
TEST(ResultStore, JsonlBytesArePinned) {
  const std::string kStats =
      R"("stats":{"cycles":1234,"committed":1000,"dispatched":0,)"
      R"("bogus_dispatched":0,"branches":77,"branch_mispredicts":0,)"
      R"("early_resolved_branches":0,"loads":0,"stores":0,)"
      R"("load_forwards":0,"loads_issued_partial_lsq":0,)"
      R"("partial_tag_accesses":0,"way_mispredicts":0,)"
      R"("early_miss_detects":0,"load_replays":0,"op_replays":0,)"
      R"("spec_forwards":0,"spec_forward_misses":0,"narrow_operands":0,)"
      R"("l1d_hits":0,"l1d_misses":5,"idle_cycles_skipped":0,"cpi_base":0,)"
      R"("cpi_fe_icache":0,"cpi_fe_fill":0,"cpi_br_squash":0,)"
      R"("cpi_ruu_full":0,"cpi_slice_low":0,"cpi_slice_chain":0,)"
      R"("cpi_exec_unit":0,"cpi_br_resolve":0,"cpi_lsq_disambig":0,)"
      R"("cpi_dcache":0,"cpi_partial_tag":0,"cpi_spec_forward":0,)"
      R"("cpi_store_data":0,"cpi_drain":0,"cpi_other":0,"ipc":0.810373})";
  SimStats stats;
  stats.cycles = 1234;
  stats.committed = 1000;
  stats.branches = 77;
  stats.l1d_misses = 5;
  stats.host_seconds = 0.25;

  TaskRecord mono;
  mono.task = small_spec().expand()[1];
  mono.task.fast_forward = 50'000;
  mono.status = "ok";
  mono.attempts = 1;
  mono.duration_ms = 3.5;
  mono.stats = stats;
  mono.stats.host_profile.enabled = true;
  mono.stats.host_profile.commit = 0.125;
  mono.stats.host_profile.ffwd = 0.5;
  mono.stats.host_profile.loop_cycles = 900;
  mono.interval = 500;
  mono.series = {{600, 500, 1, 2}, {1234, 1000, 3, 4}};
  mono.ckpt_cache = "miss";
  mono.ffwd_sec = 0.5;
  EXPECT_EQ(to_jsonl(mono),
      R"({"campaign":"unit",)"
      R"("task":"unit/li/seed=0x5eed/sliced-x2-t0x1f/n=1000/w=0/ff=50000",)"
      R"("workload":"li","seed":"0x5eed","machine":"sliced","slices":2,)"
      R"("techniques":"0x1f","label":"full x2","instructions":1000,)"
      R"("warmup":0,"fast_forward":50000,)"
      R"("status":"ok","attempts":1,"duration_ms":3.500,)"
      R"("host_seconds":0.250,"ckpt_cache":"miss","ffwd_sec":0.500000,)"
      R"("host_phases":{"commit":0.125000,"resolve":0.000000,)"
      R"("select":0.000000,"memory":0.000000,"dispatch":0.000000,)"
      R"("fetch":0.000000,"cosim":0.000000,"replay":0.000000,)"
      R"("ffwd":0.500000,"loop_cycles":900},)" +
            kStats +
      R"(,"interval":500,"series":[[600,500,1,2],[1234,1000,3,4]]})");

  TaskRecord sampled;  // attempts left at the TaskRecord default
  sampled.task = small_spec().expand().front();
  sampled.status = "ok";
  sampled.duration_ms = 7.25;
  sampled.stats = stats;
  sampled.ckpt_cache = "hit";
  sampled.sample_intervals = 2;
  sampled.sample_warmup = 2000;
  sampled.ipc_mean = 0.8125;
  sampled.ipc_ci95 = 0.0625;
  sampled.samples = {{0, 0, 0, 500, 610, 500}, {1, 2500, 2000, 500, 624, 500}};
  EXPECT_EQ(to_jsonl(sampled),
      R"({"campaign":"unit","task":"unit/li/seed=0x5eed/base/n=1000/w=0",)"
      R"("workload":"li","seed":"0x5eed","machine":"base","slices":1,)"
      R"("techniques":"0x0","label":"base","instructions":1000,"warmup":0,)"
      R"("status":"ok","attempts":1,"duration_ms":7.250,)"
      R"("host_seconds":0.250,"ckpt_cache":"hit","ffwd_sec":0.000000,)" +
            kStats +
      R"(,"sample_intervals":2,"sample_warmup":2000,"ipc_mean":0.812500,)"
      R"("ipc_ci95":0.062500,"samples":[[0,0,0,500,610,500],[1,2500,2000,)"
      R"(500,624,500]]})");

  TaskRecord failed;
  failed.task = small_spec().expand()[2];
  failed.status = "failed";
  failed.error = "co-simulation divergence at \"pc\"\n";
  failed.attempts = 2;
  failed.duration_ms = 41.0;
  failed.stats = stats;
  failed.max_rss_kb = 20480;
  failed.user_sec = 0.375;
  failed.sys_sec = 0.0625;
  EXPECT_EQ(to_jsonl(failed),
      R"({"campaign":"unit","task":"unit/li/seed=0x1234/base/n=1000/w=0",)"
      R"("workload":"li","seed":"0x1234","machine":"base","slices":1,)"
      R"("techniques":"0x0","label":"base","instructions":1000,"warmup":0,)"
      R"("status":"failed","attempts":2,"duration_ms":41.000,)"
      R"("host_seconds":0.250,"rusage":{"max_rss_kb":20480,)"
      R"("user_sec":0.375,"sys_sec":0.062},)"
      R"("error":"co-simulation divergence at \"pc\"\n"})");

  // A queued line carries attempts 1, the TaskRecord default.
  EXPECT_EQ(task_jsonl(mono.task),
      R"({"campaign":"unit",)"
      R"("task":"unit/li/seed=0x5eed/sliced-x2-t0x1f/n=1000/w=0/ff=50000",)"
      R"("workload":"li","seed":"0x5eed","machine":"sliced","slices":2,)"
      R"("techniques":"0x1f","label":"full x2","instructions":1000,)"
      R"("warmup":0,"fast_forward":50000,)"
      R"("status":"queued","attempts":1,"duration_ms":0.000,)"
      R"("host_seconds":0.000})");
}

// One line of each record shape JsonlBytesArePinned pins, built the same
// way: monolithic (every optional block, series included), sampled, failed
// with rusage, and queued.
std::vector<std::string> record_shape_lines() {
  SimStats stats;
  stats.cycles = 1234;
  stats.committed = 1000;
  stats.branches = 77;
  stats.l1d_misses = 5;
  stats.host_seconds = 0.25;

  TaskRecord mono;
  mono.task = small_spec().expand()[1];
  mono.task.fast_forward = 50'000;
  mono.status = "ok";
  mono.duration_ms = 3.5;
  mono.stats = stats;
  mono.stats.host_profile.enabled = true;
  mono.stats.host_profile.commit = 0.125;
  mono.stats.host_profile.ffwd = 0.5;
  mono.stats.host_profile.loop_cycles = 900;
  mono.interval = 500;
  mono.series = {{600, 500, 1, 2}, {1234, 1000, 3, 4}};
  mono.ckpt_cache = "miss";
  mono.ffwd_sec = 0.5;

  TaskRecord sampled;
  sampled.task = small_spec().expand().front();
  sampled.status = "ok";
  sampled.duration_ms = 7.25;
  sampled.stats = stats;
  sampled.ckpt_cache = "hit";
  sampled.sample_intervals = 2;
  sampled.sample_warmup = 2000;
  sampled.ipc_mean = 0.8125;
  sampled.ipc_ci95 = 0.0625;
  sampled.samples = {{0, 0, 0, 500, 610, 500}, {1, 2500, 2000, 500, 624, 500}};

  TaskRecord failed;
  failed.task = small_spec().expand()[2];
  failed.status = "failed";
  failed.error = "co-simulation divergence at \"pc\"\n";
  failed.attempts = 2;
  failed.duration_ms = 41.0;
  failed.max_rss_kb = 20480;
  failed.user_sec = 0.375;
  failed.sys_sec = 0.0625;

  return {to_jsonl(mono), to_jsonl(sampled), to_jsonl(failed),
          task_jsonl(mono.task)};
}

// A killed writer can stop anywhere in a line, and a prefix that happens to
// end on a nested '}' (after "stats" or "rusage") must not read back as a
// smaller record: a sampled run as a monolithic one, a failure without its
// error, a series run without its series.
TEST(ResultStore, EveryProperPrefixOfARecordLineIsRejected) {
  for (const std::string& line : record_shape_lines()) {
    ASSERT_TRUE(parse_jsonl(line).has_value()) << line;
    for (std::size_t n = 0; n < line.size(); ++n)
      EXPECT_FALSE(parse_jsonl(line.substr(0, n)).has_value())
          << "accepted prefix: " << line.substr(0, n);
  }
}

TEST(ResultStore, TornSampledTailIsNotADoneTask) {
  const std::vector<std::string> lines = record_shape_lines();
  const std::string& sampled = lines[1];
  const std::size_t cut = sampled.find(",\"sample_intervals\"");
  ASSERT_NE(cut, std::string::npos);
  ASSERT_EQ(sampled[cut - 1], '}');  // the torn line ends on stats' brace
  const std::string path = temp_path("torn_sampled");
  {
    std::ofstream out(path, std::ios::binary);
    out << lines[0] << "\n" << sampled.substr(0, cut);
  }
  const auto stored = stored_by_id(path);
  EXPECT_EQ(stored.size(), 1u);
  EXPECT_EQ(stored.count(small_spec().expand().front().id()), 0u);
  std::remove(path.c_str());
}

// Integers are read exactly or not at all: no wrap of a negative number, no
// truncation of a fraction, no seed of 0 from bad hex, no counter a double
// cannot hold exactly.
TEST(ResultStore, MalformedNumbersAreRejected) {
  const std::vector<std::string> lines = record_shape_lines();
  const std::string& record = lines[0];
  const std::string& queued = lines[3];
  const auto with = [](std::string line, const std::string& from,
                       const std::string& to) {
    const std::size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? line : line.replace(at, from.size(), to);
  };
  const std::vector<std::pair<std::string, std::string>> task_edits = {
      {"\"instructions\":1000", "\"instructions\":-200000"},
      {"\"seed\":\"0x5eed\"", "\"seed\":\"0xZZ\""},
      {"\"seed\":\"0x5eed\"", "\"seed\":\"5eed\""},
      {"\"seed\":\"0x5eed\"", "\"seed\":\"0x\""},
      {"\"seed\":\"0x5eed\"", "\"seed\":\"0x10000000000000000\""},
      {"\"techniques\":\"0x1f\"", "\"techniques\":\"0x100000000\""},
      {"\"attempts\":1,", "\"attempts\":1.5,"},
      {"\"slices\":2", "\"slices\":-2"},
      {"\"slices\":2", "\"slices\":4294967298"},
      {"\"fast_forward\":50000", "\"fast_forward\":\"50000\""},
  };
  for (const auto& [from, to] : task_edits) {
    EXPECT_FALSE(parse_jsonl(with(queued, from, to)).has_value()) << to;
    EXPECT_FALSE(parse_jsonl(with(record, from, to)).has_value()) << to;
  }
  // 2^53 + 1 reads back as the double 2^53: no counter at or above 2^53
  // can be trusted, and none below it is ever rounded.
  for (const char* counter :
       {"\"cycles\":9007199254740993", "\"cycles\":18446744073709551615",
        "\"cycles\":-1"})
    EXPECT_FALSE(
        parse_jsonl(with(record, "\"cycles\":1234", counter)).has_value())
        << counter;
  EXPECT_FALSE(parse_jsonl(with(record, "[600,500,1,2]", "[600,-500,1,2]"))
                   .has_value());
  const auto top = parse_jsonl(
      with(record, "\"cycles\":1234", "\"cycles\":9007199254740991"));
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->stats.cycles, 9007199254740991u);
}

TEST(Campaign, WarmCheckpointCacheReproducesColdStatsWithAllHits) {
  // The acceptance property end to end: a fast-forwarding sweep run cold
  // (empty cache) and again warm (cache populated) must produce identical
  // SimStats per task, with the warm run reporting every task as a cache
  // hit and zero new materialisations.
  SweepSpec spec;
  spec.name = "ckptwarm";
  spec.workloads = {"li"};
  spec.seeds = {0x5eed};
  spec.instructions = 2'000;
  spec.warmup = 500;
  spec.fast_forward = 50'000;
  MachinePoint base;
  base.label = "base";
  spec.machines.push_back(base);
  MachinePoint sliced;
  sliced.label = "full x2";
  sliced.kind = MachineKind::Sliced;
  sliced.slices = 2;
  sliced.techniques = kAllTechniques;
  spec.machines.push_back(sliced);

  const std::string dir =
      testing::TempDir() + "bsp_ckptwarm_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  CampaignOptions options;
  options.fresh = true;
  options.progress = false;
  options.scheduler.ckpt_cache_dir = dir;
  RunnerOptions ropts;
  ropts.ckpt_cache_dir = dir;

  const std::string cold_path = temp_path("ckpt_cold");
  const std::string warm_path = temp_path("ckpt_warm");
  options.out_path = cold_path;
  const auto cold = run_campaign(spec, make_sim_runner(ropts), options);
  EXPECT_EQ(cold.ok, 2u);
  EXPECT_EQ(cold.prewarm.groups, 1u);
  EXPECT_EQ(cold.prewarm.materialised, 1u);
  EXPECT_EQ(cold.prewarm.reused, 0u);
  // The prewarm pass already paid the fast-forward, so the tasks
  // themselves all restore from cache.
  EXPECT_EQ(cold.ckpt_hits, 2u);
  EXPECT_EQ(cold.ckpt_misses, 0u);

  options.out_path = warm_path;
  const auto warm = run_campaign(spec, make_sim_runner(ropts), options);
  EXPECT_EQ(warm.ok, 2u);
  EXPECT_EQ(warm.prewarm.materialised, 0u);
  EXPECT_EQ(warm.prewarm.reused, 1u);
  EXPECT_EQ(warm.ckpt_hits, 2u);
  EXPECT_EQ(warm.ckpt_misses, 0u);

  // Identical stats task by task — the cache is invisible to timing.
  ASSERT_EQ(cold.records.size(), warm.records.size());
  for (std::size_t i = 0; i < cold.records.size(); ++i) {
    const SimStats& a = cold.records[i].stats;
    const SimStats& b = warm.records[i].stats;
    EXPECT_EQ(cold.records[i].task.id(), warm.records[i].task.id());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.branch_mispredicts, b.branch_mispredicts);
    EXPECT_EQ(a.l1d_misses, b.l1d_misses);
    EXPECT_EQ(a.way_mispredicts, b.way_mispredicts);
  }

  std::remove(cold_path.c_str());
  std::remove(warm_path.c_str());
  std::filesystem::remove_all(dir);
}

TEST(Campaign, SummaryTableCoversTheGrid) {
  const SweepSpec spec = small_spec();
  const std::string path = temp_path("summary");
  CampaignOptions options;
  options.out_path = path;
  options.fresh = true;
  options.progress = false;
  const auto report = run_campaign(spec, fake_runner(), options);
  // The one-IPC-column-per-machine table abl_slice_width prints.
  std::ostringstream os;
  find_view("abl_slice_width")->render(report.records, true, os);
  // Header, workload x seed rows and the mean row are the CSV lines.
  std::istringstream lines(os.str());
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);)
    rows += line.find(',') != std::string::npos;
  EXPECT_EQ(rows, spec.workloads.size() * spec.seeds.size() + 2) << os.str();
  const std::string csv = os.str();
  EXPECT_NE(csv.find("li seed=0x1234,"), std::string::npos) << csv;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bsp::campaign
