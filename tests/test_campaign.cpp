// Campaign engine tests: deterministic grid expansion, JSONL round-trips,
// checkpoint/resume, fault isolation with bounded retry, timeouts, and
// byte-determinism of the result store. Uses synthetic runners throughout
// (no simulation) except the one equivalence test that pins the production
// runner to simulate().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
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
#include "campaign/progress.hpp"
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
  // Worker stderr tails can carry arbitrary \uXXXX escapes from external
  // writers. A valid pair must combine; an unpaired surrogate must decode
  // to U+FFFD (never to encoded-surrogate invalid UTF-8); bad hex must
  // pass the escape through verbatim, backslash included.
  TaskRecord rec;
  rec.task = small_spec().expand().front();
  rec.status = "failed";
  rec.error = "MARKER";
  std::string line = to_jsonl(rec);
  const std::string marker = "\"error\":\"MARKER\"";
  const std::size_t at = line.find(marker);
  ASSERT_NE(at, std::string::npos);
  line.replace(at, marker.size(),
               "\"error\":\"\\ud83d\\ude00 \\ud800x \\udc00 \\uZZZZ\"");
  const auto back = parse_jsonl(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->error,
            "\xF0\x9F\x98\x80 \xEF\xBF\xBDx \xEF\xBF\xBD \\uZZZZ");
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
  ResultStore store(path);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.has(rec.task.id()));
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
  // ResultStore agrees (it is built on the same read path).
  ResultStore store(path);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.status(tasks[0].id()), "ok");
  std::remove(path.c_str());
}

TEST(Progress, ResumeRateAndEtaComeFromThisRunOnly) {
  // 90 of 100 tasks were satisfied by the resumed store. Five more finish
  // in the first 10 seconds of this run: the rate must be 0.5/s (not the
  // 9.5/s a naive done/elapsed over the full baseline would claim), and
  // the ETA must extrapolate only over the 5 genuinely remaining tasks.
  ProgressMeter meter("unit", 100, 90, /*enabled=*/false);
  ProgressSnapshot fresh = meter.snapshot_at(10.0);
  EXPECT_EQ(fresh.total, 100u);
  EXPECT_EQ(fresh.skipped, 90u);
  EXPECT_EQ(fresh.remaining, 10u);
  EXPECT_DOUBLE_EQ(fresh.rate, 0.0);
  EXPECT_LT(fresh.eta_sec, 0) << "no completions yet: ETA is unknown";
  for (int i = 0; i < 5; ++i) {
    TaskOutcome out;
    out.status = "ok";
    out.attempts = 1;
    meter.task_done(out);
  }
  const ProgressSnapshot s = meter.snapshot_at(10.0);
  EXPECT_EQ(s.done, 5u);
  EXPECT_EQ(s.remaining, 5u);
  EXPECT_DOUBLE_EQ(s.rate, 0.5);
  EXPECT_DOUBLE_EQ(s.eta_sec, 10.0);
}

TEST(Progress, OverfullResumeBaselineFloorsRemainingAtZero) {
  // A store can hold more satisfied tasks than the (narrowed) spec asks
  // for; remaining must floor at zero rather than wrap.
  ProgressMeter meter("unit", 4, 4, /*enabled=*/false);
  TaskOutcome out;
  out.status = "ok";
  meter.task_done(out);
  const ProgressSnapshot s = meter.snapshot_at(1.0);
  EXPECT_EQ(s.remaining, 0u);
  EXPECT_DOUBLE_EQ(s.eta_sec, 0.0);
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

  ResultStore store(path);
  const TaskRecord* poisoned = store.find(poison);
  ASSERT_NE(poisoned, nullptr);
  EXPECT_EQ(poisoned->status, "failed");
  EXPECT_EQ(poisoned->attempts, 3u);
  EXPECT_NE(poisoned->error.find("co-sim abort"), std::string::npos);
  const TaskRecord* flaked = store.find(flaky);
  ASSERT_NE(flaked, nullptr);
  EXPECT_EQ(flaked->status, "ok");
  EXPECT_EQ(flaked->attempts, 2u);

  // retry_failed reruns exactly the failed task.
  options.fresh = false;
  options.retry_failed = true;
  const auto retry = run_campaign(spec, fake_runner(), options);
  EXPECT_EQ(retry.ran, 1u);
  EXPECT_EQ(retry.ok, 1u);
  ResultStore after(path);
  EXPECT_EQ(after.status(poison), "ok");
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
  ResultStore store(path);
  EXPECT_EQ(store.status(slow), "timeout");
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
  options.scheduler.jobs = 1;  // sequential => record order is task order
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
  ASSERT_NE(find_campaign("fig12"), nullptr);
  ASSERT_NE(find_campaign("abl_slice_width"), nullptr);
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

  // The durable publish path (write tmp, fsync, rename, fsync dir) must
  // never leave `.tmp.<pid>` staging files behind, heal or no heal.
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << "stale staging file: " << entry.path();
  std::filesystem::remove_all(dir);
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
  mono.task.cosim = "spot:64";
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
      R"("task":"unit/li/seed=0x5eed/sliced-x2-t0x1f/n=1000/w=0/ff=50000/co)"
      R"(sim=spot:64",)"
      R"("workload":"li","seed":"0x5eed","machine":"sliced","slices":2,)"
      R"("techniques":"0x1f","label":"full x2","instructions":1000,)"
      R"("warmup":0,"fast_forward":50000,"cosim_mode":"spot:64",)"
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
      R"("task":"unit/li/seed=0x5eed/sliced-x2-t0x1f/n=1000/w=0/ff=50000/co)"
      R"(sim=spot:64",)"
      R"("workload":"li","seed":"0x5eed","machine":"sliced","slices":2,)"
      R"("techniques":"0x1f","label":"full x2","instructions":1000,)"
      R"("warmup":0,"fast_forward":50000,"cosim_mode":"spot:64",)"
      R"("status":"queued","attempts":1,"duration_ms":0.000,)"
      R"("host_seconds":0.000})");
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
  const Table table = summary_table(spec, report);
  // workload x seed rows plus the mean row.
  EXPECT_EQ(table.rows(), spec.workloads.size() * spec.seeds.size() + 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bsp::campaign
