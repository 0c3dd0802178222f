// Sampled-simulation tests: planner invariants, the stat-merge algebra the
// stitcher is built on, the Student-t error bound, the interval JSONL
// bytes, and the engine's acceptance properties — a 1-interval run is
// bit-identical to the monolithic run, every interval equals the task it
// describes, per-interval stats are
// deterministic across reruns, the prewarm pass reuses published
// checkpoints, a fast-forward the program never reaches fails the run as
// it fails the monolithic one, and a K-interval estimate's confidence
// interval contains the monolithic IPC on the pinned workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/campaign.hpp"
#include "campaign/ckpt_cache.hpp"
#include "campaign/scheduler.hpp"
#include "config/machine_config.hpp"
#include "core/simulator.hpp"
#include "emu/checkpoint.hpp"
#include "obs/interval.hpp"
#include "obs/json.hpp"
#include "sampling/sampled.hpp"
#include "stats/stats.hpp"
#include "workloads/workloads.hpp"

namespace bsp::sampling {
namespace {

// --- planner ---------------------------------------------------------------

TEST(Plan, SingleIntervalIsExactlyTheMonolithicRun) {
  const SamplePlan p = plan_intervals(12'000, 3'000, 40'000, 1, 2'000);
  ASSERT_EQ(p.intervals.size(), 1u);
  const IntervalSpec& s = p.intervals[0];
  EXPECT_EQ(s.offset, 40'000u);   // the run's own fast-forward boundary
  EXPECT_EQ(s.warmup, 3'000u);    // the monolithic warm-up, not sample_warmup
  EXPECT_EQ(s.commits, 12'000u);
  EXPECT_EQ(s.measured_start, 0u);
}

TEST(Plan, ChunksAreContiguousExhaustiveAndBalanced) {
  const u64 kM = 10'001, kW = 500, kFF = 0, kN = 300;
  const SamplePlan p = plan_intervals(kM, kW, kFF, 4, kN);
  ASSERT_EQ(p.intervals.size(), 4u);

  u64 covered = 0;
  for (std::size_t i = 0; i < p.intervals.size(); ++i) {
    const IntervalSpec& s = p.intervals[i];
    EXPECT_EQ(s.index, static_cast<unsigned>(i));
    EXPECT_EQ(s.measured_start, covered) << "gap or overlap at interval " << i;
    covered += s.commits;
    if (i == 0) {
      EXPECT_EQ(s.offset, kFF);
      EXPECT_EQ(s.warmup, kW);
    } else {
      // pos = FF + W + measured_start; warm-up never reaches before reset.
      const u64 pos = kFF + kW + s.measured_start;
      EXPECT_EQ(s.warmup, std::min(kN, pos));
      EXPECT_EQ(s.offset, pos - s.warmup);
    }
  }
  EXPECT_EQ(covered, kM);
  // Sizes differ by at most one; the remainder goes to the earliest chunks.
  EXPECT_EQ(p.intervals[0].commits, 2'501u);
  EXPECT_EQ(p.intervals[3].commits, 2'500u);
}

TEST(Plan, PerIntervalWarmupClampsToThePositionBeforeReset) {
  // With no fast-forward and no monolithic warm-up, interval 1 starts at
  // measured position 100 — a 5'000-commit warm-up request must clamp to
  // everything available (offset 0, warm-up 100), not underflow.
  const SamplePlan p = plan_intervals(400, 0, 0, 4, 5'000);
  ASSERT_EQ(p.intervals.size(), 4u);
  EXPECT_EQ(p.intervals[1].offset, 0u);
  EXPECT_EQ(p.intervals[1].warmup, 100u);
}

TEST(Plan, IntervalCountClampsToCommits) {
  // More intervals than commits: every interval still measures >= 1.
  const SamplePlan p = plan_intervals(3, 0, 0, 8, 100);
  EXPECT_EQ(p.intervals.size(), 3u);
  for (const IntervalSpec& s : p.intervals) EXPECT_EQ(s.commits, 1u);
  // K = 0 is treated as 1.
  EXPECT_EQ(plan_intervals(100, 0, 0, 0, 0).intervals.size(), 1u);
}

// --- merge algebra ----------------------------------------------------------

TEST(Merge, SimStatsSumsEveryRegisteredCounter) {
  const auto& counters = obs::simstats_counters();
  ASSERT_FALSE(counters.empty());
  SimStats a, b;
  for (std::size_t i = 0; i < counters.size(); ++i) {
    a.*(counters[i].field) = i + 1;
    b.*(counters[i].field) = 1'000 + i;
  }
  a.host_seconds = 1.5;
  b.host_seconds = 2.25;
  a.merge(b);
  for (std::size_t i = 0; i < counters.size(); ++i)
    EXPECT_EQ(a.*(counters[i].field), (i + 1) + (1'000 + i))
        << "counter '" << counters[i].name << "' not summed by merge";
  EXPECT_DOUBLE_EQ(a.host_seconds, 3.75);
}

TEST(Merge, HostProfileSumsPhasesAndStaysDisabledWhenBothAre) {
  SimStats a, b;
  a.host_profile.enabled = true;
  a.host_profile.fetch = 0.5;
  b.host_profile.enabled = true;
  b.host_profile.fetch = 0.25;
  b.host_profile.commit = 1.0;
  a.merge(b);
  EXPECT_TRUE(a.host_profile.enabled);
  EXPECT_DOUBLE_EQ(a.host_profile.fetch, 0.75);
  EXPECT_DOUBLE_EQ(a.host_profile.commit, 1.0);

  SimStats c, d;
  c.merge(d);
  EXPECT_FALSE(c.host_profile.enabled);
}

// --- error bound ------------------------------------------------------------

TEST(Stitch, TCriticalMatchesTheTwoSidedTable) {
  EXPECT_GE(t_critical_975(0), 1e9);  // no variance estimate: +inf semantics
  EXPECT_NEAR(t_critical_975(1), 12.706, 1e-3);
  EXPECT_NEAR(t_critical_975(3), 3.182, 1e-3);
  EXPECT_NEAR(t_critical_975(30), 2.042, 1e-3);
  EXPECT_NEAR(t_critical_975(31), 1.96, 1e-9);   // normal approximation
  EXPECT_NEAR(t_critical_975(1000), 1.96, 1e-9);
}

IntervalResult measured_interval(unsigned index, u64 cycles, u64 committed) {
  IntervalResult r;
  r.spec.index = index;
  r.stats.cycles = cycles;
  r.stats.committed = committed;
  return r;
}

TEST(Stitch, EstimateIpcDirected) {
  std::vector<IntervalResult> iv;
  iv.push_back(measured_interval(0, 1'000, 500));  // IPC 0.5
  iv.push_back(measured_interval(1, 500, 500));    // IPC 1.0
  IntervalResult skipped;
  skipped.skipped = true;
  iv.push_back(skipped);                           // excluded
  IntervalResult failed;
  failed.error = "boom";
  failed.stats.cycles = 1;
  failed.stats.committed = 1'000'000;
  iv.push_back(failed);                            // excluded

  const IpcEstimate e = estimate_ipc(iv);
  EXPECT_EQ(e.n, 2u);
  EXPECT_DOUBLE_EQ(e.weighted, 1'000.0 / 1'500.0);
  EXPECT_DOUBLE_EQ(e.mean, 0.75);
  EXPECT_NEAR(e.stddev, 0.3535534, 1e-6);
  // t_{0.975,1} * s / sqrt(2) = 12.706 * 0.25
  EXPECT_NEAR(e.ci95, 12.706 * 0.25, 1e-3);

  const SimStats agg = stitch_stats(iv);
  EXPECT_EQ(agg.cycles, 1'500u);   // failed/skipped intervals contribute 0
  EXPECT_EQ(agg.committed, 1'000u);
}

TEST(Stitch, SingleIntervalHasNoConfidenceInterval) {
  std::vector<IntervalResult> iv = {measured_interval(0, 2'000, 1'000)};
  const IpcEstimate e = estimate_ipc(iv);
  EXPECT_EQ(e.n, 1u);
  EXPECT_DOUBLE_EQ(e.mean, 0.5);
  EXPECT_DOUBLE_EQ(e.weighted, 0.5);
  EXPECT_DOUBLE_EQ(e.ci95, 0.0);
}

// --- interval JSONL format --------------------------------------------------

// The per-interval line bsp-sim --sample-out writes: its bytes (key order,
// number formatting, escaping) are an output format, so they only change
// on purpose.
TEST(IntervalJsonl, LineBytesArePinned) {
  IntervalResult r;
  r.spec = {3, 7'000, 2'000, 2'500, 9'000};
  const auto& counters = obs::simstats_counters();
  for (std::size_t i = 0; i < counters.size(); ++i)
    r.stats.*(counters[i].field) = 10 * i + 1;
  r.stats.host_seconds = 0.125;
  r.exited = true;
  r.exit_code = 42;
  r.host_sec = 1.5;
  EXPECT_EQ(
      interval_to_jsonl(r),
      R"({"type":"interval","index":3,"offset":7000,"warmup":2000,)"
      R"("commits":2500,"measured_start":9000,"status":"ok","exited":true,)"
      R"("exit_code":42,"host_sec":1.500000,"stats":{"cycles":1,)"
      R"("committed":11,"dispatched":21,"bogus_dispatched":31,"branches":41,)"
      R"("branch_mispredicts":51,"early_resolved_branches":61,"loads":71,)"
      R"("stores":81,"load_forwards":91,"loads_issued_partial_lsq":101,)"
      R"("partial_tag_accesses":111,"way_mispredicts":121,)"
      R"("early_miss_detects":131,"load_replays":141,"op_replays":151,)"
      R"("spec_forwards":161,"spec_forward_misses":171,)"
      R"("narrow_operands":181,"l1d_hits":191,"l1d_misses":201,)"
      R"("idle_cycles_skipped":211,"cpi_base":221,"cpi_fe_icache":231,)"
      R"("cpi_fe_fill":241,"cpi_br_squash":251,"cpi_ruu_full":261,)"
      R"("cpi_slice_low":271,"cpi_slice_chain":281,"cpi_exec_unit":291,)"
      R"("cpi_br_resolve":301,"cpi_lsq_disambig":311,"cpi_dcache":321,)"
      R"("cpi_partial_tag":331,"cpi_spec_forward":341,"cpi_store_data":351,)"
      R"("cpi_drain":361,"cpi_other":371,"host_seconds":0.125000,)"
      R"("ipc":11.000000}})");
  IntervalResult failed;
  failed.spec.index = 1;
  failed.error = "co-sim divergence: \"pc\" mismatch\n\x01";
  EXPECT_EQ(interval_to_jsonl(failed),
            R"({"type":"interval","index":1,"offset":0,"warmup":0,)"
            R"("commits":0,"measured_start":0,"status":"failed",)"
            R"("exited":false,"exit_code":0,"host_sec":0.000000,)"
            R"("error":"co-sim divergence: \"pc\" mismatch\n\u0001"})");
  IntervalResult skipped;
  skipped.spec.index = 2;
  skipped.skipped = true;
  EXPECT_EQ(interval_to_jsonl(skipped),
            R"({"type":"interval","index":2,"offset":0,"warmup":0,)"
            R"("commits":0,"measured_start":0,"status":"skipped",)"
            R"("exited":false,"exit_code":0,"host_sec":0.000000})");
}

// Readers of --sample-out files use a plain JSON parser, so every line must
// be one complete JSON document that gives back the values written.
TEST(IntervalJsonl, MeasuredRecordRoundTrips) {
  IntervalResult r;
  r.spec = {3, 7'000, 2'000, 2'500, 9'000};
  const auto& counters = obs::simstats_counters();
  for (std::size_t i = 0; i < counters.size(); ++i)
    r.stats.*(counters[i].field) = 10 * i + 1;
  r.stats.host_seconds = 0.125;
  r.exited = true;
  r.exit_code = 42;
  r.host_sec = 1.5;

  const auto back = obs::parse_json(interval_to_jsonl(r));
  ASSERT_TRUE(back && back->is_object());
  const auto uint_of = [](const obs::JsonValue* v) {
    return v ? v->as_uint(~u64{0}) : std::nullopt;
  };
  EXPECT_EQ(back->get("type")->str, "interval");
  EXPECT_EQ(back->get("status")->str, "ok");
  EXPECT_EQ(uint_of(back->get("index")), 3u);
  EXPECT_EQ(uint_of(back->get("offset")), 7'000u);
  EXPECT_EQ(uint_of(back->get("warmup")), 2'000u);
  EXPECT_EQ(uint_of(back->get("commits")), 2'500u);
  EXPECT_EQ(uint_of(back->get("measured_start")), 9'000u);
  EXPECT_TRUE(back->get("exited")->boolean);
  EXPECT_EQ(uint_of(back->get("exit_code")), 42u);
  EXPECT_DOUBLE_EQ(back->get("host_sec")->number, 1.5);
  const obs::JsonValue* stats = back->get("stats");
  ASSERT_TRUE(stats && stats->is_object());
  for (std::size_t i = 0; i < counters.size(); ++i)
    EXPECT_EQ(uint_of(stats->get(counters[i].name)), 10 * i + 1)
        << counters[i].name;
  EXPECT_DOUBLE_EQ(stats->get("host_seconds")->number, 0.125);
}

TEST(IntervalJsonl, FailedSkippedAndGarbageLines) {
  IntervalResult failed;
  failed.spec.index = 1;
  failed.error = "co-sim divergence: \"pc\" mismatch\n\x01";
  const auto fback = obs::parse_json(interval_to_jsonl(failed));
  ASSERT_TRUE(fback && fback->is_object());
  EXPECT_EQ(fback->get("status")->str, "failed");
  ASSERT_NE(fback->get("error"), nullptr);
  EXPECT_EQ(fback->get("error")->str, failed.error);
  EXPECT_EQ(fback->get("stats"), nullptr);

  IntervalResult skipped;
  skipped.spec.index = 2;
  skipped.skipped = true;
  const auto sback = obs::parse_json(interval_to_jsonl(skipped));
  ASSERT_TRUE(sback && sback->is_object());
  EXPECT_EQ(sback->get("status")->str, "skipped");
  EXPECT_EQ(sback->get("error"), nullptr);
  EXPECT_EQ(sback->get("stats"), nullptr);

  // A torn tail (a run killed mid-write) never parses as a record.
  const std::string line = interval_to_jsonl(failed);
  for (std::size_t n : {std::size_t{0}, std::size_t{30}, line.size() - 1})
    EXPECT_FALSE(obs::parse_json(line.substr(0, n))) << n;
}

// --- engine acceptance ------------------------------------------------------

std::vector<u64> counter_values(const SimStats& s) {
  std::vector<u64> out;
  for (const obs::CounterDesc& c : obs::simstats_counters())
    out.push_back(s.*(c.field));
  return out;
}

TEST(Sampled, OneIntervalIsBitIdenticalToTheMonolithicRun) {
  const Workload w = build_workload("li");
  const u64 kM = 8'000, kW = 1'000;
  const SimResult mono = simulate(base_machine(), w.program, kM, kW);
  ASSERT_TRUE(mono.ok()) << mono.error;

  SampleOptions opts;
  opts.intervals = 1;
  const SampledResult s = run_sampled(base_machine(), w.program, "li", 0x5eed,
                                      kM, kW, /*fast_forward=*/0, opts);
  ASSERT_TRUE(s.ok()) << s.error;
  EXPECT_EQ(counter_values(s.aggregate), counter_values(mono.stats));
  EXPECT_DOUBLE_EQ(s.ipc.weighted, mono.stats.ipc());
  EXPECT_DOUBLE_EQ(s.ipc.ci95, 0.0);  // one sample: no variance estimate
}

TEST(Sampled, PerIntervalStatsAreDeterministicAcrossReruns) {
  const Workload w = build_workload("li");
  SampleOptions opts;
  opts.intervals = 4;
  opts.warmup = 500;
  const auto run = [&] {
    return run_sampled(base_machine(), w.program, "li", 0x5eed, 6'000, 0, 0,
                       opts);
  };
  const SampledResult a = run();
  const SampledResult b = run();
  ASSERT_TRUE(a.ok()) << a.error;
  ASSERT_TRUE(b.ok()) << b.error;
  ASSERT_EQ(a.intervals.size(), 4u);
  ASSERT_EQ(b.intervals.size(), 4u);
  for (std::size_t i = 0; i < a.intervals.size(); ++i)
    EXPECT_EQ(counter_values(a.intervals[i].stats),
              counter_values(b.intervals[i].stats))
        << "interval " << i << " diverged between identical runs";
  EXPECT_EQ(counter_values(a.aggregate), counter_values(b.aggregate));
  EXPECT_DOUBLE_EQ(a.ipc.mean, b.ipc.mean);
  EXPECT_DOUBLE_EQ(a.ipc.ci95, b.ipc.ci95);
}

TEST(Sampled, AggregateCoversExactlyTheMeasuredCommits) {
  const Workload w = build_workload("li");
  SampleOptions opts;
  opts.intervals = 5;
  opts.warmup = 300;
  const SampledResult s =
      run_sampled(base_machine(), w.program, "li", 0x5eed, 7'003, 100, 0, opts);
  ASSERT_TRUE(s.ok()) << s.error;
  // Warm-up commits are discarded per interval; the stitched stream is the
  // monolithic measured region, no gaps or double counting.
  EXPECT_EQ(s.aggregate.committed, 7'003u);
}

TEST(Sampled, PrewarmReusesPublishedCheckpoints) {
  const std::string dir = testing::TempDir() + "bsp_sampling_ckpt_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const Workload w = build_workload("li");
  SampleOptions opts;
  opts.intervals = 4;
  opts.warmup = 500;
  opts.ckpt_cache_dir = dir;

  const SampledResult cold =
      run_sampled(base_machine(), w.program, "li", 0x5eed, 6'000, 0, 0, opts);
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_EQ(cold.ckpt_materialised, 3u);  // interval 0 needs no checkpoint
  EXPECT_EQ(cold.ckpt_reused, 0u);

  const SampledResult warm =
      run_sampled(base_machine(), w.program, "li", 0x5eed, 6'000, 0, 0, opts);
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_EQ(warm.ckpt_materialised, 0u);
  EXPECT_EQ(warm.ckpt_reused, 3u);
  // The cache is invisible to timing.
  EXPECT_EQ(counter_values(warm.aggregate), counter_values(cold.aggregate));
  std::filesystem::remove_all(dir);
}

// A sampled interval is a monolithic task: fast-forward to its offset,
// discard its warm-up commits, measure its chunk. Each interval's stats
// must equal what make_sim_runner measures for the TaskSpec saying exactly
// that, restoring from the same cache directory.
TEST(Sampled, EveryIntervalEqualsTheTaskItDescribes) {
  const std::string dir = testing::TempDir() + "bsp_sampling_task_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  campaign::MachinePoint x2;
  x2.label = "x2";
  x2.kind = campaign::MachineKind::Sliced;
  x2.slices = 2;
  x2.techniques = kAllTechniques;
  const Workload w = build_workload("gzip");
  SampleOptions opts;
  opts.intervals = 4;
  opts.warmup = 1'000;
  opts.ckpt_cache_dir = dir;
  const SampledResult s = run_sampled(x2.build(), w.program, "gzip", 0x5eed,
                                      12'000, 2'000, 3'000, opts);
  ASSERT_TRUE(s.ok()) << s.error;
  ASSERT_EQ(s.intervals.size(), 4u);

  campaign::RunnerOptions ropts;
  ropts.ckpt_cache_dir = dir;
  const campaign::TaskRunner runner = campaign::make_sim_runner(ropts);
  for (const IntervalResult& iv : s.intervals) {
    ASSERT_TRUE(iv.measured()) << "interval " << iv.spec.index;
    campaign::TaskSpec task;
    task.workload = "gzip";
    task.machine = x2;
    task.fast_forward = iv.spec.offset;
    task.warmup = iv.spec.warmup;
    task.instructions = iv.spec.commits;
    const campaign::TaskOutcome out = runner(task);
    ASSERT_TRUE(out.error.empty()) << out.error;
    EXPECT_EQ(counter_values(iv.stats), counter_values(out.stats))
        << "interval " << iv.spec.index;
  }
  std::filesystem::remove_all(dir);
}

// make_sim_runner is the one production runner: with sample_intervals
// set, a task runs as the sampled engine's K intervals and its record
// carries the same run as run_sampled, number for number.
TEST(Sampled, TheSimRunnerRecordsTheSampledRun) {
  campaign::TaskSpec task;
  task.workload = "li";
  task.machine.label = "base";
  task.machine.kind = campaign::MachineKind::Base;
  task.instructions = 6'000;
  task.warmup = 1'000;
  task.fast_forward = 2'000;
  task.sample_intervals = 2;
  task.sample_warmup = 500;
  const campaign::TaskOutcome r = campaign::make_sim_runner()(task);
  ASSERT_TRUE(r.error.empty()) << r.error;

  SampleOptions opts;
  opts.intervals = 2;
  opts.warmup = 500;
  const SampledResult s =
      run_sampled(task.machine.build(), build_workload("li").program, "li",
                  task.seed, 6'000, 1'000, 2'000, opts);
  ASSERT_TRUE(s.ok()) << s.error;
  ASSERT_EQ(s.intervals.size(), 2u);
  EXPECT_EQ(counter_values(r.stats), counter_values(s.aggregate));
  ASSERT_EQ(r.samples.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const IntervalResult& iv = s.intervals[i];
    EXPECT_EQ(r.samples[i],
              (std::vector<u64>{iv.spec.index, iv.spec.offset, iv.spec.warmup,
                                iv.spec.commits, iv.stats.cycles,
                                iv.stats.committed}))
        << "interval " << i;
  }
}

// Concurrent sampled tasks of one workload share one fast-forward: the
// runner's memo materialises the interval checkpoints once per process, so
// a 13-task campaign records one "miss" on four threads as on one, and the
// same records otherwise, host times aside. Which task pays the miss is
// whichever thread got there first, so the records compare without it.
TEST(Sampled, ConcurrentSampledTasksShareOneFastForward) {
  campaign::SweepSpec spec = campaign::find_campaign("fig11")->make();
  spec.workloads = {"li"};
  spec.instructions = 2'000;
  spec.warmup = 500;
  spec.fast_forward = 1'000;
  spec.sample_intervals = 2;
  spec.sample_warmup = 500;
  const auto records = [&](unsigned jobs) {
    campaign::CampaignOptions options;
    options.out_path = testing::TempDir() + "bsp_sampling_jobs" +
                       std::to_string(jobs) + "_" +
                       std::to_string(::getpid()) + ".jsonl";
    options.fresh = true;
    options.progress = false;
    options.scheduler.jobs = jobs;
    options.scheduler.max_attempts = 1;
    campaign::CampaignReport report = campaign::run_campaign(
        spec, campaign::make_sim_runner(), options);
    std::filesystem::remove(options.out_path);
    EXPECT_EQ(report.ok, 13u) << jobs << " jobs";
    EXPECT_EQ(report.ckpt_misses, 1u) << jobs << " jobs";
    std::size_t misses = 0;
    std::vector<std::string> lines;
    for (campaign::TaskRecord& rec : report.records) {
      EXPECT_EQ(rec.samples.size(), 2u) << rec.task.id();
      misses += rec.ckpt_cache == "miss";
      EXPECT_TRUE(rec.ckpt_cache == "miss" || rec.ckpt_cache == "hit")
          << rec.task.id() << ": " << rec.ckpt_cache;
      rec.ckpt_cache.clear();
      rec.duration_ms = 0;
      rec.stats.host_seconds = 0;
      rec.ffwd_sec = 0;
      lines.push_back(campaign::to_jsonl(rec));
    }
    EXPECT_EQ(misses, 1u) << jobs << " jobs";
    return lines;
  };
  EXPECT_EQ(records(4), records(1));
}

// A pass over a partly populated cache loads the hits without restoring
// them; the miss between them continues from the latest hit's checkpoint.
// Every checkpoint must equal the one a cold pass captured.
TEST(Sampled, PrewarmContinuesFromTheLatestHitAtAMiss) {
  const std::string dir = testing::TempDir() + "bsp_sampling_partial_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const Workload w = build_workload("li");
  const SamplePlan plan = plan_intervals(9'000, 0, 0, 4, 500);
  std::set<u64> offsets;
  for (const IntervalSpec& spec : plan.intervals) offsets.insert(spec.offset);
  const campaign::CheckpointSet cold =
      campaign::materialise_checkpoints(w.program, "li", 0x5eed, offsets, dir);
  ASSERT_TRUE(cold.ok()) << cold.error;
  ASSERT_EQ(cold.materialised, 3u);
  const auto bytes = [](const Checkpoint& c) {
    std::ostringstream os;
    save_checkpoint(c, os);
    return os.str();
  };

  // Drop the middle offset's file: hit, miss, hit.
  const u64 middle = std::next(cold.by_offset.begin())->first;
  ASSERT_TRUE(std::filesystem::remove(campaign::checkpoint_cache_path(
      dir, "li", 0x5eed, campaign::ImageHash(w.program), middle)));
  const campaign::CheckpointSet partial =
      campaign::materialise_checkpoints(w.program, "li", 0x5eed, offsets, dir);
  ASSERT_TRUE(partial.ok()) << partial.error;
  EXPECT_EQ(partial.reused, 2u);
  EXPECT_EQ(partial.materialised, 1u);
  ASSERT_EQ(partial.by_offset.size(), cold.by_offset.size());
  for (const auto& [offset, ckpt] : cold.by_offset)
    EXPECT_EQ(bytes(*partial.by_offset.at(offset)), bytes(*ckpt))
        << "offset " << offset;
  std::filesystem::remove_all(dir);
}

// A sampled run's interval 0 starts at the run's own fast-forward. When
// the program ends before that offset, the run fails exactly as the
// monolithic run does — same record error, in thread mode and from a real
// --isolate process worker — instead of measuring nothing and passing.
TEST(Sampled, UnreachableFastForwardFailsLikeTheMonolithicRun) {
  campaign::TaskSpec task;
  task.workload = "li";
  task.machine.label = "base";
  task.machine.kind = campaign::MachineKind::Base;
  task.instructions = 5'000;
  task.fast_forward = 100'000'000;  // li exits long before
  const std::string expected =
      "fast-forward failed: program exited or faulted before "
      "fast_forward=100000000";

  campaign::TaskSpec sampled = task;
  sampled.sample_intervals = 2;
  for (const campaign::TaskSpec& run : {task, sampled}) {
    const std::string what = run.sample_intervals ? "sampled" : "monolithic";
    const campaign::TaskRunner runner = campaign::make_sim_runner();
    campaign::SchedulerOptions thread;
    thread.max_attempts = 1;  // the failure is deterministic
    const campaign::TaskOutcome t = run_one_task(run, runner, thread);
    EXPECT_EQ(t.status, "failed") << what << ", thread";
    EXPECT_EQ(t.error, expected) << what << ", thread";

    campaign::SchedulerOptions process = thread;
    process.isolate = campaign::IsolationMode::kProcess;
    process.worker_task_json = true;
    process.worker_cmd = {BSP_SWEEP_EXE, "--worker-json"};
    const campaign::TaskOutcome p = run_one_task(run, runner, process);
    EXPECT_EQ(p.status, "failed") << what << ", process";
    EXPECT_EQ(p.error, expected) << what << ", process";
  }
}

// The headline acceptance property on the pinned configuration (the same
// parameters the CI containment smoke runs): the K-interval estimate's
// 95% confidence interval must contain the monolithic IPC. Everything here
// is deterministic, so this is a stable bound, not a flaky statistical
// test.
TEST(Sampled, ConfidenceIntervalContainsMonolithicIpc) {
  const Workload w = build_workload("gzip");
  const u64 kM = 40'000, kW = 5'000;
  const SimResult mono = simulate(base_machine(), w.program, kM, kW);
  ASSERT_TRUE(mono.ok()) << mono.error;

  SampleOptions opts;
  opts.intervals = 4;
  opts.warmup = 2'000;
  const SampledResult s = run_sampled(base_machine(), w.program, "gzip",
                                      0x5eed, kM, kW, 0, opts);
  ASSERT_TRUE(s.ok()) << s.error;
  ASSERT_EQ(s.ipc.n, 4u);
  EXPECT_GT(s.ipc.ci95, 0.0);
  EXPECT_LE(std::abs(s.ipc.mean - mono.stats.ipc()), s.ipc.ci95)
      << "mean " << s.ipc.mean << " +/- " << s.ipc.ci95 << " vs monolithic "
      << mono.stats.ipc();
}

}  // namespace
}  // namespace bsp::sampling
