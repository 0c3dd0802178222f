// Fault-model tests for the campaign engine's process-isolation mode and
// the hardening satellites: the subprocess utility (exit/signal/timeout +
// SIGKILL reclamation + rusage), the scheduler's "crashed"/"timeout"
// containment with /bin/sh stand-in workers, resume over a store whose
// writer died mid-append, and the ArgParser's strict numeric parsing.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "campaign/campaign.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/store.hpp"
#include "util/cli.hpp"
#include "util/subprocess.hpp"

namespace bsp::campaign {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "bsp_isolation_" + name + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

// A grid of one machine point so per-task worker behaviour can be keyed on
// the seed axis alone.
SweepSpec tiny_spec(std::vector<u64> seeds) {
  SweepSpec spec;
  spec.name = "iso";
  spec.workloads = {"li"};
  spec.seeds = std::move(seeds);
  spec.instructions = 1000;
  spec.warmup = 0;
  MachinePoint base;
  base.label = "base";
  spec.machines.push_back(base);
  return spec;
}

SimStats fake_stats(const TaskSpec& task) {
  u64 h = 1469598103934665603ull;
  for (const char c : task.id())
    h = (h ^ static_cast<u64>(c)) * 1099511628211ull;
  SimStats s;
  s.cycles = 1000 + h % 1000;
  s.committed = task.instructions;
  return s;
}

TaskRecord ok_record(const TaskSpec& task) {
  TaskRecord rec;
  rec.task = task;
  rec.status = "ok";
  rec.stats = fake_stats(task);
  return rec;
}

// Each task's latest record in the store at `path`, by task id.
std::map<std::string, TaskRecord> stored_by_id(const std::string& path) {
  std::map<std::string, TaskRecord> out;
  for (TaskRecord& rec : load_records(path))
    out.emplace(rec.task.id(), std::move(rec));
  return out;
}

// worker_cmd that ignores the appended task id and runs `script` via
// /bin/sh. $0 is `arg0`, the task id arrives as $1.
std::vector<std::string> sh_worker(const std::string& script,
                                   const std::string& arg0 = "worker") {
  return {"/bin/sh", "-c", script, arg0};
}

SchedulerOptions process_options(std::vector<std::string> worker_cmd) {
  SchedulerOptions options;
  options.isolate = IsolationMode::kProcess;
  options.worker_cmd = std::move(worker_cmd);
  options.jobs = 1;
  return options;
}

TaskRunner unused_runner() {
  return [](const TaskSpec&) -> TaskOutcome {
    TaskOutcome r;
    r.error = "in-process runner must not be called in process mode";
    return r;
  };
}

// ---------------------------------------------------------------- subprocess

TEST(Subprocess, CapturesExitCodeAndBothStreams) {
  const SubprocessResult r = run_subprocess(
      {"/bin/sh", "-c", "echo out-line; echo err-line >&2; exit 3"});
  EXPECT_FALSE(r.spawn_error) << r.error;
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.signal, 0);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_EQ(r.out, "out-line\n");
  EXPECT_NE(r.err.find("err-line"), std::string::npos);
}

TEST(Subprocess, ReportsTerminatingSignal) {
  const SubprocessResult r =
      run_subprocess({"/bin/sh", "-c", "kill -SEGV $$"});
  EXPECT_FALSE(r.spawn_error);
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.signal, SIGSEGV);
  EXPECT_EQ(signal_name(r.signal), "SIGSEGV");
}

TEST(Subprocess, SigkillsAndReapsAtTheDeadline) {
  SubprocessLimits limits;
  limits.timeout_sec = 0.3;
  const auto t0 = Clock::now();
  // run_subprocess only returns after wait4() reaped the child, so
  // returning quickly is itself the no-leaked-core proof.
  const SubprocessResult r =
      run_subprocess({"/bin/sh", "-c", "sleep 30"}, limits);
  const double elapsed = seconds_since(t0);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.spawn_error);
  EXPECT_LT(elapsed, 1.3) << "child must be SIGKILLed ~at the deadline, "
                             "not waited for";
}

TEST(Subprocess, ExecFailureSurfacesAs127) {
  const SubprocessResult r =
      run_subprocess({"/nonexistent-bsp-worker-binary"});
  EXPECT_FALSE(r.spawn_error);
  EXPECT_EQ(r.exit_code, 127);
  EXPECT_NE(r.err.find("exec failed"), std::string::npos);
}

// Scheduler threads spawn workers concurrently. Each spawn must get its own
// child's output and exit status, including exec failures, with no child
// hanging on a lock some other thread held at its fork, and no pipe end
// leaking into a sibling.
TEST(Subprocess, ConcurrentSpawnsFromSeveralThreads) {
  constexpr int kThreads = 6, kSpawns = 12;
  std::vector<std::string> failures[kThreads];
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      for (int i = 0; i < kSpawns; ++i) {
        const std::string id = std::to_string(t) + "." + std::to_string(i);
        if (i % 4 == 3) {
          const SubprocessResult r =
              run_subprocess({"/nonexistent-bsp-worker-" + id});
          if (r.exit_code != 127 ||
              r.err.find("exec failed: /nonexistent-bsp-worker-" + id) ==
                  std::string::npos)
            failures[t].push_back(id + ": exec failure not reported: " +
                                  r.err);
          continue;
        }
        const SubprocessResult r = run_subprocess(
            {"/bin/sh", "-c", "echo \"$1\"; exit $2", "sh", id,
             std::to_string(i % 3)});
        if (r.spawn_error || r.out != id + "\n" || r.exit_code != i % 3)
          failures[t].push_back(id + ": got out='" + r.out + "' exit " +
                                std::to_string(r.exit_code));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    for (const std::string& f : failures[t]) ADD_FAILURE() << f;
}

TEST(Subprocess, ReportsChildRusage) {
  const SubprocessResult r = run_subprocess({"/bin/sh", "-c", "exit 0"});
  EXPECT_TRUE(r.exited());
  EXPECT_GT(r.max_rss_kb, 0);
  EXPECT_GE(r.user_sec, 0.0);
  EXPECT_GE(r.sys_sec, 0.0);
}

// ---------------------------------------------------- scheduler process mode

TEST(ProcessIsolation, CrashedWorkerIsContainedAndNamed) {
  const TaskSpec task = tiny_spec({0x5eed}).expand().front();
  SchedulerOptions options =
      process_options(sh_worker("kill -ABRT $$"));
  options.max_attempts = 2;
  const TaskOutcome out = run_one_task(task, unused_runner(), options);
  EXPECT_EQ(out.status, "crashed");
  EXPECT_NE(out.error.find("SIGABRT"), std::string::npos) << out.error;
  EXPECT_EQ(out.attempts, 2u) << "a crash gets the bounded retry";
}

TEST(ProcessIsolation, WedgedWorkerIsKilledAtTheDeadlineAndNotRetried) {
  const TaskSpec task = tiny_spec({0x5eed}).expand().front();
  SchedulerOptions options = process_options(sh_worker("sleep 30"));
  options.timeout_sec = 0.3;
  options.max_attempts = 3;
  const auto t0 = Clock::now();
  const TaskOutcome out = run_one_task(task, unused_runner(), options);
  const double elapsed = seconds_since(t0);
  EXPECT_EQ(out.status, "timeout");
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_NE(out.error.find("SIGKILL"), std::string::npos) << out.error;
  EXPECT_LT(elapsed, 1.3) << "the core must be reclaimed ~at the deadline";
}

TEST(ProcessIsolation, WorkerRecordRoundTripsWithRusage) {
  const TaskSpec task = tiny_spec({0x5eed}).expand().front();
  const TaskRecord rec = ok_record(task);
  // $0 carries the record line verbatim (no shell re-parsing of its
  // quotes); the task id arrives as $1 and is ignored.
  const SchedulerOptions options = process_options(
      sh_worker("printf '%s\\n' \"$0\"", to_jsonl(rec)));
  const TaskOutcome out = run_one_task(task, unused_runner(), options);
  EXPECT_EQ(out.status, "ok") << out.error;
  EXPECT_EQ(out.stats.cycles, rec.stats.cycles);
  EXPECT_EQ(out.stats.committed, rec.stats.committed);
  EXPECT_GT(out.max_rss_kb, 0) << "process mode must record child rusage";
}

TEST(ProcessIsolation, RecordForTheWrongTaskIsRejected) {
  const SweepSpec spec = tiny_spec({0x5eed, 0xbee5});
  const auto tasks = spec.expand();
  ASSERT_EQ(tasks.size(), 2u);
  // Worker always answers with task 1's record; running task 0 must fail.
  const SchedulerOptions options = process_options(
      sh_worker("printf '%s\\n' \"$0\"", to_jsonl(ok_record(tasks[1]))));
  const TaskOutcome out = run_one_task(tasks[0], unused_runner(), options);
  EXPECT_EQ(out.status, "failed");
  EXPECT_NE(out.error.find("wrong task"), std::string::npos) << out.error;
}

TEST(ProcessIsolation, WorkerTaskJsonHandsTheFullTupleToTheWorker) {
  // With worker_task_json set, the scheduler's trailing argument is the
  // whole queued-record JSONL line (the same form TASK frames carry), not
  // the bare id — so a worker can reconstruct the task without re-expanding
  // the spec. The sh worker only answers if $1 really is that line.
  const TaskSpec task = tiny_spec({0x5eed}).expand().front();
  const std::string queued = task_jsonl(task);
  ASSERT_NE(queued.find(task.id()), std::string::npos);
  ASSERT_NE(queued.find("\"status\":\"queued\""), std::string::npos);
  SchedulerOptions options = process_options(sh_worker(
      "[ \"$1\" = \"$2\" ] || exit 9; printf '%s\\n' \"$0\"",
      to_jsonl(ok_record(task))));
  options.worker_cmd.push_back(queued);  // reference copy: $1 ($2 is the
                                         // scheduler-appended task argument)
  options.worker_task_json = true;
  const TaskOutcome out = run_one_task(task, unused_runner(), options);
  EXPECT_EQ(out.status, "ok") << out.error;
  EXPECT_EQ(out.stats.cycles, fake_stats(task).cycles);
}

TEST(ProcessIsolation, SilentWorkerIsAFailureWithStderrContext) {
  const TaskSpec task = tiny_spec({0x5eed}).expand().front();
  const SchedulerOptions options =
      process_options(sh_worker("echo boom >&2; exit 9"));
  const TaskOutcome out = run_one_task(task, unused_runner(), options);
  EXPECT_EQ(out.status, "failed");
  EXPECT_NE(out.error.find("exited 9"), std::string::npos) << out.error;
  EXPECT_NE(out.error.find("boom"), std::string::npos) << out.error;
}

// The retry rule in worker processes: a record the worker printed is the
// runner's verdict, so a "failed" one is final; a worker that died or
// printed nothing usable gets every attempt. `calls` counts the worker's
// runs through a file each run appends a line to.
std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  std::size_t n = 0;
  for (std::string line; std::getline(in, line);) ++n;
  return n;
}

TEST(ProcessIsolation, FailedRecordIsFinal) {
  const TaskSpec task = tiny_spec({0x5eed}).expand().front();
  TaskRecord rec;
  rec.task = task;
  rec.status = "failed";
  rec.error = "fast-forward failed: program exited or faulted before "
              "fast_forward=100000000";
  const std::string calls = temp_path("failed_record_calls");
  std::remove(calls.c_str());
  SchedulerOptions options = process_options(
      {"/bin/sh", "-c", "echo run >> \"$1\"; printf '%s\\n' \"$0\"",
       to_jsonl(rec), calls});
  options.max_attempts = 3;
  const TaskOutcome out = run_one_task(task, unused_runner(), options);
  EXPECT_EQ(out.status, "failed");
  EXPECT_EQ(out.error, rec.error);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(count_lines(calls), 1u);
  std::remove(calls.c_str());
}

TEST(ProcessIsolation, CrashedAndSilentWorkersGetEveryAttempt) {
  const TaskSpec task = tiny_spec({0x5eed}).expand().front();
  for (const char* body : {"kill -SEGV $$", "echo boom >&2; exit 9"}) {
    const std::string calls = temp_path("transient_calls");
    std::remove(calls.c_str());
    SchedulerOptions options = process_options(
        {"/bin/sh", "-c", std::string("echo run >> \"$0\"; ") + body,
         calls});
    options.max_attempts = 3;
    const TaskOutcome out = run_one_task(task, unused_runner(), options);
    EXPECT_EQ(out.status, body[0] == 'k' ? "crashed" : "failed") << body;
    EXPECT_EQ(out.attempts, 3u) << body;
    EXPECT_EQ(count_lines(calls), 3u) << body;
    std::remove(calls.c_str());
  }
}

// The acceptance-shaped campaign: one segfaulting task, one wedged task,
// the rest fine — the sweep completes, records exactly those two as
// crashed/timeout, reclaims the wedged core at the deadline, and a resume
// (including from a truncated-final-line copy) re-runs only unfinished
// tasks.
TEST(ProcessIsolation, CampaignContainsCrashAndTimeoutThenResumes) {
  const SweepSpec spec = tiny_spec({0x5eed, 0x1111, 0x2222, 0x3333});
  const auto tasks = spec.expand();
  ASSERT_EQ(tasks.size(), 4u);

  // Pre-write each healthy task's record where the stand-in worker can
  // cat it back (ids sanitised: '/' -> '_').
  const std::string dir = testing::TempDir() + "bsp_isolation_records_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  for (const auto& t : tasks) {
    std::string fname = t.id();
    for (char& c : fname)
      if (c == '/') c = '_';
    std::ofstream(dir + "/" + fname) << to_jsonl(ok_record(t)) << "\n";
  }
  const std::string script =
      "case \"$1\" in "
      "*seed=0x1111*) kill -SEGV $$ ;; "
      "*seed=0x2222*) sleep 30 ;; "
      "*) cat \"$0/$(printf %s \"$1\" | tr / _)\" ;; esac";
  CampaignOptions options;
  options.out_path = temp_path("campaign");
  options.fresh = true;
  options.progress = false;
  options.scheduler = process_options({"/bin/sh", "-c", script, dir});
  options.scheduler.timeout_sec = 0.5;
  options.scheduler.max_attempts = 1;

  const auto t0 = Clock::now();
  const CampaignReport report =
      run_campaign(spec, unused_runner(), options);
  const double elapsed = seconds_since(t0);
  EXPECT_EQ(report.ran, 4u);
  EXPECT_EQ(report.ok, 2u);
  EXPECT_EQ(report.failed, 1u);   // the timeout; crashed counts separately
  EXPECT_EQ(report.crashed, 1u);
  EXPECT_LT(elapsed, 5.0) << "the wedged worker must die at its ~0.5s "
                             "deadline, not run for 30s";
  {
    const auto stored = stored_by_id(options.out_path);
    EXPECT_EQ(stored.at(tasks[0].id()).status, "ok");
    EXPECT_EQ(stored.at(tasks[1].id()).status, "crashed");
    EXPECT_EQ(stored.at(tasks[2].id()).status, "timeout");
    EXPECT_EQ(stored.at(tasks[3].id()).status, "ok");
    EXPECT_NE(stored.at(tasks[1].id()).error.find("SIGSEGV"),
              std::string::npos);
  }

  // Plain resume: every task has a record, nothing re-runs.
  options.fresh = false;
  const CampaignReport resume =
      run_campaign(spec, unused_runner(), options);
  EXPECT_EQ(resume.skipped, 4u);
  EXPECT_EQ(resume.ran, 0u);

  // Resume from a copy whose final line was torn mid-write: only the task
  // whose record was destroyed re-runs, and the store comes back whole.
  const std::string torn = temp_path("campaign_torn");
  {
    std::ifstream in(options.out_path, std::ios::binary);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    const std::size_t last_line = all.rfind('\n', all.size() - 2) + 1;
    const std::size_t keep = last_line + (all.size() - last_line) / 2;
    std::ofstream(torn, std::ios::binary) << all.substr(0, keep);
  }
  CampaignOptions torn_options = options;
  torn_options.out_path = torn;
  const CampaignReport from_torn =
      run_campaign(spec, unused_runner(), torn_options);
  EXPECT_EQ(from_torn.skipped, 3u);
  EXPECT_EQ(from_torn.ran, 1u);
  EXPECT_EQ(from_torn.ok, 1u);
  {
    const auto stored = stored_by_id(torn);
    EXPECT_EQ(stored.size(), 4u);
    for (const auto& t : tasks) EXPECT_EQ(stored.count(t.id()), 1u) << t.id();
  }

  std::remove(options.out_path.c_str());
  std::remove(torn.c_str());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- store crash-resume

TEST(ResultStore, AppendAfterTornTailDoesNotCorruptEitherRecord) {
  const SweepSpec spec = tiny_spec({0x5eed, 0xbee5});
  const auto tasks = spec.expand();
  const std::string path = temp_path("torn_append");
  {
    std::ofstream out(path, std::ios::binary);
    out << to_jsonl(ok_record(tasks[0])) << "\n";
    out << to_jsonl(ok_record(tasks[0])).substr(0, 60);  // killed mid-write
  }
  EXPECT_EQ(load_records(path).size(), 1u);
  {
    ResultStore store(path);
    store.append(ok_record(tasks[1]));  // must start on a fresh line
  }
  const auto reopened = stored_by_id(path);
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.at(tasks[0].id()).status, "ok");
  EXPECT_EQ(reopened.at(tasks[1].id()).status, "ok");
  std::remove(path.c_str());
}

TEST(ResultStore, CompleteRecordMissingOnlyItsNewlineSurvivesAppend) {
  const SweepSpec spec = tiny_spec({0x5eed, 0xbee5});
  const auto tasks = spec.expand();
  const std::string path = temp_path("no_newline");
  {
    // Writer died between the record bytes and... nothing: fwrite is one
    // call, but a partial write can end exactly at the newline boundary.
    std::ofstream out(path, std::ios::binary);
    out << to_jsonl(ok_record(tasks[0]));
  }
  EXPECT_EQ(load_records(path).size(), 1u)
      << "a complete unterminated record is data";
  {
    ResultStore store(path);
    store.append(ok_record(tasks[1]));
  }
  const auto reopened = stored_by_id(path);
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.at(tasks[0].id()).status, "ok");
  EXPECT_EQ(reopened.at(tasks[1].id()).status, "ok");
  std::remove(path.c_str());
}

TEST(ResultStore, RusageRoundTrips) {
  TaskRecord rec = ok_record(tiny_spec({0x5eed}).expand().front());
  rec.max_rss_kb = 131072;
  rec.user_sec = 1.5;
  rec.sys_sec = 0.25;
  const auto back = parse_jsonl(to_jsonl(rec));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->max_rss_kb, 131072);
  EXPECT_DOUBLE_EQ(back->user_sec, 1.5);
  EXPECT_DOUBLE_EQ(back->sys_sec, 0.25);

  TaskRecord crashed = rec;
  crashed.status = "crashed";
  crashed.error = "worker killed by SIGSEGV";
  const auto cback = parse_jsonl(to_jsonl(crashed));
  ASSERT_TRUE(cback.has_value());
  EXPECT_EQ(cback->status, "crashed");
  EXPECT_EQ(cback->error, crashed.error);
}

// ------------------------------------------------------ ArgParser hardening

// parse() exits 2 on malformed numbers, matching the documented
// unknown-option behaviour; gtest death tests observe the exit.
void parse_args(std::vector<std::string> args) {
  ArgParser parser("test");
  static u64 n;
  static unsigned j;
  static double t;
  static std::vector<u64> seeds;
  parser.add_value("-n, --instructions", "N", "count", &n);
  parser.add_value("-j, --jobs", "N", "jobs", &j);
  parser.add_value("--timeout", "SEC", "timeout", &t);
  parser.add_value("--seed", "S", "seed", &seeds);
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (auto& a : args) argv.push_back(a.data());
  parser.parse(static_cast<int>(argv.size()), argv.data());
  std::exit(0);  // parsed clean
}

// A flag with optional values (bsp-sim's --trace [START END]) takes them
// only when all of them follow and none looks like an option; otherwise
// the flag stands alone and the arguments stay positional.
TEST(ArgParser, OptionalValuesAreTakenOnlyAsAGroup) {
  using Parsed = std::pair<std::vector<std::string>, std::vector<std::string>>;
  const auto parse = [](std::vector<std::string> args) {
    ArgParser parser("test");
    Parsed out;
    u64 n = 0;
    parser.add_optional_values(
        "--trace", "[START END]", "trace", 2,
        [&](const std::vector<std::string>& v) { out.first = v; });
    parser.add_value("-n", "N", "count", &n);
    parser.set_positional(
        [&](const std::string& a) { out.second.push_back(a); });
    std::vector<char*> argv = {const_cast<char*>("prog")};
    for (auto& a : args) argv.push_back(a.data());
    parser.parse(static_cast<int>(argv.size()), argv.data());
    return out;
  };
  EXPECT_EQ(parse({"--trace", "0", "400", "li"}),
            Parsed({"0", "400"}, {"li"}));
  EXPECT_EQ(parse({"li", "--trace", "5", "9"}), Parsed({"5", "9"}, {"li"}));
  EXPECT_EQ(parse({"li", "--trace"}), Parsed({}, {"li"}));
  EXPECT_EQ(parse({"--trace", "li"}), Parsed({}, {"li"}));
  EXPECT_EQ(parse({"--trace", "li", "-n", "5"}), Parsed({}, {"li"}));
}

using ArgParserDeath = ::testing::Test;

TEST(ArgParserDeath, RejectsTrailingJunk) {
  EXPECT_EXIT(parse_args({"--instructions", "12abc"}),
              ::testing::ExitedWithCode(2), "invalid numeric value '12abc'");
}

TEST(ArgParserDeath, RejectsNonNumericGarbage) {
  EXPECT_EXIT(parse_args({"--instructions", "abc"}),
              ::testing::ExitedWithCode(2), "invalid numeric value 'abc'");
}

TEST(ArgParserDeath, RejectsNegativeUnsigned) {
  EXPECT_EXIT(parse_args({"--instructions", "-5"}),
              ::testing::ExitedWithCode(2), "invalid numeric value '-5'");
}

TEST(ArgParserDeath, RejectsU64Overflow) {
  EXPECT_EXIT(parse_args({"--instructions", "18446744073709551616"}),
              ::testing::ExitedWithCode(2), "invalid numeric value");
}

TEST(ArgParserDeath, RejectsUnsignedOutOfRange) {
  EXPECT_EXIT(parse_args({"--jobs", "5000000000"}),
              ::testing::ExitedWithCode(2), "out of range");
}

TEST(ArgParserDeath, RejectsBareHexPrefix) {
  EXPECT_EXIT(parse_args({"--seed", "0x"}),
              ::testing::ExitedWithCode(2), "invalid numeric value '0x'");
}

TEST(ArgParserDeath, RejectsGarbageDouble) {
  EXPECT_EXIT(parse_args({"--timeout", "fast"}),
              ::testing::ExitedWithCode(2), "invalid numeric value 'fast'");
}

TEST(ArgParserDeath, AcceptsDecimalHexAndFractions) {
  EXPECT_EXIT(
      parse_args({"--instructions", "200000", "--seed", "0x5eed", "--seed",
                  "42", "--timeout", "0.5", "--jobs", "8"}),
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace bsp::campaign
