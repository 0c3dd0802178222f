// bsp-sweep: run a named experiment campaign through the campaign engine.
//
// A campaign is a declarative sweep (machine points x workloads x seeds)
// expanded into a deterministic task list, executed on a fault-tolerant
// worker pool (per-task timeout, bounded retry, one co-simulation abort
// never kills the sweep), and checkpointed to a JSONL result store — one
// record per task with the full parameter tuple and SimStats. Rerunning
// with the same --out path resumes: tasks with existing records are
// skipped.
//
// With --isolate process every task runs in its own worker subprocess
// (this binary re-exec'd with the hidden --worker-json flag): a segfaulting
// configuration is recorded as "crashed" with its signal name, a wedged
// one is SIGKILLed at the --timeout deadline and its core reclaimed, and
// per-task rusage lands in the store. The sweep itself exits 0 whenever it
// ran to completion — per-task failures are data in the store (and the
// summary), not a process error; use --retry-failed on a rerun to retry
// them. Exit 2 is reserved for usage errors.
//
// Distributed mode (campaign/remote.hpp): `--serve HOST:PORT` turns this
// process into a coordinator that shards the expanded task list across
// remote `--connect HOST:PORT` workers over length-prefixed TCP frames.
// Records stream back into the same JSONL store with the same resume
// guarantees; each task lands exactly once no matter how often a dead or
// straggling worker forced a re-dispatch. `--status-endpoint HOST:PORT`
// additionally serves the live progress snapshot as JSON over HTTP.
//
//   bsp-sweep --list
//   bsp-sweep --campaign fig11                      # full paper sweep
//   bsp-sweep --campaign fig11 -n 20000 -w li       # quick smoke slice
//   bsp-sweep --campaign fig12 --out results/fig12.jsonl --retry-failed
//   bsp-sweep --campaign fig11 --isolate process --timeout 600
//   bsp-sweep --campaign fig11 --serve :9000 --status-endpoint :9001
//   bsp-sweep --connect coordinator-host:9000 -j 8
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/campaign.hpp"
#include "campaign/remote.hpp"
#include "core/simulator.hpp"
#include "obs/cpi_stack.hpp"
#include "sampling/runner.hpp"
#include "util/cli.hpp"
#include "util/subprocess.hpp"
#include "util/table.hpp"

namespace {

using namespace bsp;
using namespace bsp::campaign;

// Fault-injection hook for the isolation tests and the CI crash-injection
// smoke campaign: BSP_SWEEP_INJECT="kind=id-substring[,kind=id-substring]"
// with kind in {segv, abort, wedge, fail}. A worker whose task id contains
// the substring injects the fault instead of (or before) simulating. The
// variable is inherited across the re-exec, so setting it on the parent
// sweep is enough. Returns a non-empty error for kind=fail.
std::string maybe_inject_fault(const std::string& task_id) {
  const char* spec = std::getenv("BSP_SWEEP_INJECT");
  if (!spec) return "";
  std::string s = spec;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string entry = s.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) continue;
    const std::string kind = entry.substr(0, eq);
    const std::string substr = entry.substr(eq + 1);
    if (substr.empty() || task_id.find(substr) == std::string::npos)
      continue;
    if (kind == "segv") std::raise(SIGSEGV);
    if (kind == "abort") std::abort();
    if (kind == "wedge")
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    if (kind == "fail") return "injected failure (BSP_SWEEP_INJECT)";
  }
  return "";
}

// The runner a worker process uses: `runner` behind the fault-injection
// hook.
TaskRunner with_fault_injection(TaskRunner runner) {
  return [runner = std::move(runner)](const TaskSpec& task) {
    TaskOutcome injected;
    injected.error = maybe_inject_fault(task.id());
    return injected.error.empty() ? runner(task) : injected;
  };
}

// The worker half of the process-isolation protocol: the task arrives as a
// full status:"queued" record line (campaign::task_jsonl), so the worker
// needs no campaign — which is also what lets remote workers run tasks for
// a spec they never saw. Runs exactly that task and prints its TaskRecord
// JSONL on stdout. The parent scheduler owns timeout, retry, and rusage;
// attempts here is always 1. Exit 0 whenever a record was printed — a
// task-level failure is payload, not a worker error.
int run_worker_json(const TaskRunner& runner, const std::string& record) {
  const auto queued = parse_jsonl(record);
  if (!queued) {
    std::cerr << "bsp-sweep --worker-json: unparseable task record\n";
    return 3;
  }
  const auto t0 = std::chrono::steady_clock::now();
  TaskRecord rec{with_fault_injection(runner)(queued->task), queued->task};
  rec.status = rec.error.empty() ? "ok" : "failed";
  rec.attempts = 1;
  rec.duration_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  std::cout << to_jsonl(rec) << "\n" << std::flush;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string campaign_name;
  bool list = false, dry_run = false, csv = false;
  bool fresh = false, retry_failed = false, no_progress = false;
  bool has_n = false, has_warmup = false, has_ff = false;
  u64 instructions = 0, warmup = 0, fast_forward = 0;
  std::vector<std::string> workloads;
  std::vector<u64> seeds;
  std::string isolate = "thread";
  std::string worker_json;
  std::string serve_addr, connect_addr, status_addr, port_file;
  double heartbeat_sec = 1.0, worker_deadline_sec = 15, steal_after_sec = 20;
  CampaignOptions options;

  ArgParser parser(
      "bsp-sweep: declarative, resumable, fault-tolerant experiment "
      "campaigns");
  parser.add_value("--campaign", "NAME", "built-in campaign to run (see "
                   "--list)", &campaign_name);
  parser.add_flag("--list", "list the built-in campaigns", &list);
  parser.add_value("-n, --n, --instructions", "N",
                   "override measured instructions per run",
                   [&](const std::string& v) {
                     instructions = parse_cli_u64("--instructions", v);
                     has_n = true;
                   });
  parser.add_value("--warmup", "N", "override discarded timing warm-up",
                   [&](const std::string& v) {
                     warmup = parse_cli_u64("--warmup", v);
                     has_warmup = true;
                   });
  parser.add_value("--fast-forward", "N",
                   "functionally fast-forward N instructions before timing "
                   "starts (the paper skips ~1B per benchmark); tasks "
                   "sharing a workload+seed reuse one checkpoint",
                   [&](const std::string& v) {
                     fast_forward = parse_cli_u64("--fast-forward", v);
                     has_ff = true;
                   });
  parser.add_value("-w, --workload", "NAME",
                   "restrict to one workload (repeatable)", &workloads);
  parser.add_value("--seed", "S",
                   "workload seed, hex ok (repeatable; default 0x5eed)",
                   &seeds);
  parser.add_value("-j, --jobs", "N",
                   "parallel simulations (default: hardware threads)",
                   &options.scheduler.jobs);
  parser.add_value("--out", "PATH",
                   "JSONL result store (default results/<campaign>.jsonl); "
                   "rerunning resumes from it",
                   &options.out_path);
  parser.add_flag("--fresh", "discard existing records instead of resuming",
                  &fresh);
  parser.add_flag("--retry-failed",
                  "re-run tasks recorded as failed/timeout/crashed",
                  &retry_failed);
  parser.add_value("--timeout", "SEC",
                   "per-task wall-clock timeout (default: none)",
                   &options.scheduler.timeout_sec);
  parser.add_value("--retries", "N",
                   "extra attempts for a failed task (default 1)",
                   [&](const std::string& v) {
                     options.scheduler.max_attempts =
                         1 + parse_cli_unsigned("--retries", v);
                   });
  parser.add_value("--isolate", "MODE",
                   "task isolation: 'thread' (in-process, default) or "
                   "'process' (one worker subprocess per task; crashes "
                   "become \"crashed\" records, timeouts are SIGKILLed and "
                   "reclaimed, rusage is recorded)",
                   &isolate);
  RunnerOptions runner_options;
  parser.add_value("--interval-stats", "N",
                   "record a per-task time-series of counter deltas every N "
                   "committed instructions into each record's \"series\"",
                   [&](const std::string& v) {
                     runner_options.interval =
                         parse_cli_u64("--interval-stats", v);
                   });
  parser.add_flag("--host-profile",
                  "collect per-phase host timings (records' \"host_phases\" "
                  "+ summary breakdown after the progress line)",
                  &runner_options.host_profile);
  parser.add_flag("--cpi-stack",
                  "CPI-stack cycle accounting: every record carries the "
                  "cpi_* leaf counters (sum == cycles * commit width) and a "
                  "per-machine aggregate stack prints after the summary",
                  &runner_options.cpi_stack);
  parser.add_value("--cosim", "MODE",
                   "oracle co-simulation cadence for every task: full "
                   "(default), spot[:N] (full check every Nth commit and at "
                   "every mispredict/syscall), or off; becomes part of each "
                   "task id, so resume stores keep modes apart",
                   &runner_options.cosim);
  parser.add_value("--ckpt-cache", "DIR",
                   "shared checkpoint cache for --fast-forward: each "
                   "distinct (workload, seed) checkpoint is materialised "
                   "once into DIR (atomic, safe for concurrent sweeps) and "
                   "every task — and every later run — restores from it",
                   [&](const std::string& v) {
                     options.scheduler.ckpt_cache_dir = v;
                     runner_options.ckpt_cache_dir = v;
                   });
  parser.add_value("--sample-intervals", "K",
                   "sampled simulation: split each task's measured window "
                   "into K intervals, detail-simulate them in sequence from "
                   "functional checkpoints, and record per-interval stats "
                   "plus a mean-IPC estimate with a 95% confidence interval",
                   [&](const std::string& v) {
                     runner_options.sample_intervals =
                         parse_cli_unsigned("--sample-intervals", v);
                   });
  parser.add_value("--sample-warmup", "N",
                   "per-interval detail warm-up commits discarded before "
                   "each measured interval (default " +
                       std::to_string(sampling::kDefaultSampleWarmup) +
                       "; interval 0 uses the task's own warm-up so K=1 "
                       "matches the monolithic run exactly)",
                   [&](const std::string& v) {
                     runner_options.sample_warmup =
                         parse_cli_u64("--sample-warmup", v);
                   });
  parser.add_flag("--no-progress", "suppress the live progress line",
                  &no_progress);
  parser.add_flag("--dry-run", "print the expanded task list and exit",
                  &dry_run);
  parser.add_flag("--csv", "print the summary table as CSV", &csv);
  parser.add_value("--serve", "HOST:PORT",
                   "coordinate this campaign over TCP instead of running it "
                   "locally: shard tasks across --connect workers, stream "
                   "records into the store (port 0 = ephemeral, see "
                   "--port-file)",
                   &serve_addr);
  parser.add_value("--connect", "HOST:PORT",
                   "run as a remote worker for a --serve coordinator; -j "
                   "sets the advertised slot count and --isolate/--ckpt-"
                   "cache keep their local meaning",
                   &connect_addr);
  parser.add_value("--status-endpoint", "HOST:PORT",
                   "with --serve: answer any HTTP request on this address "
                   "with a JSON snapshot of campaign progress and worker "
                   "state",
                   &status_addr);
  parser.add_value("--port-file", "PATH",
                   "with --serve: atomically write the bound ports "
                   "(port=N, status_port=M) once listening — the launcher "
                   "handshake for port 0",
                   &port_file);
  parser.add_value("--heartbeat", "SEC",
                   "worker PING period in distributed mode; --serve "
                   "forwards it to every worker via the SPEC frame "
                   "(default 1)",
                   &heartbeat_sec);
  parser.add_value("--worker-deadline", "SEC",
                   "with --serve: a worker silent this long is declared "
                   "dead and its in-flight tasks re-dispatched (default 15)",
                   &worker_deadline_sec);
  parser.add_value("--steal-after", "SEC",
                   "with --serve: once the queue is empty, idle workers "
                   "duplicate-dispatch in-flight tasks older than this "
                   "(default 20; first record wins)",
                   &steal_after_sec);
  parser.add_hidden_value("--worker-json", "RECORD",
                          "(internal) run the task described by a queued "
                          "record line and print its record",
                          &worker_json);
  parser.parse(argc, argv);

  if (list) {
    Table table({"campaign", "tasks", "description"});
    for (const auto& c : builtin_campaigns())
      table.add_row({c.name, std::to_string(c.make().expand().size()),
                     c.description});
    table.print(std::cout);
    return 0;
  }
  if (isolate != "thread" && isolate != "process") {
    std::cerr << "bsp-sweep: --isolate must be 'thread' or 'process', got '"
              << isolate << "'\n";
    return 2;
  }
  if (!runner_options.cosim.empty()) {
    SimOptions probe;
    if (!parse_cosim(runner_options.cosim, &probe)) {
      std::cerr << "bsp-sweep: --cosim must be full, spot[:N], or off, got '"
                << runner_options.cosim << "'\n";
      return 2;
    }
  }

  // One task = one scheduler slot either way: the sampled runner simulates
  // its intervals serially inside the slot, so sweep-level parallelism
  // (and process isolation) keep working unchanged.
  const auto make_runner = [&]() -> TaskRunner {
    return runner_options.sample_intervals > 0
               ? sampling::make_sampled_runner(runner_options)
               : make_sim_runner(runner_options);
  };

  // Self-contained process-isolation worker command: this binary, the
  // per-task observability knobs, and --worker-json as the terminal flag
  // (the scheduler appends the task's queued record line as its value).
  // No spec-shape flags — the record carries the full parameter tuple.
  const auto worker_json_cmd = [&]() -> std::vector<std::string> {
    std::vector<std::string> cmd = {self_exe_path(argv[0])};
    if (!runner_options.ckpt_cache_dir.empty()) {
      cmd.push_back("--ckpt-cache");
      cmd.push_back(runner_options.ckpt_cache_dir);
    }
    if (runner_options.interval) {
      cmd.push_back("--interval-stats");
      cmd.push_back(std::to_string(runner_options.interval));
    }
    if (runner_options.host_profile) cmd.push_back("--host-profile");
    if (runner_options.cpi_stack) cmd.push_back("--cpi-stack");
    if (!runner_options.cosim.empty()) {
      cmd.push_back("--cosim");
      cmd.push_back(runner_options.cosim);
    }
    if (runner_options.sample_intervals > 0) {
      cmd.push_back("--sample-intervals");
      cmd.push_back(std::to_string(runner_options.sample_intervals));
      cmd.push_back("--sample-warmup");
      cmd.push_back(std::to_string(runner_options.sample_warmup));
    }
    cmd.push_back("--worker-json");
    return cmd;
  };

  // Worker entry points that need no campaign: the task (or the whole
  // sweep) arrives from the parent process or the coordinator.
  if (!worker_json.empty()) return run_worker_json(make_runner(), worker_json);

  if (!connect_addr.empty()) {
    const auto addr = parse_socket_addr(connect_addr);
    if (!addr) {
      std::cerr << "bsp-sweep: --connect wants HOST:PORT, got '"
                << connect_addr << "'\n";
      return 2;
    }
    WorkerOptions wopts;
    wopts.connect = *addr;
    wopts.slots = options.scheduler.jobs;
    wopts.heartbeat_sec = heartbeat_sec;
    const WorkerSetup setup = [&](const RemoteSpec& rs, TaskRunner* runner,
                                  SchedulerOptions* sched) {
      // The coordinator's SPEC overrides the run options — every worker
      // must produce records of the same shape — while isolation mode and
      // the checkpoint-cache directory stay host-local choices.
      const std::string ckpt_cache_dir = runner_options.ckpt_cache_dir;
      runner_options = rs.run;
      runner_options.ckpt_cache_dir = ckpt_cache_dir;
      sched->ckpt_cache_dir = ckpt_cache_dir;
      *runner = with_fault_injection(make_runner());
      if (isolate == "process") {
        sched->isolate = IsolationMode::kProcess;
        sched->worker_cmd = worker_json_cmd();
        sched->worker_task_json = true;
      }
    };
    const WorkerReport wr = run_remote_worker(wopts, setup);
    std::cout << "== worker done ==\n"
              << wr.ran << " ran (" << wr.ok << " ok), "
              << wr.prewarm_groups << " checkpoint groups prewarmed\n";
    if (!wr.error.empty())
      std::cerr << "bsp-sweep --connect: " << wr.error << "\n";
    // Clean DONE is success; anything else (handshake rejection, lost
    // coordinator) is a worker-level failure the launcher should see.
    return wr.done ? 0 : 1;
  }

  if (!serve_addr.empty() && isolate == "process") {
    std::cerr << "bsp-sweep: --serve coordinates only (workers own "
                 "--isolate); drop --isolate process\n";
    return 2;
  }
  if (serve_addr.empty() && (!status_addr.empty() || !port_file.empty())) {
    std::cerr << "bsp-sweep: --status-endpoint/--port-file need --serve\n";
    return 2;
  }

  if (campaign_name.empty()) {
    std::cerr << "bsp-sweep: no --campaign given (try --list or --help)\n";
    return 2;
  }
  const BuiltinCampaign* builtin = find_campaign(campaign_name);
  if (!builtin) {
    std::cerr << "bsp-sweep: unknown campaign '" << campaign_name
              << "' (try --list)\n";
    return 2;
  }

  SweepSpec spec = builtin->make();
  if (!workloads.empty()) spec.workloads = workloads;
  if (!seeds.empty()) spec.seeds = seeds;
  if (has_n) spec.instructions = instructions;
  if (has_warmup) spec.warmup = warmup;
  if (has_ff) spec.fast_forward = fast_forward;
  if (!runner_options.cosim.empty()) spec.cosim = runner_options.cosim;

  if (dry_run) {
    for (const auto& task : spec.expand()) std::cout << task.id() << "\n";
    return 0;
  }

  if (isolate == "process") {
    options.scheduler.isolate = IsolationMode::kProcess;
    options.scheduler.worker_cmd = worker_json_cmd();
    options.scheduler.worker_task_json = true;
  }

  options.fresh = fresh;
  options.retry_failed = retry_failed;
  options.progress = !no_progress;
  if (options.out_path.empty())
    options.out_path = "results/" + spec.name + ".jsonl";

  CampaignReport report;
  if (!serve_addr.empty()) {
    const auto bind = parse_socket_addr(serve_addr);
    if (!bind) {
      std::cerr << "bsp-sweep: --serve wants HOST:PORT, got '" << serve_addr
                << "'\n";
      return 2;
    }
    RemoteOptions ropts;
    ropts.bind = *bind;
    if (!status_addr.empty()) {
      const auto sb = parse_socket_addr(status_addr);
      if (!sb) {
        std::cerr << "bsp-sweep: --status-endpoint wants HOST:PORT, got '"
                  << status_addr << "'\n";
        return 2;
      }
      ropts.status = true;
      ropts.status_bind = *sb;
    }
    ropts.port_file = port_file;
    ropts.heartbeat_sec = heartbeat_sec;
    ropts.worker_deadline_sec = worker_deadline_sec;
    ropts.steal_after_sec = steal_after_sec;
    ropts.spec.campaign = spec.name;
    ropts.spec.run = runner_options;
    ropts.spec.timeout_sec = options.scheduler.timeout_sec;
    ropts.spec.max_attempts = options.scheduler.max_attempts;
    report = serve_campaign(spec, options, ropts);
  } else {
    report = run_campaign(spec, make_runner(), options);
  }

  std::cout << "== campaign " << spec.name << " ==\n"
            << report.total << " tasks: " << report.skipped << " resumed, "
            << report.ran << " ran (" << report.ok << " ok, "
            << report.failed << " failed, " << report.crashed
            << " crashed, " << report.retried << " retried)\n";
  if (report.prewarm.groups > 0 || report.ckpt_hits > 0 ||
      report.ckpt_misses > 0) {
    char ffwd[32];
    std::snprintf(ffwd, sizeof ffwd, "%.2f", report.prewarm.ffwd_sec);
    std::cout << "checkpoint cache: " << report.prewarm.materialised
              << " materialised, " << report.prewarm.reused << " reused ("
              << ffwd << "s fast-forward), tasks " << report.ckpt_hits
              << " hit / " << report.ckpt_misses << " miss\n";
  }
  std::cout << "results: " << options.out_path << "\n\n";
  const Table summary = summary_table(spec, report);
  if (csv)
    summary.print_csv(std::cout);
  else
    summary.print(std::cout);

  if (runner_options.cpi_stack) {
    // Per-machine CPI aggregate: cpi_* leaves are registered counters, so
    // merging ok records keeps the identity sum == cycles * commit width.
    for (const auto& machine : spec.machines) {
      SimStats agg;
      std::size_t n = 0;
      for (const auto& rec : report.records)
        if (rec.status == "ok" && rec.task.machine.label == machine.label) {
          agg.merge(rec.stats);
          ++n;
        }
      if (n == 0) continue;
      std::cout << "\n== cpi stack: " << machine.label << " (" << n
                << (n == 1 ? " run" : " runs") << ") ==\n"
                << obs::format_cpi_stack(agg,
                                         machine.build().core.commit_width);
    }
  }

  std::size_t bad = 0;
  for (const auto& rec : report.records)
    if (rec.status != "ok") {
      if (bad == 0) std::cout << "\nfailures:\n";
      if (++bad <= 10)
        std::cout << "  " << rec.task.id() << ": " << rec.status
                  << (rec.error.empty() ? "" : " (" + rec.error + ")")
                  << "\n";
    }
  if (bad > 10) std::cout << "  ... and " << bad - 10 << " more\n";
  // Completing the sweep is success even when tasks failed — containment
  // means the failures are records in the store, not a dead process. The
  // counts above and the JSONL are the signal CI should assert on.
  return 0;
}
