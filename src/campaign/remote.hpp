// Sweep-as-a-service: distributed campaign execution over TCP.
//
// PR 4's subprocess worker protocol (task in, TaskRecord JSONL out) was
// already a wire protocol in disguise; this module promotes it to a real
// one. A coordinator (`bsp-sweep --serve`) expands the SweepSpec, resumes
// against the append-only store exactly like a local run, and shards the
// remaining tasks across remote workers (`bsp-sweep --connect`); every
// finished task streams back as one TaskRecord JSONL line and lands in the
// store through the same atomic-append/torn-tail machinery local sweeps
// use, so kill-and-rerun resume keeps working end to end.
//
// Wire protocol (util/socket.hpp length-prefixed frames, payload =
// "VERB[ body]"; task/record bodies are the store's TaskRecord JSONL
// schema — the single source of truth for both halves):
//
//   worker -> coordinator          coordinator -> worker
//   HELLO {"proto":N,...}          SPEC {"proto":N,...}   (or ERROR msg)
//   PING ...                       PREWARM <task jsonl>   (0+ representatives)
//                                  GO
//   READY {"groups":G,...}
//   PING                           TASK <task jsonl>      (up to `slots` open)
//   RECORD <record jsonl>          TASK ... | DONE
//
// PINGs start right after HELLO — prewarm can outlast any sane worker
// deadline, so proof of life must not wait for READY. The SPEC frame's
// heartbeat_sec retunes the period fleet-wide.
//
// Delivery semantics: the coordinator tracks every task as pending,
// in-flight, or done. A worker that misses its heartbeat deadline or drops
// its socket has its in-flight tasks re-queued; when the queue runs dry,
// idle workers duplicate-dispatch ("steal") the oldest in-flight straggler
// past `steal_after_sec`. The first record to arrive per task id wins and
// is the only one appended — duplicates from a re-dispatch race are
// dropped, so the store sees each task exactly once and its aggregate is
// byte-identical to a single-host run of the same spec.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "campaign/campaign.hpp"
#include "util/socket.hpp"

namespace bsp::campaign {

// Bumped on any frame-format or semantics change; a HELLO carrying a
// different version is rejected at handshake time (ERROR frame).
// v2: SPEC frame gained the optional fleet-wide "cosim" default.
constexpr int kRemoteProtocolVersion = 2;

// Everything a worker must know to execute tasks the way the coordinator
// would have locally: the per-task run options plus the retry/timeout
// policy. Host-local choices (jobs, isolation mode and the checkpoint-cache
// directory, run.ckpt_cache_dir included) stay on the worker's own command
// line and never enter the frame.
struct RemoteSpec {
  int proto = kRemoteProtocolVersion;
  std::string campaign;
  // Forwarded fields: interval, host_profile, cpi_stack, cosim and
  // sample_*. A non-empty cosim is the fleet-wide default; per-task
  // TaskSpec::cosim (carried in the TASK frame's record JSONL) still wins,
  // and "" (full) is omitted from the frame.
  RunnerOptions run;
  double timeout_sec = 0;     // per-task wall clock (0 = none)
  unsigned max_attempts = 2;  // worker-local bounded retry
  double heartbeat_sec = 1;   // PING period every worker must keep
};
std::string encode_remote_spec(const RemoteSpec& spec);
std::optional<RemoteSpec> parse_remote_spec(const std::string& json);

struct RemoteOptions {
  SocketAddr bind;                 // --serve address (port 0 = ephemeral)
  bool status = false;             // serve the status endpoint?
  SocketAddr status_bind;          // --status-endpoint address
  std::string port_file;           // "" = none; else "port=N\nstatus_port=M\n"
  double heartbeat_sec = 1.0;      // worker PING period, forwarded in SPEC
  double worker_deadline_sec = 15; // silence past this marks a worker dead
                                   // (floored at 2x heartbeat_sec)
  double steal_after_sec = 20;     // idle workers duplicate-dispatch after
  RemoteSpec spec;                 // forwarded to every worker
};

// Runs `spec` to completion over remote workers, blocking until every task
// has a record (resumed or streamed back). Identical store/resume contract
// to run_campaign(); returns the same report shape. The coordinator never
// simulates anything itself.
CampaignReport serve_campaign(const SweepSpec& spec,
                              const CampaignOptions& options,
                              const RemoteOptions& remote);

struct WorkerOptions {
  SocketAddr connect;
  unsigned slots = 0;  // concurrent tasks advertised (0 = hardware threads)
  double heartbeat_sec = 1.0;  // initial PING period; SPEC overrides it
  double connect_timeout_sec = 10;
  std::string hostname;  // "" = gethostname()
};

// Called once, after the SPEC frame arrives, to build this worker's task
// runner and scheduler policy from the coordinator's knobs. `sched` comes
// pre-seeded with the SPEC's timeout/max_attempts and the advertised slot
// count in `jobs`; the callback supplies the runner and may switch on
// process isolation (worker_cmd + isolate).
using WorkerSetup =
    std::function<void(const RemoteSpec& spec, TaskRunner* runner,
                       SchedulerOptions* sched)>;

struct WorkerReport {
  std::size_t ran = 0;  // records sent (any status)
  std::size_t ok = 0;
  std::size_t prewarm_groups = 0;  // checkpoint groups prewarmed per-host
  bool done = false;               // coordinator said DONE (clean shutdown)
  std::string error;               // "" unless the session failed outright
};

// Connects, handshakes, prewarms, then executes tasks until the
// coordinator sends DONE or the connection drops. Blocking.
WorkerReport run_remote_worker(const WorkerOptions& options,
                               const WorkerSetup& setup);

}  // namespace bsp::campaign
