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
// The SPEC frame's heartbeat_sec is the fleet's clock: each worker PINGs
// at that period from the moment SPEC arrives — before PREWARM, setup and
// prewarm, which can outlast the deadline, so proof of life must not wait
// for READY — and every coordinator timeout counts whole periods of it.
//
// Delivery semantics: the coordinator tracks every task as pending,
// in-flight, or done. A worker silent for kDeadlinePeriods (15) or whose
// socket drops has its in-flight tasks re-queued; when the queue runs dry,
// idle workers duplicate-dispatch ("steal") the oldest straggler in flight
// for kStealPeriods (20). The first record to arrive per task id wins and
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
// v3: the co-simulation label left the SPEC frame and the task ids, so a
// v2 peer's labelled task ids would name tasks this grid does not have.
// v4: the sampled shape left the SPEC frame for the task lines and ids; a
// v3 worker would run every sampled task monolithically.
constexpr int kRemoteProtocolVersion = 4;

// Everything a worker must know to execute tasks the way the coordinator
// would have locally: the per-task run options plus the retry/timeout
// policy. Host-local choices (jobs, isolation mode and the checkpoint-cache
// directory, run.ckpt_cache_dir included) stay on the worker's own command
// line and never enter the frame.
struct RemoteSpec {
  int proto = kRemoteProtocolVersion;
  std::string campaign;
  // Forwarded fields: every run_option_fields() entry that is not
  // host-local.
  RunnerOptions run;
  double timeout_sec = 0;     // per-task wall clock (0 = none)
  // Bounded retry inside each worker, and the coordinator's cap on workers
  // lost while holding one task: at this many the task is recorded crashed.
  unsigned max_attempts = 2;
  // The fleet's PING period; the worker deadline and the steal threshold
  // are whole multiples of it.
  double heartbeat_sec = 1;
};
std::string encode_remote_spec(const RemoteSpec& spec);
std::optional<RemoteSpec> parse_remote_spec(const std::string& json);

struct RemoteOptions {
  SocketAddr bind;                 // --serve address (port 0 = ephemeral)
  bool status = false;             // serve the status endpoint?
  SocketAddr status_bind;          // --status-endpoint address
  std::string port_file;           // "" = none; else "port=N\nstatus_port=M\n"
  RemoteSpec spec;                 // forwarded to every worker; its
                                   // heartbeat_sec times the coordinator too
};

// Runs `spec` to completion over remote workers, blocking until every task
// has a record (resumed or streamed back). Identical store/resume contract
// to run_campaign(); returns the same report shape. The coordinator never
// simulates anything itself. A lost worker's tasks are re-queued, except a
// task that has now cost spec.max_attempts workers: that one is recorded
// as "crashed". Throws std::invalid_argument unless
// remote.spec.heartbeat_sec is positive and finite.
CampaignReport serve_campaign(const SweepSpec& spec,
                              const CampaignOptions& options,
                              const RemoteOptions& remote);

struct WorkerOptions {
  SocketAddr connect;
  unsigned slots = 0;  // concurrent tasks advertised (0 = hardware threads)
  double connect_timeout_sec = 10;
  std::string hostname;  // "" = gethostname()
};

// Called once, after the SPEC frame arrives, to build this worker's task
// runner and scheduler policy from the coordinator's knobs. `sched` comes
// pre-seeded with the SPEC's timeout/max_attempts and the advertised slot
// count in `jobs`; the callback supplies the runner and the worker command
// (worker_cmd, needed for process isolation and for any timeout) and may
// switch on process isolation.
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
