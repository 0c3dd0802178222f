// Append-only JSONL result store (the campaign engine's back half).
//
// One line per finished task: the full parameter tuple, the run status, and
// the SimStats counters. Appends are atomic at line granularity (a single
// flushed fwrite under a mutex), so concurrent workers never interleave and
// a reader tailing the file — or a rerun resuming from it — sees only whole
// records. A torn trailing line from a killed writer is detected and
// ignored on load, which is what makes kill-and-rerun resume safe.
//
// Lines are read back with the tree's one JSON parser (obs/json.hpp). A line
// that is not one complete JSON object, or whose fields do not fit a
// record, is garbage; since a record is one object, that includes every
// proper prefix of a record line.
#pragma once

#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "core/pipeline.hpp"

namespace bsp::campaign {

// What running one task produced: the single declaration of a task's
// result fields. The runner fills `error`, `stats` and the interval,
// checkpoint and sampling fields; the scheduler fills `status`,
// `attempts`, `duration_ms` and the rusage fields.
struct TaskOutcome {
  std::string status;  // "ok" | "failed" | "timeout" | "crashed"
  std::string error;   // last attempt's error; empty means success
  unsigned attempts = 1;
  double duration_ms = 0;  // wall clock across all attempts
  SimStats stats;          // meaningful only when status == "ok"
  // Optional interval time-series (obs/interval.hpp): sampling period in
  // committed instructions (0 = none) and one numeric row per sample —
  // [cycle, committed, <delta per registered counter, registry order>].
  u64 interval = 0;
  std::vector<std::vector<u64>> series;
  // Per-task rusage, recorded by the process-isolation scheduler: peak RSS
  // over all attempts, CPU summed across them. Zero — and omitted from the
  // JSONL — in thread mode, where the process-wide numbers would lie.
  long max_rss_kb = 0;
  double user_sec = 0;
  double sys_sec = 0;
  // Fast-forward bookkeeping (fast_forward > 0 tasks only; "" — and omitted
  // from the JSONL — otherwise): "hit" when the start checkpoint came from
  // the cache or the runner's in-process memo, "miss" when this task paid
  // the fast-forward, plus the host seconds it spent doing so (0 for a hit).
  std::string ckpt_cache;
  double ffwd_sec = 0;
  // Sampled-simulation fields (src/sampling/): interval count K and
  // per-interval warm-up N, the per-interval IPC mean ± 95% CI half-width,
  // and one numeric row per measured interval —
  // [index, offset, warmup, commits, cycles, committed]. All zero/empty —
  // and omitted from the JSONL, keeping monolithic stores byte-stable —
  // when the task ran monolithically.
  u64 sample_intervals = 0;
  u64 sample_warmup = 0;
  double ipc_mean = 0;
  double ipc_ci95 = 0;
  std::vector<std::vector<u64>> samples;
  // The program ran to SYS_EXIT inside the task's window, with this code.
  // Not stored: a record's committed count already shows a short window;
  // sampled runs report it per interval.
  bool exited = false;
  int exit_code = 0;

  bool ok() const { return status == "ok"; }
  bool retried() const { return attempts > 1; }
};

// One task's outcome together with the task it belongs to, as written to
// (and parsed back from) the store.
struct TaskRecord : TaskOutcome {
  TaskSpec task;
};

// Serialises one record as a single JSON line (no trailing newline).
// Deterministic for a given record: fixed key order, fixed number
// formatting — "same spec, same seed => byte-identical file modulo
// duration_ms" is a tested property.
std::string to_jsonl(const TaskRecord& rec);

// Parses a line produced by to_jsonl. Returns nullopt for torn/garbage
// lines (including the empty string): integers must be exact (counters
// below 2^53), seed and techniques "0x" hex, every field its written type.
std::optional<TaskRecord> parse_jsonl(const std::string& line);

// Serialises a bare TaskSpec as a status:"queued" record line — the wire
// form of "run this task" used by both the process-isolation worker re-exec
// (--worker-json) and the remote TASK/PREWARM frames. Round-trips through
// parse_jsonl, so a worker recovers the full parameter tuple without ever
// re-expanding the campaign grid.
std::string task_jsonl(const TaskSpec& task);

// Reads a store file: skips torn/garbage lines and keeps only the LAST
// record per task id, in first-seen file order. The one read path for
// resume (CampaignLedger) and aggregation (bsp-report, sweep-end
// summaries): iterating raw lines instead double-counts any task that was
// re-run or re-dispatched.
std::vector<TaskRecord> load_records(const std::string& path);

// The append side of a store file; reading it back is load_records'.
class ResultStore {
 public:
  // Opens `path` for appending, creating it (and its parent directory) if
  // needed; `truncate` discards any existing records first. A file left
  // without a trailing newline by a killed writer is newline-terminated
  // before the first append, so the next record starts on its own line: a
  // torn tail stays an isolated ignorable line, and a complete record that
  // merely lost its newline keeps its bytes.
  explicit ResultStore(const std::string& path, bool truncate = false);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  const std::string& path() const { return path_; }

  // Thread-safe append of one record line.
  void append(const TaskRecord& rec);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
};

}  // namespace bsp::campaign
