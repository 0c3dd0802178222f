#include "campaign/store.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "obs/interval.hpp"
#include "obs/json.hpp"

namespace bsp::campaign {
namespace {

using obs::fixed6;
using obs::json_escape;
using obs::JsonValue;

std::string fmt_ms(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

// Largest integer a record number is read as. A double holds every integer
// up to 2^53 exactly, but the text 2^53 + 1 already reads back as 2^53.
constexpr u64 kMaxExact = (u64{1} << 53) - 1;

// Reads typed members of one JSON object. A member that is present with the
// wrong type or out of range, or a required member that is absent, clears
// `ok`: the line is garbage, never a record with a field quietly lost.
struct FieldReader {
  const JsonValue& obj;
  bool& ok;

  const JsonValue* get(const char* key, bool required) {
    const JsonValue* v = obj.get(key);
    if (!v && required) ok = false;
    return v;
  }
  void str(const char* key, std::string& out, bool required = false) {
    if (const JsonValue* v = get(key, required)) {
      if (v->is_string())
        out = v->str;
      else
        ok = false;
    }
  }
  void real(const char* key, double& out) {
    if (const JsonValue* v = get(key, false)) {
      if (v->is_number())
        out = v->number;
      else
        ok = false;
    }
  }
  template <typename T>
  void uint(const char* key, T& out, bool required = false) {
    if (const JsonValue* v = get(key, required)) {
      const auto n = v->as_uint(
          std::min<u64>(kMaxExact, std::numeric_limits<T>::max()));
      if (n)
        out = static_cast<T>(*n);
      else
        ok = false;
    }
  }
  // A required "0x<hex>" string (seed, techniques), the way to_jsonl writes
  // the values a double could not hold.
  template <typename T>
  void hex(const char* key, T& out) {
    const JsonValue* v = get(key, true);
    if (!v || !v->is_string() || v->str.rfind("0x", 0) != 0) {
      ok = false;
      return;
    }
    u64 n = 0;
    const char* last = v->str.data() + v->str.size();
    const auto [end, ec] = std::from_chars(v->str.data() + 2, last, n, 16);
    if (ec != std::errc() || end != last || n > std::numeric_limits<T>::max())
      ok = false;
    else
      out = static_cast<T>(n);
  }
  // An object member; nullptr when absent or (clearing `ok`) not an object.
  const JsonValue* object(const char* key) {
    const JsonValue* v = get(key, false);
    if (v && !v->is_object()) {
      ok = false;
      return nullptr;
    }
    return v;
  }
  // Rows of integers ("series", "samples").
  void rows(const char* key, std::vector<std::vector<u64>>& out) {
    const JsonValue* v = get(key, false);
    if (!v) return;
    ok = ok && v->is_array();
    for (std::size_t r = 0; ok && r < v->array.size(); ++r) {
      const JsonValue& row = v->array[r];
      ok = row.is_array();
      out.emplace_back();
      for (std::size_t i = 0; ok && i < row.array.size(); ++i) {
        const auto n = row.array[i].as_uint(kMaxExact);
        ok = n.has_value();
        if (ok) out.back().push_back(*n);
      }
    }
  }
};

std::optional<MachineKind> machine_kind_named(const std::string& name) {
  for (const MachineKind k :
       {MachineKind::Base, MachineKind::Simple, MachineKind::Sliced})
    if (name == machine_kind_name(k)) return k;
  return std::nullopt;
}

}  // namespace

std::string to_jsonl(const TaskRecord& rec) {
  const TaskSpec& t = rec.task;
  std::ostringstream os;
  os << "{\"campaign\":\"" << json_escape(t.campaign) << "\""
     << ",\"task\":\"" << json_escape(t.id()) << "\""
     << ",\"workload\":\"" << json_escape(t.workload) << "\""
     << ",\"seed\":\"0x" << std::hex << t.seed << std::dec << "\""
     << ",\"machine\":\"" << machine_kind_name(t.machine.kind) << "\""
     << ",\"slices\":" << t.machine.slices
     << ",\"techniques\":\"0x" << std::hex << t.machine.techniques
     << std::dec << "\""
     << ",\"label\":\"" << json_escape(t.machine.label) << "\"";
  // Written only when set so stores without overrides stay byte-stable.
  if (!t.machine.overrides.empty())
    os << ",\"overrides\":\"" << json_escape(t.machine.overrides) << "\"";
  os << ",\"instructions\":" << t.instructions
     << ",\"warmup\":" << t.warmup;
  // Written only when nonzero so pre-fast-forward stores stay byte-stable.
  if (t.fast_forward != 0) os << ",\"fast_forward\":" << t.fast_forward;
  os << ",\"status\":\"" << json_escape(rec.status) << "\""
     << ",\"attempts\":" << rec.attempts
     << ",\"duration_ms\":" << fmt_ms(rec.duration_ms)
     << ",\"host_seconds\":" << fmt_ms(rec.stats.host_seconds);
  if (rec.max_rss_kb > 0 || rec.user_sec > 0 || rec.sys_sec > 0) {
    os << ",\"rusage\":{\"max_rss_kb\":" << rec.max_rss_kb
       << ",\"user_sec\":" << fmt_ms(rec.user_sec)
       << ",\"sys_sec\":" << fmt_ms(rec.sys_sec) << "}";
  }
  if (!rec.ckpt_cache.empty()) {
    os << ",\"ckpt_cache\":\"" << json_escape(rec.ckpt_cache) << "\""
       << ",\"ffwd_sec\":" << fixed6(rec.ffwd_sec);
  }
  if (rec.stats.host_profile.enabled) {
    const obs::HostProfile& hp = rec.stats.host_profile;
    const char* sep = ",\"host_phases\":{\"";
    for (const obs::HostPhaseDesc& p : obs::kHostPhaseFields) {
      os << sep << p.name << "\":" << fixed6(hp.*p.field);
      sep = ",\"";
    }
    os << ",\"loop_cycles\":" << hp.loop_cycles << "}";
  }
  if (!rec.error.empty())
    os << ",\"error\":\"" << json_escape(rec.error) << "\"";
  // The stats block covers every SimStats counter, in the observability
  // layer's registry order (obs/interval.hpp) — the same single source of
  // truth the interval sampler and trace validation use, so the store, the
  // sampler and the schema can never drift apart.
  if (rec.status == "ok") {
    os << ",\"stats\":{";
    bool first = true;
    for (const obs::CounterDesc& c : obs::simstats_counters()) {
      os << (first ? "\"" : ",\"") << c.name << "\":" << rec.stats.*c.field;
      first = false;
    }
    os << ",\"ipc\":" << fixed6(rec.stats.ipc()) << "}";
    if (rec.interval > 0 && !rec.series.empty()) {
      os << ",\"interval\":" << rec.interval << ",\"series\":[";
      for (std::size_t r = 0; r < rec.series.size(); ++r) {
        os << (r ? ",[" : "[");
        for (std::size_t i = 0; i < rec.series[r].size(); ++i)
          os << (i ? "," : "") << rec.series[r][i];
        os << "]";
      }
      os << "]";
    }
  }
  // The sampled shape, only for a sampled task — a monolithic store stays
  // byte-identical to pre-sampling builds.
  if (t.sample_intervals > 0) {
    os << ",\"sample_intervals\":" << t.sample_intervals
       << ",\"sample_warmup\":" << t.sample_warmup;
    if (rec.status == "ok" && !rec.samples.empty()) {
      os << ",\"samples\":[";
      for (std::size_t r = 0; r < rec.samples.size(); ++r) {
        os << (r ? ",[" : "[");
        for (std::size_t i = 0; i < rec.samples[r].size(); ++i)
          os << (i ? "," : "") << rec.samples[r][i];
        os << "]";
      }
      os << "]";
    }
  }
  os << "}";
  return os.str();
}

std::string task_jsonl(const TaskSpec& task) {
  TaskRecord rec;
  rec.task = task;
  rec.status = "queued";
  return to_jsonl(rec);
}

std::vector<TaskRecord> load_records(const std::string& path) {
  std::vector<TaskRecord> records;
  std::unordered_map<std::string, std::size_t> by_id;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    auto rec = parse_jsonl(line);
    if (!rec) continue;  // torn/foreign line: ignore
    const std::string id = rec->task.id();
    const auto it = by_id.find(id);
    if (it != by_id.end()) {
      records[it->second] = std::move(*rec);  // latest record wins
    } else {
      by_id.emplace(id, records.size());
      records.push_back(std::move(*rec));
    }
  }
  return records;
}

std::optional<TaskRecord> parse_jsonl(const std::string& line) {
  const auto doc = obs::parse_json(line);
  if (!doc || !doc->is_object()) return std::nullopt;
  bool ok = true;
  FieldReader r{*doc, ok};
  TaskRecord rec;
  TaskSpec& t = rec.task;
  std::string machine;
  r.str("campaign", t.campaign, true);
  r.str("workload", t.workload, true);
  r.hex("seed", t.seed);
  r.str("machine", machine, true);
  r.uint("slices", t.machine.slices, true);
  r.hex("techniques", t.machine.techniques);
  r.str("label", t.machine.label, true);
  r.str("overrides", t.machine.overrides);
  r.uint("instructions", t.instructions, true);
  r.uint("warmup", t.warmup, true);
  r.uint("fast_forward", t.fast_forward);
  r.str("status", rec.status, true);
  r.uint("attempts", rec.attempts, true);
  r.str("error", rec.error);
  r.real("duration_ms", rec.duration_ms);
  // Host-side throughput telemetry: optional (older stores lack it), and
  // deliberately not part of the simulated-stats equivalence surface.
  r.real("host_seconds", rec.stats.host_seconds);
  if (const JsonValue* ru = r.object("rusage")) {
    FieldReader u{*ru, ok};
    u.uint("max_rss_kb", rec.max_rss_kb);
    u.real("user_sec", rec.user_sec);
    u.real("sys_sec", rec.sys_sec);
  }
  r.str("ckpt_cache", rec.ckpt_cache);
  r.real("ffwd_sec", rec.ffwd_sec);
  if (const JsonValue* phases = r.object("host_phases")) {
    obs::HostProfile& hp = rec.stats.host_profile;
    hp.enabled = true;
    FieldReader h{*phases, ok};
    for (const obs::HostPhaseDesc& p : obs::kHostPhaseFields)
      h.real(p.name, hp.*p.field);
    h.uint("loop_cycles", hp.loop_cycles);
  }
  if (rec.status == "ok") {
    const JsonValue* stats = r.object("stats");
    if (!stats) return std::nullopt;
    FieldReader c{*stats, ok};
    // Counters appended after a store shipped (registry `optional`)
    // default to 0, so pre-upgrade stores keep parsing and resuming.
    for (const obs::CounterDesc& d : obs::simstats_counters())
      c.uint(d.name, rec.stats.*d.field, !d.optional);
    r.uint("interval", rec.interval);
    r.rows("series", rec.series);
  }
  r.uint("sample_intervals", t.sample_intervals);
  r.uint("sample_warmup", t.sample_warmup);
  r.rows("samples", rec.samples);
  const auto kind = machine_kind_named(machine);
  if (!ok || !kind) return std::nullopt;
  t.machine.kind = *kind;
  return rec;
}

ResultStore::ResultStore(const std::string& path, bool truncate)
    : path_(path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  bool unterminated_tail = false;
  if (!truncate) {
    // A writer killed mid-append leaves the file without a final newline.
    // Appending straight onto that would splice the next record into the
    // partial line, corrupting both; note it so the first append starts on
    // a fresh line instead.
    std::ifstream tail(path, std::ios::binary);
    if (tail) {
      tail.seekg(0, std::ios::end);
      if (tail.tellg() > 0) {
        tail.seekg(-1, std::ios::end);
        char last = '\n';
        tail.get(last);
        unterminated_tail = last != '\n';
      }
    }
  }
  file_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (!file_)
    throw std::runtime_error("campaign: cannot open result store " + path);
  if (unterminated_tail) {
    // Newline-terminate rather than truncate: a complete record that only
    // lost its newline is a record and must keep its bytes; a torn tail
    // becomes an isolated line every future load ignores.
    std::fputc('\n', file_);
    std::fflush(file_);
  }
}

ResultStore::~ResultStore() {
  if (file_) std::fclose(file_);
}

void ResultStore::append(const TaskRecord& rec) {
  const std::string line = to_jsonl(rec) + "\n";
  std::lock_guard<std::mutex> lock(mutex_);
  // One fwrite + flush per record: a record is either fully on disk or (if
  // we die mid-write) a torn final line the next load ignores.
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

}  // namespace bsp::campaign
