#include "campaign/store.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/interval.hpp"
#include "obs/json.hpp"

namespace bsp::campaign {
namespace {

// The record's stats block covers every SimStats counter, in the
// observability layer's registry order (obs/interval.hpp) — the same single
// source of truth the interval sampler and trace validation use, so the
// store, the sampler and the schema can never drift apart.

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Reads the four hex digits of a \uXXXX escape at s[i..i+3]; nullopt when
// the line is torn mid-escape or the digits are garbage.
std::optional<char32_t> hex4_at(const std::string& s, std::size_t i) {
  if (i + 4 > s.size()) return std::nullopt;
  char32_t cp = 0;
  for (int k = 0; k < 4; ++k) {
    const char c = s[i + static_cast<std::size_t>(k)];
    cp <<= 4;
    if (c >= '0' && c <= '9')
      cp |= static_cast<char32_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      cp |= static_cast<char32_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F')
      cp |= static_cast<char32_t>(c - 'A' + 10);
    else
      return std::nullopt;
  }
  return cp;
}

std::string unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    switch (s[++i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'u': {
        // Full \uXXXX decode, surrogate pairs included (obs::append_utf8
        // is the shared encoder). Malformed escapes pass through verbatim —
        // a field extractor must not throw on a torn line — and an unpaired
        // surrogate decodes to U+FFFD, never to invalid UTF-8.
        auto cp = hex4_at(s, i + 1);
        if (!cp) {
          out += "\\u";
          break;
        }
        i += 4;
        if (*cp >= 0xD800 && *cp <= 0xDBFF) {
          std::optional<char32_t> lo;
          if (i + 2 < s.size() && s[i + 1] == '\\' && s[i + 2] == 'u')
            lo = hex4_at(s, i + 3);
          if (lo && *lo >= 0xDC00 && *lo <= 0xDFFF) {
            *cp = 0x10000 + ((*cp - 0xD800) << 10) + (*lo - 0xDC00);
            i += 6;
          } else {
            *cp = 0xFFFD;  // high surrogate without its low half
          }
        } else if (*cp >= 0xDC00 && *cp <= 0xDFFF) {
          *cp = 0xFFFD;  // stray low surrogate
        }
        obs::append_utf8(*cp, out);
        break;
      }
      default: out += s[i];
    }
  }
  return out;
}

std::string fmt_ms(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

std::string fmt_sec(double sec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", sec);
  return buf;
}

// Parses "[[1,2],[3,4]]" (jsonl_array_field output) back into rows.
std::vector<std::vector<u64>> parse_series(const std::string& raw) {
  std::vector<std::vector<u64>> rows;
  std::vector<u64> row;
  int depth = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    if (c == '[') {
      if (++depth == 2) row.clear();
    } else if (c == ']') {
      if (depth-- == 2) rows.push_back(std::move(row));
    } else if (c >= '0' && c <= '9') {
      char* end = nullptr;
      row.push_back(std::strtoull(raw.c_str() + i, &end, 10));
      i = static_cast<std::size_t>(end - raw.c_str()) - 1;
    }
  }
  return rows;
}

}  // namespace

std::string to_jsonl(const TaskRecord& rec) {
  const TaskSpec& t = rec.task;
  std::ostringstream os;
  os << "{\"campaign\":\"" << escape(t.campaign) << "\""
     << ",\"task\":\"" << escape(t.id()) << "\""
     << ",\"workload\":\"" << escape(t.workload) << "\""
     << ",\"seed\":\"0x" << std::hex << t.seed << std::dec << "\""
     << ",\"machine\":\"" << machine_kind_name(t.machine.kind) << "\""
     << ",\"slices\":" << t.machine.slices
     << ",\"techniques\":\"0x" << std::hex << t.machine.techniques
     << std::dec << "\""
     << ",\"label\":\"" << escape(t.machine.label) << "\"";
  // Written only when set so stores without overrides stay byte-stable.
  if (!t.machine.overrides.empty())
    os << ",\"overrides\":\"" << escape(t.machine.overrides) << "\"";
  os << ",\"instructions\":" << t.instructions
     << ",\"warmup\":" << t.warmup;
  // Written only when nonzero so pre-fast-forward stores stay byte-stable.
  if (t.fast_forward != 0) os << ",\"fast_forward\":" << t.fast_forward;
  // Written only when set so pre-cosim stores stay byte-stable. Key is
  // "cosim_mode", not "cosim": host_phases below already owns a "cosim"
  // key and the line-oriented parser matches needles anywhere in the line.
  if (!t.cosim.empty()) os << ",\"cosim_mode\":\"" << escape(t.cosim) << "\"";
  os << ",\"status\":\"" << escape(rec.status) << "\""
     << ",\"attempts\":" << rec.attempts
     << ",\"duration_ms\":" << fmt_ms(rec.duration_ms)
     << ",\"host_seconds\":" << fmt_ms(rec.stats.host_seconds);
  if (rec.max_rss_kb > 0 || rec.user_sec > 0 || rec.sys_sec > 0) {
    os << ",\"rusage\":{\"max_rss_kb\":" << rec.max_rss_kb
       << ",\"user_sec\":" << fmt_ms(rec.user_sec)
       << ",\"sys_sec\":" << fmt_ms(rec.sys_sec) << "}";
  }
  if (!rec.ckpt_cache.empty()) {
    os << ",\"ckpt_cache\":\"" << escape(rec.ckpt_cache) << "\""
       << ",\"ffwd_sec\":" << fmt_sec(rec.ffwd_sec);
  }
  if (rec.stats.host_profile.enabled) {
    const obs::HostProfile& hp = rec.stats.host_profile;
    os << ",\"host_phases\":{\"commit\":" << fmt_sec(hp.commit)
       << ",\"resolve\":" << fmt_sec(hp.resolve)
       << ",\"select\":" << fmt_sec(hp.select)
       << ",\"memory\":" << fmt_sec(hp.memory)
       << ",\"dispatch\":" << fmt_sec(hp.dispatch)
       << ",\"fetch\":" << fmt_sec(hp.fetch)
       << ",\"cosim\":" << fmt_sec(hp.cosim)
       << ",\"replay\":" << fmt_sec(hp.replay)
       << ",\"ffwd\":" << fmt_sec(hp.ffwd)
       << ",\"loop_cycles\":" << hp.loop_cycles << "}";
  }
  if (!rec.error.empty()) os << ",\"error\":\"" << escape(rec.error) << "\"";
  if (rec.status == "ok") {
    os << ",\"stats\":{";
    bool first = true;
    for (const obs::CounterDesc& c : obs::simstats_counters()) {
      os << (first ? "\"" : ",\"") << c.name << "\":" << rec.stats.*c.field;
      first = false;
    }
    char ipc[64];
    std::snprintf(ipc, sizeof ipc, "%.6f", rec.stats.ipc());
    os << ",\"ipc\":" << ipc << "}";
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
  // Sampled-simulation block, only when the task actually sampled — a
  // monolithic store stays byte-identical to pre-sampling builds.
  if (rec.sample_intervals > 0) {
    os << ",\"sample_intervals\":" << rec.sample_intervals
       << ",\"sample_warmup\":" << rec.sample_warmup;
    if (rec.status == "ok") {
      os << ",\"ipc_mean\":" << fmt_sec(rec.ipc_mean)
         << ",\"ipc_ci95\":" << fmt_sec(rec.ipc_ci95);
      if (!rec.samples.empty()) {
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

std::optional<std::string> jsonl_field(const std::string& line,
                                       const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  if (i >= line.size()) return std::nullopt;
  if (line[i] == '"') {  // string value: scan to the unescaped close quote
    std::string raw;
    for (++i; i < line.size(); ++i) {
      if (line[i] == '\\' && i + 1 < line.size()) {
        raw += line[i];
        raw += line[++i];
      } else if (line[i] == '"') {
        return unescape(raw);
      } else {
        raw += line[i];
      }
    }
    return std::nullopt;  // unterminated string: torn line
  }
  std::size_t end = i;  // number: raw token up to , } or end
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  if (end == i) return std::nullopt;
  return line.substr(i, end - i);
}

std::optional<std::string> jsonl_array_field(const std::string& line,
                                             const std::string& key) {
  const std::string needle = "\"" + key + "\":[";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t open = at + needle.size() - 1;  // the '['
  int depth = 0;
  for (std::size_t i = open; i < line.size(); ++i) {
    if (line[i] == '[') {
      ++depth;
    } else if (line[i] == ']') {
      if (--depth == 0) return line.substr(open, i - open + 1);
    }
  }
  return std::nullopt;  // unbalanced: torn line
}

std::optional<TaskRecord> parse_jsonl(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}')
    return std::nullopt;
  TaskRecord rec;
  const auto str = [&](const char* key) { return jsonl_field(line, key); };
  const auto num = [&](const char* key) -> std::optional<u64> {
    const auto v = jsonl_field(line, key);
    if (!v) return std::nullopt;
    return std::strtoull(v->c_str(), nullptr, 0);
  };

  const auto campaign = str("campaign");
  const auto workload = str("workload");
  const auto seed = num("seed");
  const auto machine = str("machine");
  const auto slices = num("slices");
  const auto techniques = num("techniques");
  const auto label = str("label");
  const auto instructions = num("instructions");
  const auto warmup = num("warmup");
  const auto status = str("status");
  const auto attempts = num("attempts");
  if (!campaign || !workload || !seed || !machine || !slices || !techniques ||
      !label || !instructions || !warmup || !status || !attempts)
    return std::nullopt;

  rec.task.campaign = *campaign;
  rec.task.workload = *workload;
  rec.task.seed = *seed;
  if (*machine == "base") {
    rec.task.machine.kind = MachineKind::Base;
  } else if (*machine == "simple") {
    rec.task.machine.kind = MachineKind::Simple;
  } else if (*machine == "sliced") {
    rec.task.machine.kind = MachineKind::Sliced;
  } else {
    return std::nullopt;
  }
  rec.task.machine.slices = static_cast<unsigned>(*slices);
  rec.task.machine.techniques = static_cast<TechniqueSet>(*techniques);
  rec.task.machine.label = *label;
  if (const auto o = str("overrides")) rec.task.machine.overrides = *o;
  rec.task.instructions = *instructions;
  rec.task.warmup = *warmup;
  if (const auto ff = num("fast_forward")) rec.task.fast_forward = *ff;
  if (const auto cm = str("cosim_mode")) rec.task.cosim = *cm;
  rec.status = *status;
  rec.attempts = static_cast<unsigned>(*attempts);
  if (const auto e = str("error")) rec.error = *e;
  if (const auto d = str("duration_ms"))
    rec.duration_ms = std::strtod(d->c_str(), nullptr);
  // Host-side throughput telemetry: optional (older stores lack it), and
  // deliberately not part of the simulated-stats equivalence surface.
  if (const auto h = str("host_seconds"))
    rec.stats.host_seconds = std::strtod(h->c_str(), nullptr);
  // Process-isolation rusage: optional; keys are unique within a line.
  if (const auto v = num("max_rss_kb"))
    rec.max_rss_kb = static_cast<long>(*v);
  if (const auto v = str("user_sec"))
    rec.user_sec = std::strtod(v->c_str(), nullptr);
  if (const auto v = str("sys_sec"))
    rec.sys_sec = std::strtod(v->c_str(), nullptr);
  // "ffwd_sec" and the host_phases "ffwd" key never collide: the extractor
  // needles include the closing quote-colon.
  if (const auto v = str("ckpt_cache")) rec.ckpt_cache = *v;
  if (const auto v = str("ffwd_sec"))
    rec.ffwd_sec = std::strtod(v->c_str(), nullptr);
  if (jsonl_field(line, "host_phases")) {
    // Phase keys are unique within a line (no stats counter is an exact
    // match), so the flat extractor reads them through the nested object.
    obs::HostProfile& hp = rec.stats.host_profile;
    hp.enabled = true;
    const auto phase = [&](const char* key, double& out) {
      if (const auto v = jsonl_field(line, key))
        out = std::strtod(v->c_str(), nullptr);
    };
    phase("commit", hp.commit);
    phase("resolve", hp.resolve);
    phase("select", hp.select);
    phase("memory", hp.memory);
    phase("dispatch", hp.dispatch);
    phase("fetch", hp.fetch);
    phase("cosim", hp.cosim);
    phase("replay", hp.replay);
    phase("ffwd", hp.ffwd);
    if (const auto v = num("loop_cycles")) hp.loop_cycles = *v;
  }
  if (rec.status == "ok") {
    for (const obs::CounterDesc& c : obs::simstats_counters()) {
      const auto v = num(c.name);
      if (!v) {
        // Counters appended after a store shipped (registry `optional`)
        // default to 0, so pre-upgrade stores keep parsing and resuming.
        if (c.optional) continue;
        return std::nullopt;
      }
      rec.stats.*c.field = *v;
    }
    if (const auto iv = num("interval")) rec.interval = *iv;
    if (const auto arr = jsonl_array_field(line, "series"))
      rec.series = parse_series(*arr);
  }
  // Sampled-simulation block (optional; "sample_warmup" never collides
  // with "warmup" — the extractor needles include the opening quote).
  if (const auto k = num("sample_intervals")) {
    rec.sample_intervals = *k;
    if (const auto n = num("sample_warmup")) rec.sample_warmup = *n;
    if (const auto v = jsonl_field(line, "ipc_mean"))
      rec.ipc_mean = std::strtod(v->c_str(), nullptr);
    if (const auto v = jsonl_field(line, "ipc_ci95"))
      rec.ipc_ci95 = std::strtod(v->c_str(), nullptr);
    if (const auto arr = jsonl_array_field(line, "samples"))
      rec.samples = parse_series(*arr);
  }
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
    records_ = load_records(path);
    for (std::size_t i = 0; i < records_.size(); ++i)
      by_id_.emplace(records_[i].task.id(), i);
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
    // lost its newline was parsed above and must keep its bytes; a torn
    // tail becomes an isolated line every future load ignores.
    std::fputc('\n', file_);
    std::fflush(file_);
  }
}

ResultStore::~ResultStore() {
  if (file_) std::fclose(file_);
}

std::string ResultStore::status(const std::string& task_id) const {
  const TaskRecord* rec = find(task_id);
  return rec ? rec->status : "";
}

const TaskRecord* ResultStore::find(const std::string& task_id) const {
  const auto it = by_id_.find(task_id);
  return it == by_id_.end() ? nullptr : &records_[it->second];
}

void ResultStore::append(const TaskRecord& rec) {
  const std::string line = to_jsonl(rec) + "\n";
  std::lock_guard<std::mutex> lock(mutex_);
  // One fwrite + flush per record: a record is either fully on disk or (if
  // we die mid-write) a torn final line the next load ignores.
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  const std::string id = rec.task.id();
  const auto it = by_id_.find(id);
  if (it != by_id_.end()) {
    records_[it->second] = rec;
  } else {
    by_id_.emplace(id, records_.size());
    records_.push_back(rec);
  }
}

}  // namespace bsp::campaign
