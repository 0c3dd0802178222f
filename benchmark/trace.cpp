#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace bench {
namespace {

// Spans open on this thread, innermost last: the implicit parent.
thread_local std::vector<std::uint64_t> tl_open;

unsigned thread_index() {
  static std::atomic<unsigned> next{1};
  thread_local const unsigned tid = next.fetch_add(1);
  return tid;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string micros(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

void Tracer::start_round(unsigned round, bool traced) {
  std::lock_guard<std::mutex> lock(mutex_);
  round_ = round;
  active_.store(traced, std::memory_order_relaxed);
}

std::uint64_t Tracer::open(const char* name, SpanArgs args,
                           std::uint64_t parent) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count();
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord rec;
  rec.id = next_id_++;
  rec.parent = parent;
  rec.name = name;
  rec.start_ns = now;
  rec.end_ns = now;
  rec.tid = thread_index();
  rec.round = round_;
  rec.args = std::move(args);
  open_.emplace(rec.id, spans_.size());
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void Tracer::close(std::uint64_t id) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = now;
  open_.erase(it);
}

std::map<unsigned, std::map<std::string, double>> Tracer::self_seconds()
    const {
  std::map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans_)
    if (s.parent != 0) children[s.parent].push_back(&s);

  std::map<unsigned, std::map<std::string, double>> out;
  for (const SpanRecord& s : spans_) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    if (const auto it = children.find(s.id); it != children.end())
      for (const SpanRecord* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (a < b) cover.emplace_back(a, b);
      }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [a, b] : cover) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    out[s.round][layer_of(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  for (const SpanRecord& s : spans_) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":";
    append_json_string(out, s.name);
    out += ",\"cat\":";
    append_json_string(out, layer_of(s.name));
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.tid);
    out += ",\"ts\":" + micros(s.start_ns);
    out += ",\"dur\":" + micros(s.end_ns - s.start_ns);
    out += ",\"args\":{\"id\":" + std::to_string(s.id);
    out += ",\"parent\":" + std::to_string(s.parent);
    out += ",\"round\":" + std::to_string(s.round);
    const std::pair<const char*, const std::string*> text[] = {
        {"kernel", &s.args.kernel},
        {"machine", &s.args.machine},
        {"task", &s.args.task}};
    for (const auto& [key, value] : text)
      if (!value->empty()) {
        out += ",\"";
        out += key;
        out += "\":";
        append_json_string(out, *value);
      }
    out += "}}";
  }
  out += "\n]}\n";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << out;
  return static_cast<bool>(f.flush());
}

Span::Span(Tracer& tracer, const char* name, SpanArgs args,
           std::uint64_t parent)
    : tracer_(tracer) {
  if (!tracer.active()) return;
  if (parent == kInherit) parent = tl_open.empty() ? 0 : tl_open.back();
  id_ = tracer.open(name, std::move(args), parent);
  tl_open.push_back(id_);
}

Span::~Span() {
  if (id_ == 0) return;
  tl_open.pop_back();
  tracer_.close(id_);
}

}  // namespace bench
