#include "campaign/remote.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "campaign/ckpt_cache.hpp"
#include "campaign/store.hpp"
#include "obs/json.hpp"

namespace bsp::campaign {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Payloads are "VERB" or "VERB body".
std::pair<std::string, std::string> split_verb(const std::string& payload) {
  const std::size_t sp = payload.find(' ');
  if (sp == std::string::npos) return {payload, ""};
  return {payload.substr(0, sp), payload.substr(sp + 1)};
}

double json_num(const obs::JsonValue& obj, const char* key, double fallback) {
  const obs::JsonValue* v = obj.get(key);
  return v && v->is_number() ? v->number : fallback;
}

// An integer field of a peer's frame: nullopt when absent, or when present
// but not an integer in [0, max].
std::optional<u64> json_uint(const obs::JsonValue& obj, const char* key,
                             u64 max) {
  const obs::JsonValue* v = obj.get(key);
  return v ? v->as_uint(max) : std::nullopt;
}

}  // namespace

std::string encode_remote_spec(const RemoteSpec& spec) {
  std::ostringstream os;
  os << "{\"proto\":" << spec.proto << ",\"campaign\":\""
     << obs::json_escape(spec.campaign) << "\"";
  // Forwarded run options, in registry order.
  for (const RunOptionField& f : run_option_fields())
    if (!f.host_local) os << ",\"" << f.key << "\":" << f.json(spec.run);
  os << ",\"timeout_sec\":" << obs::fixed6(spec.timeout_sec)
     << ",\"max_attempts\":" << spec.max_attempts
     << ",\"heartbeat_sec\":" << obs::fixed6(spec.heartbeat_sec) << "}";
  return os.str();
}

std::optional<RemoteSpec> parse_remote_spec(const std::string& json) {
  const auto v = obs::parse_json(json);
  if (!v || !v->is_object()) return std::nullopt;
  RemoteSpec spec;
  const auto proto = json_uint(*v, "proto", INT_MAX);
  if (!proto) return std::nullopt;
  spec.proto = static_cast<int>(*proto);
  if (const obs::JsonValue* c = v->get("campaign"))
    if (c->is_string()) spec.campaign = c->str;
  for (const RunOptionField& f : run_option_fields()) {
    if (f.host_local) continue;
    if (const obs::JsonValue* fv = v->get(f.key))
      if (!f.set_json(*fv, &spec.run)) return std::nullopt;
  }
  spec.timeout_sec = json_num(*v, "timeout_sec", 0);
  if (v->get("max_attempts")) {
    const auto n = json_uint(*v, "max_attempts", UINT_MAX);
    if (!n) return std::nullopt;
    spec.max_attempts = static_cast<unsigned>(*n);
  }
  spec.heartbeat_sec = json_num(*v, "heartbeat_sec", 1.0);
  return spec;
}

// ------------------------------------------------------------- coordinator

namespace {

struct Conn {
  std::unique_ptr<FrameChannel> ch;
  std::string host = "?";
  unsigned slots = 0;
  enum Stage { kAwaitHello, kAwaitReady, kReady, kDead } stage = kAwaitHello;
  Clock::time_point last_seen;
  std::map<std::size_t, Clock::time_point> inflight;  // task idx -> sent at
};

struct TaskState {
  unsigned runners = 0;  // live connections currently holding the task
  Clock::time_point first_dispatch{};
};

// One dashboard poll in flight: the response is composed at accept time
// and drip-fed by the event loop, so a stalled or mute client can never
// stall dispatch or heartbeat accounting.
struct StatusConn {
  int fd = -1;
  std::string out;  // response bytes not yet written
  bool peer_eof = false;
  bool dead = false;
  Clock::time_point opened;
  Clock::time_point wrote{};  // zero until the response is fully out
};

// A finished status reply lingers this long so request bytes still in
// flight get drained (closing with unread data risks an RST that could
// discard the response); any status connection is closed outright after
// the deadline.
constexpr double kStatusLingerSec = 0.25;
constexpr double kStatusDeadlineSec = 2.0;

}  // namespace

CampaignReport serve_campaign(const SweepSpec& spec,
                              const CampaignOptions& options,
                              const RemoteOptions& remote) {
  CampaignLedger ledger(spec, options);
  const std::vector<TaskSpec>& tasks = ledger.tasks();
  std::deque<std::size_t> queue(ledger.pending().begin(),
                                ledger.pending().end());
  std::vector<TaskState> state(tasks.size());
  // Fully resumed: nothing to serve.
  if (queue.empty()) return ledger.finish();

  TcpListener listener;
  std::string err;
  if (!listener.open(remote.bind, &err))
    throw std::runtime_error("bsp-sweep --serve: " + err);
  TcpListener status_listener;
  if (remote.status && !status_listener.open(remote.status_bind, &err))
    throw std::runtime_error("bsp-sweep --status-endpoint: " + err);
  if (!remote.port_file.empty()) {
    // tmp + rename so a polling launcher script never reads a half-written
    // file.
    const std::string tmp = remote.port_file + ".tmp";
    {
      std::ofstream out(tmp);
      out << "port=" << listener.port() << "\n"
          << "status_port=" << (remote.status ? status_listener.port() : 0)
          << "\n";
    }
    std::rename(tmp.c_str(), remote.port_file.c_str());
  }
  std::fprintf(stderr,
               "bsp-sweep: serving campaign %s on %s:%u (%zu of %zu tasks "
               "pending%s)\n",
               spec.name.c_str(),
               remote.bind.host.empty() ? "0.0.0.0" : remote.bind.host.c_str(),
               listener.port(), queue.size(), tasks.size(),
               remote.status ? (", status :" +
                                std::to_string(status_listener.port()))
                                   .c_str()
                             : "");

  // Each pending checkpoint group rides to every worker as a PREWARM frame,
  // so each host pays each fast-forward once, before its first task.
  const std::vector<TaskSpec> reps = checkpoint_groups(ledger.pending_tasks());
  RemoteSpec wire_spec = remote.spec;
  wire_spec.heartbeat_sec = remote.heartbeat_sec;  // fleet-wide PING period
  const std::string spec_frame = "SPEC " + encode_remote_spec(wire_spec);

  // A deadline below the PING period would declare every healthy worker
  // dead between heartbeats; floor it at two missed beats.
  double worker_deadline_sec = remote.worker_deadline_sec;
  if (remote.heartbeat_sec > 0 &&
      worker_deadline_sec < 2 * remote.heartbeat_sec) {
    worker_deadline_sec = 2 * remote.heartbeat_sec;
    std::fprintf(stderr,
                 "bsp-sweep: --worker-deadline %.3gs is under twice the "
                 "%.3gs heartbeat; using %.3gs\n",
                 remote.worker_deadline_sec, remote.heartbeat_sec,
                 worker_deadline_sec);
  }

  std::vector<std::unique_ptr<Conn>> conns;
  std::size_t duplicates_dropped = 0;

  const auto drop_conn = [&](Conn& c, const char* why) {
    if (c.stage == Conn::kDead) return;
    if (!c.inflight.empty() || c.stage == Conn::kReady)
      std::fprintf(stderr,
                   "bsp-sweep: worker %s lost (%s), re-queueing %zu task%s\n",
                   c.host.c_str(), why, c.inflight.size(),
                   c.inflight.size() == 1 ? "" : "s");
    for (const auto& [idx, at] : c.inflight) {
      (void)at;
      if (state[idx].runners > 0) --state[idx].runners;
      if (!ledger.done(idx) && state[idx].runners == 0)
        queue.push_front(idx);  // front: a re-queued task is the oldest work
    }
    c.inflight.clear();
    c.stage = Conn::kDead;
    c.ch->flush_sends();  // best-effort: a queued ERROR should reach the peer
    c.ch->close();
  };

  const auto pick_task = [&](const Conn& c) -> std::optional<std::size_t> {
    while (!queue.empty()) {
      const std::size_t idx = queue.front();
      queue.pop_front();
      if (!ledger.done(idx)) return idx;
    }
    // Queue dry: steal the longest-in-flight straggler this worker is not
    // already running. Capped at two runners per task — one straggler, one
    // thief — so a slow task cannot fan out across the whole fleet.
    const auto now = Clock::now();
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < state.size(); ++i) {
      if (ledger.done(i) || state[i].runners == 0 || state[i].runners >= 2)
        continue;
      if (c.inflight.count(i)) continue;
      if (seconds_between(state[i].first_dispatch, now) <
          remote.steal_after_sec)
        continue;
      if (!best || state[i].first_dispatch < state[*best].first_dispatch)
        best = i;
    }
    return best;
  };

  const auto assign = [&](Conn& c) {
    if (c.stage != Conn::kReady) return;
    while (c.inflight.size() < c.slots) {
      const auto idx = pick_task(c);
      if (!idx) break;
      if (!c.ch->queue_send("TASK " + task_jsonl(tasks[*idx]))) {
        // The send failure re-queues this very task along with the rest.
        state[*idx].runners++;
        c.inflight[*idx] = Clock::now();
        drop_conn(c, "send failed");
        return;
      }
      const auto now = Clock::now();
      c.inflight[*idx] = now;
      if (state[*idx].runners++ == 0) state[*idx].first_dispatch = now;
    }
  };

  const auto handle_record = [&](Conn& c, const std::string& body) {
    auto rec = parse_jsonl(body);
    if (!rec) return;
    const auto idx = ledger.index_of(rec->task.id());
    if (!idx) return;  // foreign record: ignore
    if (c.inflight.erase(*idx) && state[*idx].runners > 0)
      --state[*idx].runners;
    // A re-dispatch race: the first record already won.
    if (!ledger.record(*idx, std::move(*rec))) ++duplicates_dropped;
  };

  const auto handle_frame = [&](Conn& c, const std::string& payload) {
    c.last_seen = Clock::now();
    const auto [verb, body] = split_verb(payload);
    switch (c.stage) {
      case Conn::kAwaitHello: {
        if (verb != "HELLO") {
          c.ch->queue_send("ERROR expected HELLO");
          drop_conn(c, "bad handshake");
          return;
        }
        const auto hello = obs::parse_json(body);
        const auto hello_proto = hello && hello->is_object()
                                     ? json_uint(*hello, "proto", INT_MAX)
                                     : std::nullopt;
        if (!hello_proto) {
          c.ch->queue_send("ERROR malformed HELLO");
          drop_conn(c, "malformed HELLO");
          return;
        }
        if (*hello_proto != kRemoteProtocolVersion) {
          c.ch->queue_send("ERROR incompatible protocol version " +
                           std::to_string(*hello_proto) +
                           " (coordinator speaks " +
                           std::to_string(kRemoteProtocolVersion) + ")");
          drop_conn(c, "protocol version mismatch");
          return;
        }
        if (const obs::JsonValue* h = hello->get("host"))
          if (h->is_string() && !h->str.empty()) c.host = h->str;
        c.slots = std::max<unsigned>(
            1, json_uint(*hello, "slots", UINT_MAX).value_or(1));
        bool sent = c.ch->queue_send(spec_frame);
        for (const TaskSpec& rep : reps)
          sent = sent && c.ch->queue_send("PREWARM " + task_jsonl(rep));
        sent = sent && c.ch->queue_send("GO");
        if (!sent) {
          drop_conn(c, "send failed");
          return;
        }
        c.stage = Conn::kAwaitReady;
        return;
      }
      case Conn::kAwaitReady:
        if (verb == "READY") {
          c.stage = Conn::kReady;
          std::fprintf(stderr,
                       "bsp-sweep: worker %s ready (%u slot%s)\n",
                       c.host.c_str(), c.slots, c.slots == 1 ? "" : "s");
          assign(c);
        }
        return;  // PINGs during prewarm just refresh last_seen
      case Conn::kReady:
        if (verb == "RECORD") {
          handle_record(c, body);
          assign(c);
        }
        return;  // PING handled by the last_seen refresh above
      case Conn::kDead:
        return;
    }
  };

  const auto status_json = [&]() -> std::string {
    const ProgressSnapshot s = ledger.progress();
    const CampaignReport& counts = s.counts;
    std::size_t inflight = 0;
    std::ostringstream workers;
    bool first = true;
    const auto now = Clock::now();
    for (const auto& c : conns) {
      if (c->stage == Conn::kDead) continue;
      inflight += c->inflight.size();
      workers << (first ? "" : ",") << "{\"host\":\""
              << obs::json_escape(c->host) << "\",\"slots\":" << c->slots
              << ",\"inflight\":" << c->inflight.size() << ",\"idle_sec\":"
              << obs::fixed6(seconds_between(c->last_seen, now)) << "}";
      first = false;
    }
    std::ostringstream os;
    os << "{\"campaign\":\"" << obs::json_escape(spec.name)
       << "\",\"proto\":" << kRemoteProtocolVersion
       << ",\"total\":" << counts.total << ",\"skipped\":" << counts.skipped
       << ",\"done\":" << counts.ran << ",\"ok\":" << counts.ok
       << ",\"failed\":" << counts.failed
       << ",\"crashed\":" << counts.crashed
       << ",\"retried\":" << counts.retried << ",\"queued\":" << queue.size()
       << ",\"inflight\":" << inflight
       << ",\"elapsed_sec\":" << obs::fixed6(s.elapsed_sec)
       << ",\"rate_tasks_per_sec\":" << obs::fixed6(s.rate)
       << ",\"eta_sec\":" << obs::fixed6(s.eta_sec)
       << ",\"commits_per_host_second\":"
       << obs::fixed6(s.commits_per_host_second)
       << ",\"max_rss_kb\":" << counts.max_rss_kb << ",\"workers\":["
       << workers.str() << "]}";
    return os.str();
  };

  // Best-effort micro-HTTP, fully non-blocking: the reply is composed at
  // accept time (no waiting for request bytes — dashboards poll, they
  // never keep the connection) and written as the socket allows.
  std::vector<StatusConn> status_conns;

  const auto open_status = [&](int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    StatusConn sc;
    sc.fd = fd;
    sc.opened = Clock::now();
    const std::string body = status_json();
    std::ostringstream resp;
    resp << "HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
         << "Content-Length: " << body.size()
         << "\r\nConnection: close\r\n\r\n"
         << body;
    sc.out = resp.str();
    status_conns.push_back(std::move(sc));
  };

  const auto flush_status = [](StatusConn& sc) {
    while (!sc.out.empty()) {
      const ssize_t k = ::send(sc.fd, sc.out.data(), sc.out.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (k > 0) {
        sc.out.erase(0, static_cast<std::size_t>(k));
        continue;
      }
      if (k < 0 && errno == EINTR) continue;
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      sc.dead = true;
      return;
    }
    ::shutdown(sc.fd, SHUT_WR);  // reply complete: tell the client it's over
    sc.wrote = Clock::now();
  };

  const auto service_status = [&](StatusConn& sc, short revents) {
    if (revents & (POLLIN | POLLHUP | POLLERR)) {
      char buf[2048];
      for (;;) {  // request bytes: read and ignore
        const ssize_t n = ::recv(sc.fd, buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0) continue;
        if (n == 0) {
          sc.peer_eof = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        sc.dead = true;
        break;
      }
    }
    if (!sc.dead && !sc.out.empty() && (revents & POLLOUT)) flush_status(sc);
  };

  while (ledger.remaining() > 0) {
    std::vector<struct pollfd> fds;
    fds.push_back({listener.fd(), POLLIN, 0});
    const std::size_t status_listener_at = fds.size();
    if (remote.status) fds.push_back({status_listener.fd(), POLLIN, 0});
    const std::size_t conn_base = fds.size();
    std::vector<Conn*> polled;
    for (const auto& c : conns)
      if (c->stage != Conn::kDead) {
        const short events = static_cast<short>(
            POLLIN | (c->ch->send_pending() ? POLLOUT : 0));
        fds.push_back({c->ch->fd(), events, 0});
        polled.push_back(c.get());
      }
    const std::size_t status_base = fds.size();
    const std::size_t status_polled = status_conns.size();
    for (const auto& sc : status_conns)
      fds.push_back({sc.fd,
                     static_cast<short>(POLLIN |
                                        (sc.out.empty() ? 0 : POLLOUT)),
                     0});
    const int rc = ::poll(fds.data(), fds.size(), 100);
    if (rc < 0 && errno != EINTR)
      throw std::runtime_error(std::string("bsp-sweep --serve: poll: ") +
                               std::strerror(errno));
    const auto now = Clock::now();
    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int fd = listener.accept_fd();
        if (fd < 0) break;
        auto conn = std::make_unique<Conn>();
        conn->ch = std::make_unique<FrameChannel>(fd);
        conn->last_seen = now;
        conns.push_back(std::move(conn));
      }
    }
    if (remote.status && (fds[status_listener_at].revents & POLLIN)) {
      for (;;) {
        const int fd = status_listener.accept_fd();
        if (fd < 0) break;
        open_status(fd);
        // Opportunistic first write: a fresh socket's send buffer swallows
        // the whole reply, so most polls never re-enter the poll set.
        flush_status(status_conns.back());
      }
    }
    for (std::size_t i = 0; i < polled.size(); ++i) {
      Conn& c = *polled[i];
      if (c.stage == Conn::kDead) continue;  // died earlier this sweep
      const short rev = fds[conn_base + i].revents;
      if ((rev & POLLOUT) && !c.ch->flush_sends()) {
        drop_conn(c, "send failed");
        continue;
      }
      if (!(rev & (POLLIN | POLLHUP | POLLERR))) continue;
      const bool alive = c.ch->pump();
      while (auto frame = c.ch->next_frame()) {
        handle_frame(c, *frame);
        if (c.stage == Conn::kDead) break;
      }
      if (!alive && c.stage != Conn::kDead) drop_conn(c, "connection closed");
      if (!c.ch->valid() && c.stage != Conn::kDead)
        drop_conn(c, "protocol error");
    }
    for (std::size_t i = 0; i < status_polled; ++i)
      service_status(status_conns[i], fds[status_base + i].revents);
    status_conns.erase(
        std::remove_if(status_conns.begin(), status_conns.end(),
                       [&](const StatusConn& sc) {
                         const bool replied =
                             sc.out.empty() &&
                             sc.wrote != Clock::time_point{} &&
                             (sc.peer_eof ||
                              seconds_between(sc.wrote, now) >
                                  kStatusLingerSec);
                         if (!sc.dead && !replied &&
                             seconds_between(sc.opened, now) <=
                                 kStatusDeadlineSec)
                           return false;
                         ::close(sc.fd);
                         return true;
                       }),
        status_conns.end());
    // Heartbeat deadline: a worker that went silent — wedged, partitioned,
    // or SIGKILLed without the FIN reaching us — forfeits its tasks.
    for (const auto& c : conns) {
      if (c->stage == Conn::kDead) continue;
      if (seconds_between(c->last_seen, now) > worker_deadline_sec)
        drop_conn(*c, "heartbeat deadline");
    }
    // Top up idle capacity: newly re-queued tasks and stealable stragglers
    // flow to whoever has free slots.
    for (const auto& c : conns) assign(*c);
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Conn>& c) {
                                 return c->stage == Conn::kDead;
                               }),
                conns.end());
  }

  for (const auto& c : conns)
    if (c->stage != Conn::kDead) c->ch->queue_send("DONE");
  // Drain the DONEs (plus any straggling task bytes) without letting one
  // wedged worker block the others' clean shutdown: bounded and
  // non-blocking, then close everything.
  const auto drain_deadline = Clock::now() + std::chrono::seconds(5);
  for (;;) {
    std::vector<struct pollfd> fds;
    std::vector<Conn*> pending;
    for (const auto& c : conns)
      if (c->stage != Conn::kDead && c->ch->send_pending()) {
        fds.push_back({c->ch->fd(), POLLOUT, 0});
        pending.push_back(c.get());
      }
    if (pending.empty() || Clock::now() >= drain_deadline) break;
    if (::poll(fds.data(), fds.size(), 100) < 0 && errno != EINTR) break;
    for (std::size_t i = 0; i < pending.size(); ++i)
      if (fds[i].revents & (POLLOUT | POLLHUP | POLLERR))
        if (!pending[i]->ch->flush_sends()) pending[i]->stage = Conn::kDead;
  }
  for (const auto& c : conns)
    if (c->stage != Conn::kDead) c->ch->close();
  for (const auto& sc : status_conns) ::close(sc.fd);
  if (duplicates_dropped > 0)
    std::fprintf(stderr,
                 "bsp-sweep: dropped %zu duplicate record%s from "
                 "re-dispatched tasks (first record per task wins)\n",
                 duplicates_dropped, duplicates_dropped == 1 ? "" : "s");
  return ledger.finish();
}

// ------------------------------------------------------------------ worker

namespace {

// Proof of life independent of task progress, running from the moment the
// coordinator knows this worker: the prewarm pre-pass can outlast any sane
// worker deadline, so PINGs must not wait for READY. The period can be
// retuned mid-flight (the SPEC frame carries the fleet-wide value); the
// destructor stops and joins, so every early-return path is covered.
class Heartbeat {
 public:
  Heartbeat(FrameChannel& ch, double period_sec)
      : period_(period_sec > 0 ? period_sec : 1.0),
        th_([this, &ch] { loop(ch); }) {}
  ~Heartbeat() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    cv_.notify_all();
    th_.join();
  }
  void set_period(double sec) {
    if (sec <= 0) return;
    {
      std::lock_guard<std::mutex> lk(m_);
      period_ = sec;
      ++gen_;
    }
    cv_.notify_all();
  }

 private:
  void loop(FrameChannel& ch) {
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      const std::uint64_t gen = gen_;
      const auto period = std::chrono::duration<double>(period_);
      cv_.wait_for(lk, period, [&] { return stop_ || gen_ != gen; });
      if (stop_) return;
      if (gen_ != gen) continue;  // retuned: restart the wait at the new period
      lk.unlock();
      ch.send("PING");
      lk.lock();
    }
  }

  std::mutex m_;
  std::condition_variable cv_;
  double period_;
  std::uint64_t gen_ = 0;
  bool stop_ = false;
  std::thread th_;
};

}  // namespace

WorkerReport run_remote_worker(const WorkerOptions& options,
                               const WorkerSetup& setup) {
  WorkerReport rep;
  std::string err;
  const int fd =
      tcp_connect(options.connect, options.connect_timeout_sec, &err);
  if (fd < 0) {
    rep.error = err;
    return rep;
  }
  FrameChannel ch(fd);
  const unsigned slots =
      options.slots > 0
          ? options.slots
          : std::max(1u, std::thread::hardware_concurrency());
  std::string host = options.hostname;
  if (host.empty()) {
    char buf[256] = "";
    if (::gethostname(buf, sizeof buf - 1) != 0 || buf[0] == '\0')
      std::snprintf(buf, sizeof buf, "worker-%d", ::getpid());
    host = buf;
  }
  {
    std::ostringstream hello;
    hello << "HELLO {\"proto\":" << kRemoteProtocolVersion << ",\"host\":\""
          << obs::json_escape(host) << "\",\"slots\":" << slots << "}";
    if (!ch.send(hello.str())) {
      rep.error = "sending HELLO failed";
      return rep;
    }
  }
  // Heartbeat from HELLO onward — the coordinator's deadline clock is
  // already running, and prewarm (below) can take minutes.
  Heartbeat beat(ch, options.heartbeat_sec);

  std::string payload;
  if (ch.recv(&payload, 30.0) != FrameResult::kFrame) {
    rep.error = "no SPEC from coordinator within 30s";
    return rep;
  }
  {
    const auto [verb, body] = split_verb(payload);
    if (verb == "ERROR") {
      rep.error = "coordinator rejected worker: " + body;
      return rep;
    }
    if (verb == "DONE") {
      // The campaign finished before this worker was served: a clean
      // finish with nothing run.
      rep.done = true;
      return rep;
    }
    if (verb != "SPEC") {
      rep.error = "protocol error: expected SPEC, got " + verb;
      return rep;
    }
    const auto spec = parse_remote_spec(body);
    if (!spec || spec->proto != kRemoteProtocolVersion) {
      rep.error = "unparseable or incompatible SPEC frame";
      return rep;
    }
    beat.set_period(spec->heartbeat_sec);  // fleet-wide period wins

    std::vector<TaskSpec> prewarm_tasks;
    for (;;) {
      if (ch.recv(&payload, 30.0) != FrameResult::kFrame) {
        rep.error = "connection lost during handshake";
        return rep;
      }
      const auto [v, b] = split_verb(payload);
      if (v == "PREWARM") {
        if (const auto rec = parse_jsonl(b)) prewarm_tasks.push_back(rec->task);
      } else if (v == "GO") {
        break;
      } else {
        rep.error = "protocol error during handshake: " + v;
        return rep;
      }
    }

    TaskRunner runner;
    SchedulerOptions sched;
    sched.jobs = slots;
    sched.timeout_sec = spec->timeout_sec;
    sched.max_attempts = spec->max_attempts;
    if (setup) setup(*spec, &runner, &sched);
    if (!runner) {
      rep.error = "worker setup produced no runner";
      return rep;
    }

    // Per-host prewarm pre-pass: each distinct checkpoint is materialised
    // (or found) in this host's cache before the first TASK arrives.
    PrewarmStats pw;
    if (!prewarm_tasks.empty())
      pw = prewarm_checkpoint_cache(prewarm_tasks, sched);
    rep.prewarm_groups = pw.groups;
    {
      std::ostringstream ready;
      ready << "READY {\"groups\":" << pw.groups
            << ",\"materialised\":" << pw.materialised
            << ",\"reused\":" << pw.reused << "}";
      if (!ch.send(ready.str())) {
        rep.error = "sending READY failed";
        return rep;
      }
    }

    // Slot pool: the coordinator keeps at most `slots` tasks open on this
    // connection, so the queue never grows past that.
    struct Pool {
      std::mutex m;
      std::condition_variable cv;
      std::deque<TaskSpec> q;
      bool closed = false;
    } pool;
    std::atomic<std::size_t> ran{0}, ok{0};
    std::vector<std::thread> threads;
    threads.reserve(slots);
    for (unsigned i = 0; i < slots; ++i) {
      threads.emplace_back([&] {
        for (;;) {
          TaskSpec task;
          {
            std::unique_lock<std::mutex> lk(pool.m);
            pool.cv.wait(lk,
                         [&] { return pool.closed || !pool.q.empty(); });
            if (pool.q.empty()) return;  // closed and drained
            task = std::move(pool.q.front());
            pool.q.pop_front();
          }
          const TaskOutcome out = run_one_task(task, runner, sched);
          ran.fetch_add(1);
          if (out.ok()) ok.fetch_add(1);
          ch.send("RECORD " + to_jsonl(TaskRecord{out, task}));
        }
      });
    }

    for (;;) {
      const FrameResult r = ch.recv(&payload, 60.0);
      if (r == FrameResult::kTimeout) continue;
      if (r != FrameResult::kFrame) {
        if (!rep.done) rep.error = "connection to coordinator lost";
        break;
      }
      const auto [v, b] = split_verb(payload);
      if (v == "TASK") {
        if (const auto rec = parse_jsonl(b)) {
          std::lock_guard<std::mutex> lk(pool.m);
          pool.q.push_back(rec->task);
          pool.cv.notify_one();
        }
      } else if (v == "DONE") {
        rep.done = true;
        break;
      } else if (v == "ERROR") {
        rep.error = "coordinator error: " + b;
        break;
      }
    }

    {
      std::lock_guard<std::mutex> lk(pool.m);
      pool.closed = true;
    }
    pool.cv.notify_all();
    for (std::thread& t : threads) t.join();
    rep.ran = ran.load();
    rep.ok = ok.load();
  }
  return rep;
}

}  // namespace bsp::campaign
