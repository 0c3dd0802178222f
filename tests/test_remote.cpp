// Distributed-sweep tests: the frame layer's reassembly and poisoning, the
// RemoteSpec wire encoding, and the coordinator/worker protocol end to end
// over localhost TCP — handshake rejection, dead-worker re-dispatch,
// heartbeat deadlines, work-stealing, resume against a pre-populated
// store, and the exactly-once-in-store guarantee under all of the above.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/remote.hpp"
#include "campaign/store.hpp"
#include "obs/json.hpp"
#include "util/cli.hpp"
#include "util/socket.hpp"

namespace bsp::campaign {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void sleep_sec(double sec) {
  std::this_thread::sleep_for(std::chrono::duration<double>(sec));
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "bsp_remote_" + name + "_" +
         std::to_string(::getpid());
}

SweepSpec tiny_spec(std::vector<u64> seeds) {
  SweepSpec spec;
  spec.name = "remote";
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

// Deterministic synthetic runner: no simulator, stats keyed on the id.
TaskRunner fake_runner(double sleep_for = 0,
                       const std::string& slow_id_substr = "") {
  return [=](const TaskSpec& t) -> TaskOutcome {
    if (sleep_for > 0 &&
        (slow_id_substr.empty() ||
         t.id().find(slow_id_substr) != std::string::npos))
      sleep_sec(sleep_for);
    TaskOutcome r;
    r.stats = fake_stats(t);
    return r;
  };
}

WorkerSetup test_setup(TaskRunner runner) {
  return [runner](const RemoteSpec&, TaskRunner* r, SchedulerOptions*) {
    *r = runner;
  };
}

CampaignOptions serve_options(const std::string& out_path, bool fresh) {
  CampaignOptions options;
  options.out_path = out_path;
  options.fresh = fresh;
  options.progress = false;
  return options;
}

// Polls the coordinator's --port-file (written atomically via rename, so a
// present file is a complete file).
struct Ports {
  std::uint16_t port = 0;
  std::uint16_t status = 0;
};
Ports wait_ports(const std::string& path, double timeout_sec = 10) {
  const auto t0 = Clock::now();
  while (seconds_since(t0) < timeout_sec) {
    std::ifstream in(path);
    std::string line;
    Ports p;
    while (std::getline(in, line)) {
      if (line.rfind("port=", 0) == 0)
        p.port = static_cast<std::uint16_t>(std::stoul(line.substr(5)));
      else if (line.rfind("status_port=", 0) == 0)
        p.status =
            static_cast<std::uint16_t>(std::stoul(line.substr(12)));
    }
    if (p.port != 0) return p;
    sleep_sec(0.01);
  }
  return {};
}

WorkerOptions worker_options(std::uint16_t port, unsigned slots = 1) {
  WorkerOptions w;
  w.connect = {"127.0.0.1", port};
  w.slots = slots;
  w.heartbeat_sec = 0.1;
  w.connect_timeout_sec = 5;
  w.hostname = "test-worker";
  return w;
}

std::optional<std::string> expect_frame(FrameChannel& ch,
                                        double timeout_sec = 5) {
  std::string payload;
  if (ch.recv(&payload, timeout_sec) != FrameResult::kFrame)
    return std::nullopt;
  return payload;
}

// Raw fake worker: drives the handshake by hand so tests can then
// misbehave (vanish mid-task, go silent) in ways run_remote_worker never
// would. Returns a connected channel that has sent READY, or nullptr.
std::unique_ptr<FrameChannel> fake_ready_worker(
    std::uint16_t port, int proto = kRemoteProtocolVersion,
    unsigned slots = 1) {
  std::string err;
  const int fd = tcp_connect({"127.0.0.1", port}, 5, &err);
  if (fd < 0) return nullptr;
  auto ch = std::make_unique<FrameChannel>(fd);
  std::ostringstream hello;
  hello << "HELLO {\"proto\":" << proto
        << ",\"host\":\"fake\",\"slots\":" << slots << "}";
  if (!ch->send(hello.str())) return nullptr;
  for (;;) {
    const auto frame = expect_frame(*ch);
    if (!frame) return nullptr;
    if (frame->rfind("ERROR", 0) == 0) return nullptr;
    if (*frame == "GO") break;  // SPEC and PREWARM frames skipped over
  }
  if (!ch->send("READY {\"groups\":0}")) return nullptr;
  return ch;
}

// Each task's latest record in the store at `path`, by task id.
std::map<std::string, TaskRecord> stored_by_id(const std::string& path) {
  std::map<std::string, TaskRecord> out;
  for (TaskRecord& rec : load_records(path))
    out.emplace(rec.task.id(), std::move(rec));
  return out;
}

// One GET of the coordinator's --status-endpoint: the raw HTTP reply, or
// "" when the connection failed.
std::string http_get(std::uint16_t port) {
  std::string err;
  const int fd = tcp_connect({"127.0.0.1", port}, 2, &err);
  if (fd < 0) {
    ADD_FAILURE() << err;
    return "";
  }
  const std::string req = "GET / HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    resp.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return resp;
}

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line))
    if (!line.empty()) ++n;
  return n;
}

// ------------------------------------------------------------------ framing

TEST(Framing, ReassemblesFramesFromSplitReads) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameChannel rx(fds[1]);
  const std::string payload = "RECORD {\"task\":\"x\",\"status\":\"ok\"}";
  std::string wire;
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  wire += static_cast<char>(n >> 24);
  wire += static_cast<char>((n >> 16) & 0xFF);
  wire += static_cast<char>((n >> 8) & 0xFF);
  wire += static_cast<char>(n & 0xFF);
  wire += payload;
  // Dribble the wire bytes a few at a time from another thread: the reader
  // must reassemble exactly the sent payload across arbitrarily split
  // reads, including a split inside the length prefix.
  std::thread writer([&] {
    for (std::size_t i = 0; i < wire.size(); i += 3) {
      const std::size_t k = std::min<std::size_t>(3, wire.size() - i);
      ASSERT_EQ(::send(fds[0], wire.data() + i, k, 0),
                static_cast<ssize_t>(k));
      sleep_sec(0.002);
    }
  });
  std::string out;
  EXPECT_EQ(rx.recv(&out, 5), FrameResult::kFrame);
  EXPECT_EQ(out, payload);
  writer.join();
  ::close(fds[0]);
}

TEST(Framing, HandsOutSeveralFramesArrivingInOneBurst) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameChannel tx(fds[0]);
  FrameChannel rx(fds[1]);
  ASSERT_TRUE(tx.send("PING"));
  ASSERT_TRUE(tx.send("RECORD payload-two"));
  ASSERT_TRUE(tx.send("DONE"));
  std::string a, b, c;
  EXPECT_EQ(rx.recv(&a, 5), FrameResult::kFrame);
  EXPECT_EQ(rx.recv(&b, 5), FrameResult::kFrame);
  EXPECT_EQ(rx.recv(&c, 5), FrameResult::kFrame);
  EXPECT_EQ(a, "PING");
  EXPECT_EQ(b, "RECORD payload-two");
  EXPECT_EQ(c, "DONE");
}

TEST(Framing, EmptyPayloadRoundTrips) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameChannel tx(fds[0]);
  FrameChannel rx(fds[1]);
  ASSERT_TRUE(tx.send(""));
  std::string out = "sentinel";
  EXPECT_EQ(rx.recv(&out, 5), FrameResult::kFrame);
  EXPECT_EQ(out, "");
}

TEST(Framing, OversizedLengthPrefixPoisonsTheChannel) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameChannel rx(fds[1]);
  // 256 MiB claimed > 64 MiB cap: the reader must refuse to allocate and
  // must never hand out frames from this stream again.
  const unsigned char evil[4] = {0x10, 0x00, 0x00, 0x00};
  ASSERT_EQ(::send(fds[0], evil, 4, 0), 4);
  std::string out;
  EXPECT_EQ(rx.recv(&out, 2), FrameResult::kError);
  EXPECT_FALSE(rx.valid());
  ::close(fds[0]);
}

TEST(Framing, FrameArrivingWithTheFinIsStillDelivered) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  {
    FrameChannel tx(fds[0]);
    ASSERT_TRUE(tx.send("RECORD last-words"));
  }  // dtor closes: payload and FIN race into the receive buffer together
  FrameChannel rx(fds[1]);
  std::string out;
  EXPECT_EQ(rx.recv(&out, 5), FrameResult::kFrame);
  EXPECT_EQ(out, "RECORD last-words");
  EXPECT_EQ(rx.recv(&out, 5), FrameResult::kClosed);
}

// -------------------------------------------------------------- addr + spec

TEST(SocketAddrParse, AcceptsHostPortAndAnyInterfaceForms) {
  auto a = parse_socket_addr("127.0.0.1:9000");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->host, "127.0.0.1");
  EXPECT_EQ(a->port, 9000);
  auto any = parse_socket_addr(":0");
  ASSERT_TRUE(any);
  EXPECT_EQ(any->host, "");
  EXPECT_EQ(any->port, 0);
  EXPECT_FALSE(parse_socket_addr("no-port"));
  EXPECT_FALSE(parse_socket_addr("host:"));
  EXPECT_FALSE(parse_socket_addr("host:99999"));
  EXPECT_FALSE(parse_socket_addr("host:12x"));
}

TEST(RemoteSpecJson, RoundTripsEveryField) {
  RemoteSpec spec;
  spec.campaign = "fig11";
  spec.run.interval = 5000;
  spec.run.host_profile = true;
  spec.run.cpi_stack = true;
  spec.run.sample_intervals = 30;
  spec.run.sample_warmup = 1234;
  spec.timeout_sec = 12.5;
  spec.max_attempts = 3;
  spec.heartbeat_sec = 0.25;
  const auto back = parse_remote_spec(encode_remote_spec(spec));
  ASSERT_TRUE(back);
  EXPECT_EQ(back->proto, kRemoteProtocolVersion);
  EXPECT_EQ(back->campaign, "fig11");
  EXPECT_EQ(back->run.interval, 5000u);
  EXPECT_TRUE(back->run.host_profile);
  EXPECT_TRUE(back->run.cpi_stack);
  EXPECT_EQ(back->run.sample_intervals, 30u);
  EXPECT_EQ(back->run.sample_warmup, 1234u);
  EXPECT_DOUBLE_EQ(back->timeout_sec, 12.5);
  EXPECT_EQ(back->max_attempts, 3u);
  EXPECT_DOUBLE_EQ(back->heartbeat_sec, 0.25);
  EXPECT_FALSE(parse_remote_spec("not json"));
  EXPECT_FALSE(parse_remote_spec("{\"campaign\":\"x\"}"));  // no proto
}

// The SPEC frame is wire protocol: a worker of another build must read
// it, so its bytes only change together with kRemoteProtocolVersion.
TEST(RemoteSpecJson, FrameBytesArePinned) {
  RemoteSpec spec;
  spec.campaign = "fig11";
  spec.run.interval = 5000;
  spec.run.host_profile = true;
  spec.run.cpi_stack = true;
  spec.run.sample_intervals = 30;
  spec.run.sample_warmup = 1234;
  spec.run.ckpt_cache_dir = "/host/local";  // never on the wire
  spec.timeout_sec = 12.5;
  spec.max_attempts = 3;
  spec.heartbeat_sec = 0.25;
  EXPECT_EQ(encode_remote_spec(spec),
            R"({"proto":3,"campaign":"fig11","interval":5000,)"
            R"("host_profile":true,"cpi_stack":true,"sample_intervals":30,)"
            R"("sample_warmup":1234,"timeout_sec":12.500000,)"
            R"("max_attempts":3,"heartbeat_sec":0.250000})");
  EXPECT_EQ(encode_remote_spec(RemoteSpec{}),
            R"({"proto":3,"campaign":"","interval":0,"host_profile":false,)"
            R"("cpi_stack":false,"sample_intervals":0,"sample_warmup":2000,)"
            R"("timeout_sec":0.000000,"max_attempts":2,)"
            R"("heartbeat_sec":1.000000})");
  const auto back = parse_remote_spec(encode_remote_spec(spec));
  ASSERT_TRUE(back);
  EXPECT_TRUE(back->run.ckpt_cache_dir.empty());
}

// SPEC-frame numbers come from another process: a negative, fractional or
// out-of-range value rejects the frame instead of wrapping into a huge or
// zero knob.
TEST(RemoteSpecJson, RejectsNumbersOutsideTheFieldsRange) {
  EXPECT_FALSE(parse_remote_spec(R"({"proto":2,"sample_intervals":-1})"));
  EXPECT_FALSE(parse_remote_spec(R"({"proto":2,"sample_warmup":1e30})"));
  EXPECT_FALSE(parse_remote_spec(R"({"proto":1e30})"));
  EXPECT_FALSE(parse_remote_spec(R"({"proto":2,"interval":0.5})"));
  EXPECT_FALSE(
      parse_remote_spec(R"({"proto":2,"sample_intervals":4294967296})"));
  EXPECT_FALSE(parse_remote_spec(R"({"proto":2,"max_attempts":-2})"));
  EXPECT_FALSE(parse_remote_spec(R"({"proto":2,"cpi_stack":1})"));
  const auto edge =
      parse_remote_spec(R"({"proto":2,"sample_intervals":4294967295})");
  ASSERT_TRUE(edge);
  EXPECT_EQ(edge->run.sample_intervals, 4294967295u);
}

// --------------------------------------------------------------- run options

// A RunnerOptions member missing from the registry would silently stay
// behind on every worker. The structured binding stops compiling when a
// member is added; the loop then demands a registry entry for it.
TEST(RunOptions, EveryMemberIsRegistered) {
  RunnerOptions o;
  auto& [interval, host_profile, ckpt_cache_dir, cpi_stack,
         sample_intervals, sample_warmup] = o;
  const std::vector<const void*> members = {
      &interval,  &host_profile,     &ckpt_cache_dir,
      &cpi_stack, &sample_intervals, &sample_warmup};
  std::vector<const void*> registered;
  for (const RunOptionField& f : run_option_fields())
    registered.push_back(
        std::visit([&](auto m) -> const void* { return &(o.*m); }, f.member));
  EXPECT_EQ(registered, members);
}

// Every field, set to a value that is not its default, reaches a worker:
// through the --isolate process argv and the parser the tools build from
// the registry, and — unless host-local — through the SPEC frame.
TEST(RunOptions, EveryFieldReachesWorkers) {
  RunnerOptions o;
  unsigned n = 0;
  for (const RunOptionField& f : run_option_fields()) {
    ++n;
    std::visit(
        [&](auto m) {
          using T = std::decay_t<decltype(o.*m)>;
          if constexpr (std::is_same_v<T, bool>)
            o.*m = true;
          else if constexpr (std::is_same_v<T, std::string>)
            o.*m = "spot:" + std::to_string(n);
          else
            o.*m = 1'000 + n;
        },
        f.member);
    EXPECT_FALSE(f.is_default(o)) << f.key;
  }

  std::vector<std::string> args = {"worker"};
  for (const std::string& a : run_option_args(o)) args.push_back(a);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  RunnerOptions parsed;
  ArgParser parser("worker");
  add_run_option_flags(parser, &parsed);
  parser.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(parsed, o);
  EXPECT_TRUE(run_option_args(RunnerOptions{}).empty());

  RemoteSpec spec;
  spec.run = o;
  const auto back = parse_remote_spec(encode_remote_spec(spec));
  ASSERT_TRUE(back);
  RunnerOptions expected = o;
  for (const RunOptionField& f : run_option_fields())
    if (f.host_local) f.copy(RunnerOptions{}, &expected);
  EXPECT_EQ(back->run, expected);
  EXPECT_NE(expected, o);  // some field is host-local
}

// --------------------------------------------------------------- end to end

TEST(RemoteCampaign, DistributedRunMatchesTheLocalRunnerByteForByte) {
  const SweepSpec spec = tiny_spec({0x5eed, 0x1111, 0x2222, 0x3333});
  const std::string out = temp_path("e2e") + ".jsonl";
  const std::string ports_path = temp_path("e2e_ports");

  RemoteOptions ropts;
  ropts.bind = {"127.0.0.1", 0};
  ropts.port_file = ports_path;
  auto serve = std::async(std::launch::async, [&] {
    return serve_campaign(spec, serve_options(out, true), ropts);
  });
  const Ports ports = wait_ports(ports_path);
  ASSERT_NE(ports.port, 0);

  // Two workers race for the four tasks. No task completes before both
  // have joined, or the first could finish the campaign before the second
  // is served.
  std::mutex m;
  std::condition_variable cv;
  unsigned joined = 0;
  const TaskRunner gated = [&, runner = fake_runner()](const TaskSpec& t) {
    {
      std::unique_lock<std::mutex> lk(m);
      cv.wait_for(lk, std::chrono::seconds(30), [&] { return joined == 2; });
    }
    return runner(t);
  };
  const WorkerSetup join = [&](const RemoteSpec&, TaskRunner* r,
                               SchedulerOptions*) {
    *r = gated;
    std::lock_guard<std::mutex> lk(m);
    ++joined;
    cv.notify_all();
  };
  auto w1 = std::async(std::launch::async, [&] {
    return run_remote_worker(worker_options(ports.port, 1), join);
  });
  auto w2 = std::async(std::launch::async, [&] {
    return run_remote_worker(worker_options(ports.port, 1), join);
  });
  const CampaignReport report = serve.get();
  const WorkerReport r1 = w1.get(), r2 = w2.get();

  EXPECT_EQ(report.total, 4u);
  EXPECT_EQ(report.ran, 4u);
  EXPECT_EQ(report.ok, 4u);
  EXPECT_TRUE(r1.done);
  EXPECT_TRUE(r2.done);
  EXPECT_EQ(r1.ran + r2.ran, 4u);

  // Exactly once in the store, and every record carries the same stats the
  // local runner would have produced.
  EXPECT_EQ(count_lines(out), 4u);
  const auto stored = stored_by_id(out);
  for (const auto& task : spec.expand()) {
    ASSERT_EQ(stored.count(task.id()), 1u) << task.id();
    const TaskRecord& rec = stored.at(task.id());
    EXPECT_EQ(rec.status, "ok");
    EXPECT_EQ(rec.stats.cycles, fake_stats(task).cycles);
    EXPECT_EQ(rec.stats.committed, fake_stats(task).committed);
  }
  std::remove(out.c_str());
  std::remove(ports_path.c_str());
}

TEST(RemoteWorker, DoneInPlaceOfSpecIsACleanFinish) {
  // A worker that connects after the last task was served gets DONE where
  // it expects SPEC: the campaign is over, and it ran nothing.
  TcpListener listener;
  std::string err;
  ASSERT_TRUE(listener.open({"127.0.0.1", 0}, &err)) << err;
  auto worker = std::async(std::launch::async, [&] {
    return run_remote_worker(worker_options(listener.port(), 1),
                             test_setup(fake_runner()));
  });
  int fd = -1;
  const auto t0 = Clock::now();
  while (fd < 0 && seconds_since(t0) < 5) {
    fd = listener.accept_fd();
    if (fd < 0) sleep_sec(0.01);
  }
  ASSERT_GE(fd, 0);
  FrameChannel ch(fd);
  const auto hello = expect_frame(ch);
  ASSERT_TRUE(hello);
  EXPECT_EQ(hello->rfind("HELLO", 0), 0u) << *hello;
  ASSERT_TRUE(ch.send("DONE"));
  const WorkerReport r = worker.get();
  EXPECT_TRUE(r.done);
  EXPECT_EQ(r.ran, 0u);
  EXPECT_EQ(r.error, "");
}

TEST(RemoteCampaign, ProtocolVersionMismatchIsRejectedAtHello) {
  const SweepSpec spec = tiny_spec({0x5eed});
  const std::string out = temp_path("vers") + ".jsonl";
  const std::string ports_path = temp_path("vers_ports");

  RemoteOptions ropts;
  ropts.bind = {"127.0.0.1", 0};
  ropts.port_file = ports_path;
  auto serve = std::async(std::launch::async, [&] {
    return serve_campaign(spec, serve_options(out, true), ropts);
  });
  const Ports ports = wait_ports(ports_path);
  ASSERT_NE(ports.port, 0);

  // A worker speaking v2 (whose task ids carried the co-simulation label)
  // or tomorrow's protocol gets an ERROR frame, not a SPEC.
  for (const int proto : {2, 99}) {
    std::string err;
    const int fd = tcp_connect({"127.0.0.1", ports.port}, 5, &err);
    ASSERT_GE(fd, 0) << err;
    FrameChannel ch(fd);
    ASSERT_TRUE(ch.send("HELLO {\"proto\":" + std::to_string(proto) +
                        ",\"host\":\"other\",\"slots\":1}"));
    const auto reply = expect_frame(ch);
    ASSERT_TRUE(reply);
    EXPECT_EQ(*reply, "ERROR incompatible protocol version " +
                          std::to_string(proto) + " (coordinator speaks " +
                          std::to_string(kRemoteProtocolVersion) + ")");
  }
  // A current-protocol worker still finishes the campaign.
  auto good = std::async(std::launch::async, [&] {
    return run_remote_worker(worker_options(ports.port, 1),
                             test_setup(fake_runner()));
  });
  const CampaignReport report = serve.get();
  EXPECT_TRUE(good.get().done);
  EXPECT_EQ(report.ok, 1u);
  std::remove(out.c_str());
  std::remove(ports_path.c_str());
}

TEST(RemoteCampaign, MalformedHelloIsRejectedAsMalformed) {
  const SweepSpec spec = tiny_spec({0x5eed});
  const std::string out = temp_path("badhello") + ".jsonl";
  const std::string ports_path = temp_path("badhello_ports");

  RemoteOptions ropts;
  ropts.bind = {"127.0.0.1", 0};
  ropts.port_file = ports_path;
  auto serve = std::async(std::launch::async, [&] {
    return serve_campaign(spec, serve_options(out, true), ropts);
  });
  const Ports ports = wait_ports(ports_path);
  ASSERT_NE(ports.port, 0);

  // A body that does not parse, and bodies with no integer "proto", name
  // the frame as malformed instead of blaming a version nobody sent.
  for (const char* hello :
       {"HELLO {\"proto\":", "HELLO [[[", "HELLO {\"host\":\"h\"}",
        "HELLO {\"proto\":\"2\"}", "HELLO {\"proto\":2.5}",
        "HELLO {\"proto\":-2}", "HELLO 2"}) {
    std::string err;
    const int fd = tcp_connect({"127.0.0.1", ports.port}, 5, &err);
    ASSERT_GE(fd, 0) << err;
    FrameChannel ch(fd);
    ASSERT_TRUE(ch.send(hello));
    const auto reply = expect_frame(ch);
    ASSERT_TRUE(reply) << hello;
    EXPECT_EQ(*reply, "ERROR malformed HELLO") << hello;
  }

  // A well-formed worker still finishes the campaign.
  auto good = std::async(std::launch::async, [&] {
    return run_remote_worker(worker_options(ports.port, 1),
                             test_setup(fake_runner()));
  });
  const CampaignReport report = serve.get();
  EXPECT_TRUE(good.get().done);
  EXPECT_EQ(report.ok, 1u);
  std::remove(out.c_str());
  std::remove(ports_path.c_str());
}

TEST(RemoteCampaign, WorkerDyingMidTaskGetsItsTasksReDispatched) {
  const SweepSpec spec = tiny_spec({0x5eed, 0x1111, 0x2222});
  const std::string out = temp_path("dead") + ".jsonl";
  const std::string ports_path = temp_path("dead_ports");

  RemoteOptions ropts;
  ropts.bind = {"127.0.0.1", 0};
  ropts.port_file = ports_path;
  auto serve = std::async(std::launch::async, [&] {
    return serve_campaign(spec, serve_options(out, true), ropts);
  });
  const Ports ports = wait_ports(ports_path);
  ASSERT_NE(ports.port, 0);

  // The fake worker accepts a task and then its process "dies" — the
  // socket closes without a RECORD. The kill-worker-mid-task scenario.
  {
    auto fake = fake_ready_worker(ports.port);
    ASSERT_TRUE(fake);
    const auto task_frame = expect_frame(*fake);
    ASSERT_TRUE(task_frame);
    EXPECT_EQ(task_frame->rfind("TASK ", 0), 0u);
    fake->close();
  }

  auto good = std::async(std::launch::async, [&] {
    return run_remote_worker(worker_options(ports.port, 2),
                             test_setup(fake_runner()));
  });
  const CampaignReport report = serve.get();
  const WorkerReport wr = good.get();
  EXPECT_EQ(report.ran, 3u);
  EXPECT_EQ(report.ok, 3u);
  EXPECT_TRUE(wr.done);
  EXPECT_EQ(wr.ran, 3u) << "the re-dispatched task must run on the "
                           "surviving worker";
  EXPECT_EQ(count_lines(out), 3u) << "re-dispatch must not duplicate "
                                     "records in the store";
  std::remove(out.c_str());
  std::remove(ports_path.c_str());
}

TEST(RemoteCampaign, SilentWorkerHitsTheHeartbeatDeadline) {
  const SweepSpec spec = tiny_spec({0x5eed});
  const std::string out = temp_path("silent") + ".jsonl";
  const std::string ports_path = temp_path("silent_ports");

  RemoteOptions ropts;
  ropts.bind = {"127.0.0.1", 0};
  ropts.port_file = ports_path;
  ropts.heartbeat_sec = 0.2;        // floor for the deadline below
  ropts.worker_deadline_sec = 0.5;  // a wedged worker is declared dead fast
  auto serve = std::async(std::launch::async, [&] {
    return serve_campaign(spec, serve_options(out, true), ropts);
  });
  const Ports ports = wait_ports(ports_path);
  ASSERT_NE(ports.port, 0);

  // Wedged fake: takes the only task, keeps the socket open, never pings.
  auto fake = fake_ready_worker(ports.port);
  ASSERT_TRUE(fake);
  ASSERT_TRUE(expect_frame(*fake));  // the TASK it will sit on

  // The good worker connects while the queue is empty (the task is held by
  // the wedged fake); only the heartbeat deadline can free it.
  auto good = std::async(std::launch::async, [&] {
    return run_remote_worker(worker_options(ports.port, 1),
                             test_setup(fake_runner()));
  });
  const auto t0 = Clock::now();
  const CampaignReport report = serve.get();
  EXPECT_LT(seconds_since(t0), 10.0);
  EXPECT_TRUE(good.get().done);
  EXPECT_EQ(report.ok, 1u);
  EXPECT_EQ(count_lines(out), 1u);
  fake->close();
  std::remove(out.c_str());
  std::remove(ports_path.c_str());
}

TEST(RemoteCampaign, IdleWorkerStealsTheStraggler) {
  const SweepSpec spec = tiny_spec({0x5eed, 0x1111});
  const std::string out = temp_path("steal") + ".jsonl";
  const std::string ports_path = temp_path("steal_ports");

  RemoteOptions ropts;
  ropts.bind = {"127.0.0.1", 0};
  ropts.port_file = ports_path;
  ropts.steal_after_sec = 0.3;
  ropts.worker_deadline_sec = 30;  // heartbeats keep the slow worker alive
  auto serve = std::async(std::launch::async, [&] {
    return serve_campaign(spec, serve_options(out, true), ropts);
  });
  const Ports ports = wait_ports(ports_path);
  ASSERT_NE(ports.port, 0);

  // The straggle is a property of the HOST, not the task (a slow machine,
  // a noisy neighbour): worker 1 grinds 3 s on anything it is handed,
  // worker 2 is fast. Worker 1 connects first and takes one task; worker 2
  // finishes the other instantly, idles against a dry queue, and must
  // steal worker 1's task to finish the campaign.
  auto w1 = std::async(std::launch::async, [&] {
    return run_remote_worker(worker_options(ports.port, 1),
                             test_setup(fake_runner(3.0)));
  });
  sleep_sec(0.2);  // let the slow worker claim its task first
  auto w2 = std::async(std::launch::async, [&] {
    return run_remote_worker(worker_options(ports.port, 1),
                             test_setup(fake_runner()));
  });
  const auto t0 = Clock::now();
  const CampaignReport report = serve.get();
  const double elapsed = seconds_since(t0);
  EXPECT_EQ(report.ok, 2u);
  EXPECT_LT(elapsed, 2.5) << "the steal must finish the campaign while the "
                             "straggler is still grinding";
  EXPECT_EQ(count_lines(out), 2u) << "first record per task wins; the "
                                     "straggler's late duplicate is dropped";
  w1.get();
  w2.get();
  std::remove(out.c_str());
  std::remove(ports_path.c_str());
}

TEST(RemoteCampaign, ResumeSkipsStoredTasksAndServesOnlyTheRest) {
  const SweepSpec spec = tiny_spec({0x5eed, 0x1111, 0x2222, 0x3333});
  const auto tasks = spec.expand();
  ASSERT_EQ(tasks.size(), 4u);
  const std::string out = temp_path("resume") + ".jsonl";
  const std::string ports_path = temp_path("resume_ports");
  {
    // A previous run finished two tasks and died mid-append on a third.
    std::ofstream f(out, std::ios::binary);
    f << to_jsonl(ok_record(tasks[0])) << "\n"
      << to_jsonl(ok_record(tasks[1])) << "\n"
      << to_jsonl(ok_record(tasks[2])).substr(0, 50);
  }

  RemoteOptions ropts;
  ropts.bind = {"127.0.0.1", 0};
  ropts.port_file = ports_path;
  auto serve = std::async(std::launch::async, [&] {
    return serve_campaign(spec, serve_options(out, false), ropts);
  });
  const Ports ports = wait_ports(ports_path);
  ASSERT_NE(ports.port, 0);
  auto w = std::async(std::launch::async, [&] {
    return run_remote_worker(worker_options(ports.port, 2),
                             test_setup(fake_runner()));
  });
  const CampaignReport report = serve.get();
  EXPECT_TRUE(w.get().done);
  EXPECT_EQ(report.skipped, 2u);
  EXPECT_EQ(report.ran, 2u) << "the torn record is not a record";
  EXPECT_EQ(report.ok, 2u);
  EXPECT_EQ(report.records.size(), 4u);

  // The healed store holds each task exactly once (the torn line stays as
  // an ignorable isolated line).
  const auto stored = stored_by_id(out);
  EXPECT_EQ(stored.size(), 4u);
  for (const auto& t : tasks) EXPECT_EQ(stored.at(t.id()).status, "ok");
  std::remove(out.c_str());
  std::remove(ports_path.c_str());
}

// The coordinator's queue is CampaignLedger::pending(): a one-slot worker
// receives TASK frames round-robin across workloads, as a local run would
// dispatch them.
TEST(DispatchOrder, OneSlotServeWorkerReceivesTasksInDispatchOrder) {
  SweepSpec spec = tiny_spec({0x5eed, 0x1111});
  spec.workloads = {"li", "go", "bzip"};
  const std::string out = temp_path("order") + ".jsonl";
  const std::string ports_path = temp_path("order_ports");
  std::vector<std::string> want;
  {
    const CampaignLedger ledger(spec, serve_options(out, true));
    for (const TaskSpec& t : ledger.pending_tasks()) want.push_back(t.id());
  }
  ASSERT_EQ(want.size(), 6u);

  RemoteOptions ropts;
  ropts.bind = {"127.0.0.1", 0};
  ropts.port_file = ports_path;
  auto serve = std::async(std::launch::async, [&] {
    return serve_campaign(spec, serve_options(out, true), ropts);
  });
  const Ports ports = wait_ports(ports_path);
  ASSERT_NE(ports.port, 0);
  auto worker = fake_ready_worker(ports.port);
  ASSERT_TRUE(worker);
  std::vector<std::string> got;
  for (;;) {
    const auto frame = expect_frame(*worker);
    ASSERT_TRUE(frame);
    if (*frame == "DONE") break;
    if (frame->rfind("TASK ", 0) != 0) continue;  // PING
    const auto rec = parse_jsonl(frame->substr(5));
    ASSERT_TRUE(rec) << *frame;
    got.push_back(rec->task.id());
    ASSERT_TRUE(worker->send("RECORD " + to_jsonl(ok_record(rec->task))));
  }
  const CampaignReport report = serve.get();
  EXPECT_EQ(got, want);
  EXPECT_NE(spec.expand()[1].id(), want[1]) << "grid order is not dispatch "
                                               "order";
  EXPECT_EQ(report.ok, 6u);
  std::remove(out.c_str());
  std::remove(ports_path.c_str());
}

TEST(RemoteCampaign, FullyResumedCampaignReturnsWithoutListening) {
  const SweepSpec spec = tiny_spec({0x5eed, 0x1111});
  const auto tasks = spec.expand();
  const std::string out = temp_path("noop") + ".jsonl";
  const std::string ports_path = temp_path("noop_ports");
  {
    std::ofstream f(out, std::ios::binary);
    for (const auto& t : tasks) f << to_jsonl(ok_record(t)) << "\n";
  }
  RemoteOptions ropts;
  ropts.bind = {"127.0.0.1", 0};
  ropts.port_file = ports_path;
  const CampaignReport report =
      serve_campaign(spec, serve_options(out, false), ropts);
  EXPECT_EQ(report.skipped, 2u);
  EXPECT_EQ(report.ran, 0u);
  EXPECT_EQ(report.records.size(), 2u);
  EXPECT_FALSE(std::ifstream(ports_path).good())
      << "nothing to serve: the coordinator must not bind or advertise";
  std::remove(out.c_str());
}

TEST(RemoteCampaign, StatusEndpointServesProgressJsonOverHttp) {
  const SweepSpec spec = tiny_spec({0x5eed, 0x1111});
  const std::string out = temp_path("status") + ".jsonl";
  const std::string ports_path = temp_path("status_ports");

  RemoteOptions ropts;
  ropts.bind = {"127.0.0.1", 0};
  ropts.status = true;
  ropts.status_bind = {"127.0.0.1", 0};
  ropts.port_file = ports_path;
  auto serve = std::async(std::launch::async, [&] {
    return serve_campaign(spec, serve_options(out, true), ropts);
  });
  const Ports ports = wait_ports(ports_path);
  ASSERT_NE(ports.port, 0);
  ASSERT_NE(ports.status, 0);

  // Slow tasks keep the campaign alive long enough to poll the endpoint.
  auto w = std::async(std::launch::async, [&] {
    return run_remote_worker(worker_options(ports.port, 1),
                             test_setup(fake_runner(0.5)));
  });

  std::optional<obs::JsonValue> status;
  const auto t0 = Clock::now();
  while (!status && seconds_since(t0) < 10) {
    const std::string resp = http_get(ports.status);
    const std::size_t body_at = resp.find("\r\n\r\n");
    if (body_at == std::string::npos) continue;
    EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK", 0), 0u);
    EXPECT_NE(resp.find("Content-Type: application/json"),
              std::string::npos);
    status = obs::parse_json(resp.substr(body_at + 4));
  }
  ASSERT_TRUE(status) << "no parseable status snapshot within 10s";
  ASSERT_TRUE(status->is_object());
  const obs::JsonValue* campaign = status->get("campaign");
  ASSERT_NE(campaign, nullptr);
  EXPECT_EQ(campaign->str, "remote");
  const obs::JsonValue* total = status->get("total");
  ASSERT_NE(total, nullptr);
  EXPECT_DOUBLE_EQ(total->number, 2.0);
  ASSERT_NE(status->get("workers"), nullptr);
  EXPECT_TRUE(status->get("workers")->is_array());
  ASSERT_NE(status->get("eta_sec"), nullptr);
  ASSERT_NE(status->get("rate_tasks_per_sec"), nullptr);

  const CampaignReport report = serve.get();
  EXPECT_TRUE(w.get().done);
  EXPECT_EQ(report.ok, 2u);
  std::remove(out.c_str());
  std::remove(ports_path.c_str());
}

TEST(Progress, CrashedAndFailedCountAlikeInTheLiveLineStatusAndReport) {
  // A crashed task and a failed one are one "crashed" and one "failed"
  // everywhere a count shows: the live stderr line, the status endpoint's
  // JSON and the final report.
  const SweepSpec spec = tiny_spec({0x5eed, 0x1111, 0x2222});
  const std::string out = temp_path("crash_fail") + ".jsonl";
  const std::string ports_path = temp_path("crash_fail_ports");

  RemoteOptions ropts;
  ropts.bind = {"127.0.0.1", 0};
  ropts.status = true;
  ropts.status_bind = {"127.0.0.1", 0};
  ropts.port_file = ports_path;
  CampaignOptions options = serve_options(out, true);
  options.progress = true;
  testing::internal::CaptureStderr();
  auto serve = std::async(std::launch::async, [&] {
    return serve_campaign(spec, options, ropts);
  });
  const Ports ports = wait_ports(ports_path);
  ASSERT_NE(ports.port, 0);
  ASSERT_NE(ports.status, 0);

  auto fake = fake_ready_worker(ports.port, kRemoteProtocolVersion, 3);
  ASSERT_TRUE(fake);
  std::vector<TaskRecord> recs;
  for (int i = 0; i < 3; ++i) {
    const auto frame = expect_frame(*fake);
    ASSERT_TRUE(frame && frame->rfind("TASK ", 0) == 0);
    const auto queued = parse_jsonl(frame->substr(5));
    ASSERT_TRUE(queued);
    recs.push_back(ok_record(queued->task));
  }
  recs[0].status = "crashed";
  recs[0].error = "SIGSEGV";
  recs[1].status = "failed";
  recs[1].error = "injected";
  ASSERT_TRUE(fake->send("RECORD " + to_jsonl(recs[0])));
  ASSERT_TRUE(fake->send("RECORD " + to_jsonl(recs[1])));

  std::optional<obs::JsonValue> status;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < 10) {
    const std::string resp = http_get(ports.status);
    const std::size_t body_at = resp.find("\r\n\r\n");
    if (body_at != std::string::npos)
      status = obs::parse_json(resp.substr(body_at + 4));
    if (status && status->get("done") && status->get("done")->number == 2)
      break;
    sleep_sec(0.01);
  }
  ASSERT_TRUE(status && status->is_object());
  EXPECT_DOUBLE_EQ(status->get("done")->number, 2.0);
  EXPECT_DOUBLE_EQ(status->get("ok")->number, 0.0);
  EXPECT_DOUBLE_EQ(status->get("failed")->number, 1.0);
  EXPECT_DOUBLE_EQ(status->get("crashed")->number, 1.0);

  ASSERT_TRUE(fake->send("RECORD " + to_jsonl(recs[2])));
  const CampaignReport report = serve.get();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(report.ok, 1u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.crashed, 1u);
  EXPECT_NE(err.find("2/3 done (0 resumed) | 1 failed | 1 crashed |"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("3/3 done (0 resumed) | 1 failed | 1 crashed |"),
            std::string::npos)
      << err;
  std::remove(out.c_str());
  std::remove(ports_path.c_str());
}

TEST(RemoteWorker, HeartbeatCoversTheHandshakeAndPrewarm) {
  // A prewarm (here: a slow setup callback) routinely outlasts the
  // coordinator's worker deadline; the worker must prove life the whole
  // time, not only after READY — and at the SPEC frame's fleet-wide
  // period, overriding its own much slower default.
  TcpListener listener;
  std::string err;
  ASSERT_TRUE(listener.open({"127.0.0.1", 0}, &err)) << err;

  WorkerOptions w = worker_options(listener.port(), 1);
  w.heartbeat_sec = 30;  // the SPEC below must override this
  auto worker = std::async(std::launch::async, [&] {
    return run_remote_worker(
        w, [](const RemoteSpec&, TaskRunner* r, SchedulerOptions*) {
          sleep_sec(0.6);  // stands in for a long checkpoint prewarm
          *r = fake_runner();
        });
  });

  int fd = -1;
  const auto t0 = Clock::now();
  while (fd < 0 && seconds_since(t0) < 5) {
    fd = listener.accept_fd();
    if (fd < 0) sleep_sec(0.01);
  }
  ASSERT_GE(fd, 0);
  FrameChannel ch(fd);
  const auto hello = expect_frame(ch);
  ASSERT_TRUE(hello);
  EXPECT_EQ(hello->rfind("HELLO", 0), 0u) << *hello;

  RemoteSpec spec;
  spec.heartbeat_sec = 0.05;
  ASSERT_TRUE(ch.send("SPEC " + encode_remote_spec(spec)));
  ASSERT_TRUE(ch.send("GO"));

  std::size_t pings_before_ready = 0;
  for (;;) {
    const auto frame = expect_frame(ch, 5);
    ASSERT_TRUE(frame) << "worker went silent before READY";
    if (frame->rfind("PING", 0) == 0) {
      ++pings_before_ready;
    } else {
      EXPECT_EQ(frame->rfind("READY", 0), 0u) << *frame;
      break;
    }
  }
  EXPECT_GE(pings_before_ready, 3u)
      << "no heartbeat during the pre-READY phase";
  ASSERT_TRUE(ch.send("DONE"));
  EXPECT_TRUE(worker.get().done);
}

TEST(RemoteCampaign, StatusEndpointAnswersAClientThatSendsNothing) {
  // The status reply must not wait for request bytes: a mute client (or a
  // slow-writing dashboard) gets its snapshot anyway, and — the real point
  // — never stalls the scheduling loop while it dawdles.
  const SweepSpec spec = tiny_spec({0x5eed});
  const std::string out = temp_path("mute") + ".jsonl";
  const std::string ports_path = temp_path("mute_ports");

  RemoteOptions ropts;
  ropts.bind = {"127.0.0.1", 0};
  ropts.status = true;
  ropts.status_bind = {"127.0.0.1", 0};
  ropts.port_file = ports_path;
  auto serve = std::async(std::launch::async, [&] {
    return serve_campaign(spec, serve_options(out, true), ropts);
  });
  const Ports ports = wait_ports(ports_path);
  ASSERT_NE(ports.port, 0);
  ASSERT_NE(ports.status, 0);

  auto w = std::async(std::launch::async, [&] {
    return run_remote_worker(worker_options(ports.port, 1),
                             test_setup(fake_runner(0.5)));
  });

  std::string err;
  const int fd = tcp_connect({"127.0.0.1", ports.status}, 2, &err);
  ASSERT_GE(fd, 0) << err;
  // Send nothing at all; the full HTTP response must still arrive.
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    resp.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  const std::size_t body_at = resp.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos) << resp;
  EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK", 0), 0u);
  const auto status = obs::parse_json(resp.substr(body_at + 4));
  ASSERT_TRUE(status && status->is_object());
  ASSERT_NE(status->get("campaign"), nullptr);
  EXPECT_EQ(status->get("campaign")->str, "remote");

  const CampaignReport report = serve.get();
  EXPECT_TRUE(w.get().done);
  EXPECT_EQ(report.ok, 1u);
  std::remove(out.c_str());
  std::remove(ports_path.c_str());
}

}  // namespace
}  // namespace bsp::campaign
