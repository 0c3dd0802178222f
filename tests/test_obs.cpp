// Observability-layer tests: trace sinks must be byte-deterministic and
// schema-valid, the interval sampler's series must reconcile with the final
// counters, and none of it may perturb the simulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>

#include "core/simulator.hpp"
#include "obs/interval.hpp"
#include "obs/json.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "workloads/workloads.hpp"

namespace bsp {
namespace {

constexpr u64 kCommits = 3000;

MachineConfig test_machine() { return bitsliced_machine(2, kAllTechniques); }

Program test_program() { return build_workload("li").program; }

// ---------------------------------------------------------------------------
// Pipe-text sink

TEST(PipeTrace, GoldenDeterminismAndLegacyEquivalence) {
  const Program program = test_program();
  const auto run_with_sink = [&] {
    std::ostringstream os;
    obs::PipeTextSink sink(os, 0, 400);
    Simulator sim(test_machine(), program);
    sim.add_trace_sink(&sink);
    EXPECT_TRUE(sim.run(kCommits).ok());
    return os.str();
  };
  const std::string a = run_with_sink();
  const std::string b = run_with_sink();
  // Same config + program + seed => byte-identical trace.
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());

  // The pinned line shapes of the original inline trace.
  EXPECT_NE(a.find("cyc "), std::string::npos);
  EXPECT_NE(a.find(": D    #"), std::string::npos);
  EXPECT_NE(a.find(": X    #"), std::string::npos);
  EXPECT_NE(a.find(": C    #"), std::string::npos);
}

TEST(PipeTrace, WindowIsHonoured) {
  std::ostringstream os;
  obs::PipeTextSink sink(os, 100, 120);
  Simulator sim(test_machine(), test_program());
  sim.add_trace_sink(&sink);
  EXPECT_TRUE(sim.run(kCommits).ok());
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_EQ(line.rfind("cyc ", 0), 0u) << line;
    const u64 cyc = std::strtoull(line.c_str() + 4, nullptr, 10);
    EXPECT_GE(cyc, 100u);
    EXPECT_LT(cyc, 120u);
  }
}

// ---------------------------------------------------------------------------
// Chrome trace JSON

std::string chrome_trace_bytes(const Program& program) {
  std::ostringstream os;
  obs::ChromeTraceSink sink(os);
  Simulator sim(test_machine(), program);
  sim.add_trace_sink(&sink);
  EXPECT_TRUE(sim.run(kCommits).ok());
  return os.str();
}

TEST(ChromeTrace, SchemaValid) {
  const std::string text = chrome_trace_bytes(test_program());
  const auto doc = obs::parse_json(text);
  ASSERT_TRUE(doc.has_value()) << "trace is not valid JSON";
  ASSERT_TRUE(doc->is_object());

  const obs::JsonValue* other = doc->get("otherData");
  ASSERT_NE(other, nullptr);
  const obs::JsonValue* config = other->get("config");
  ASSERT_NE(config, nullptr);
  EXPECT_TRUE(config->is_string());
  EXPECT_NE(config->str.find("out-of-order"), std::string::npos);

  const obs::JsonValue* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());

  std::set<std::string> phases;
  for (const obs::JsonValue& ev : events->array) {
    ASSERT_TRUE(ev.is_object());
    const obs::JsonValue* name = ev.get("name");
    const obs::JsonValue* ph = ev.get("ph");
    const obs::JsonValue* pid = ev.get("pid");
    const obs::JsonValue* tid = ev.get("tid");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    EXPECT_TRUE(name->is_string());
    ASSERT_TRUE(ph->is_string());
    phases.insert(ph->str);
    // Known phase letters only: complete (X), instant (i), metadata (M).
    EXPECT_TRUE(ph->str == "X" || ph->str == "i" || ph->str == "M")
        << ph->str;
    if (ph->str == "M") continue;  // metadata carries no timestamp
    const obs::JsonValue* ts = ev.get("ts");
    ASSERT_NE(ts, nullptr);
    EXPECT_TRUE(ts->is_number());
    EXPECT_GE(ts->number, 0.0);
    if (ph->str == "X") {
      const obs::JsonValue* dur = ev.get("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_TRUE(dur->is_number());
      EXPECT_GE(dur->number, 0.0);
    }
    if (ph->str == "i") {
      const obs::JsonValue* scope = ev.get("s");
      ASSERT_NE(scope, nullptr);
      EXPECT_EQ(scope->str, "t");
    }
  }
  // A real run produces all three phase kinds.
  EXPECT_EQ(phases.size(), 3u);
}

TEST(ChromeTrace, ByteDeterministic) {
  const Program program = test_program();
  EXPECT_EQ(chrome_trace_bytes(program), chrome_trace_bytes(program));
}

// ---------------------------------------------------------------------------
// Konata sink

TEST(Konata, WellFormedLog) {
  std::ostringstream os;
  obs::KonataSink sink(os);
  Simulator sim(test_machine(), test_program());
  sim.add_trace_sink(&sink);
  EXPECT_TRUE(sim.run(kCommits).ok());

  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "Kanata\t0004");

  std::set<u64> live, retired;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    std::istringstream ls(line);
    std::string cmd;
    std::getline(ls, cmd, '\t');
    if (cmd == "C=" || cmd == "C") {
      long long delta = -1;
      ls >> delta;
      EXPECT_GE(delta, 0) << line;
    } else if (cmd == "I") {
      u64 fid;
      ls >> fid;
      EXPECT_TRUE(live.insert(fid).second) << "duplicate I " << fid;
    } else if (cmd == "L" || cmd == "S" || cmd == "E") {
      u64 fid;
      ls >> fid;
      EXPECT_TRUE(live.count(fid)) << cmd << " for unknown id " << fid;
    } else if (cmd == "R") {
      u64 fid, rid, type;
      ls >> fid >> rid >> type;
      EXPECT_TRUE(live.count(fid)) << "R for unknown id " << fid;
      EXPECT_TRUE(retired.insert(fid).second) << "double retire " << fid;
      EXPECT_TRUE(type == 0 || type == 1) << line;
    } else {
      FAIL() << "unknown record: " << line;
    }
  }
  EXPECT_FALSE(live.empty());
  // end() retires (or flush-retires) every instruction it ever introduced.
  EXPECT_EQ(live.size(), retired.size());
}

// ---------------------------------------------------------------------------
// Interval sampler

TEST(IntervalStats, HeaderDescribesRegisteredCountersOnly) {
  std::ostringstream os;
  obs::IntervalSampler sampler(500, &os);
  Simulator sim(test_machine(), test_program());
  sim.set_interval_sampler(&sampler);
  EXPECT_TRUE(sim.run(kCommits).ok());

  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const auto header = obs::parse_json(line);
  ASSERT_TRUE(header.has_value()) << line;
  EXPECT_EQ(header->get("type")->str, "header");
  EXPECT_EQ(header->get("version")->number, 1.0);
  EXPECT_EQ(header->get("interval")->number, 500.0);
  ASSERT_NE(header->get("config"), nullptr);

  const obs::JsonValue* columns = header->get("columns");
  ASSERT_NE(columns, nullptr);
  const auto& registry = obs::simstats_counters();
  ASSERT_EQ(columns->array.size(), registry.size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const obs::JsonValue& col = columns->array[i];
    EXPECT_EQ(col.get("name")->str, registry[i].name);
    EXPECT_EQ(col.get("unit")->str, registry[i].unit);
    EXPECT_FALSE(col.get("desc")->str.empty());
    EXPECT_EQ(obs::counter_index(registry[i].name), static_cast<int>(i));
  }
  const obs::JsonValue* derived = header->get("derived");
  ASSERT_NE(derived, nullptr);
  ASSERT_EQ(derived->array.size(), obs::derived_metrics().size());

  // Every sample row's delta keys must be exactly the registered counters
  // — nothing unregistered sneaks into the schema.
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    const auto row = obs::parse_json(line);
    ASSERT_TRUE(row.has_value()) << line;
    EXPECT_EQ(row->get("type")->str, "sample");
    ASSERT_NE(row->get("cycle"), nullptr);
    ASSERT_NE(row->get("committed"), nullptr);
    const obs::JsonValue* delta = row->get("delta");
    ASSERT_NE(delta, nullptr);
    ASSERT_TRUE(delta->is_object());
    EXPECT_EQ(delta->object.size(), registry.size());
    for (const auto& [key, value] : delta->object) {
      EXPECT_GE(obs::counter_index(key), 0) << "unregistered counter " << key;
      EXPECT_TRUE(value.is_number());
    }
    for (const obs::DerivedDesc& d : obs::derived_metrics())
      ASSERT_NE(row->get(d.name), nullptr) << d.name;
    ++samples;
  }
  EXPECT_GE(samples, kCommits / 500);
}

TEST(IntervalStats, ByteDeterministic) {
  const Program program = test_program();
  const auto capture = [&] {
    std::ostringstream os;
    obs::IntervalSampler sampler(700, &os);
    Simulator sim(test_machine(), program);
    sim.set_interval_sampler(&sampler);
    EXPECT_TRUE(sim.run(kCommits).ok());
    return os.str();
  };
  const std::string a = capture();
  EXPECT_EQ(a, capture());
  EXPECT_FALSE(a.empty());
}

TEST(IntervalStats, DeltasReconcileWithFinalCounters) {
  obs::IntervalSampler sampler(700);
  Simulator sim(test_machine(), test_program());
  sim.set_interval_sampler(&sampler);
  const SimResult r = sim.run(kCommits);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(sampler.rows().empty());

  const auto& registry = obs::simstats_counters();
  std::vector<u64> sums(registry.size(), 0);
  for (const obs::IntervalRow& row : sampler.rows()) {
    ASSERT_EQ(row.delta.size(), registry.size());
    for (std::size_t i = 0; i < registry.size(); ++i)
      sums[i] += row.delta[i];
  }
  // finish() flushed the tail, so the series telescopes to the totals.
  for (std::size_t i = 0; i < registry.size(); ++i)
    EXPECT_EQ(sums[i], r.stats.*registry[i].field) << registry[i].name;

  // Committed positions are the sample grid, cycle positions monotonic.
  u64 prev_cycle = 0, prev_committed = 0;
  for (const obs::IntervalRow& row : sampler.rows()) {
    EXPECT_GT(row.committed, prev_committed);
    EXPECT_GE(row.cycle, prev_cycle);
    prev_cycle = row.cycle;
    prev_committed = row.committed;
  }
  EXPECT_EQ(sampler.rows().back().committed, kCommits);
}

TEST(IntervalStats, WarmupIsExcluded) {
  obs::IntervalSampler sampler(500);
  Simulator sim(test_machine(), test_program());
  sim.set_interval_sampler(&sampler);
  const SimResult r = sim.run(2000, 1000);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(sampler.rows().empty());
  // Rows are measured-relative: the series covers exactly the 2000 measured
  // commits and its cycles reconcile with the measured cycle count.
  EXPECT_EQ(sampler.rows().back().committed, 2000u);
  u64 cycle_sum = 0;
  for (const obs::IntervalRow& row : sampler.rows())
    cycle_sum += row.delta[0];  // registry slot 0 is "cycles"
  EXPECT_EQ(cycle_sum, r.stats.cycles);
}

// ---------------------------------------------------------------------------
// Non-perturbation

TEST(Obs, FullInstrumentationDoesNotPerturbSimulation) {
  const Program program = test_program();
  Simulator plain(test_machine(), program);
  const SimResult base = plain.run(kCommits);
  ASSERT_TRUE(base.ok());

  std::ostringstream pipe_os, chrome_os, konata_os;
  obs::PipeTextSink pipe(pipe_os, 0, 200);
  obs::ChromeTraceSink chrome(chrome_os);
  obs::KonataSink konata(konata_os);
  obs::IntervalSampler sampler(500);
  Simulator instrumented(test_machine(), program);
  instrumented.add_trace_sink(&pipe);
  instrumented.add_trace_sink(&chrome);
  instrumented.add_trace_sink(&konata);
  instrumented.set_interval_sampler(&sampler);
  instrumented.enable_host_profile();
  const SimResult traced = instrumented.run(kCommits);
  ASSERT_TRUE(traced.ok());

  for (const obs::CounterDesc& c : obs::simstats_counters())
    EXPECT_EQ(base.stats.*c.field, traced.stats.*c.field) << c.name;

  // Host-phase profiling reported and self-consistent.
  ASSERT_TRUE(traced.stats.host_profile.enabled);
  EXPECT_GT(traced.stats.host_profile.total(), 0.0);
  EXPECT_GT(traced.stats.host_profile.loop_cycles, 0u);
  EXPECT_EQ(traced.stats.host_profile.cosim, 0.0);  // record key only
  EXPECT_GE(traced.stats.host_profile.memory,
            traced.stats.host_profile.replay);
  EXPECT_FALSE(base.stats.host_profile.enabled);
}

// ---------------------------------------------------------------------------
// JSON parser self-checks (it guards the schemas above)

TEST(ObsJson, ParsesAndRejects) {
  const auto ok = obs::parse_json(
      R"({"a":[1,2.5,-3e2],"b":{"c":"x\n\"y\""},"d":true,"e":null})");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->get("a")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(ok->get("a")->array[2].number, -300.0);
  EXPECT_EQ(ok->get("b")->get("c")->str, "x\n\"y\"");
  EXPECT_TRUE(ok->get("d")->boolean);

  EXPECT_FALSE(obs::parse_json("").has_value());
  EXPECT_FALSE(obs::parse_json("{").has_value());
  EXPECT_FALSE(obs::parse_json("{}garbage").has_value());
  EXPECT_FALSE(obs::parse_json("[1,]").has_value());
  EXPECT_FALSE(obs::parse_json("\"unterminated").has_value());
}

TEST(ObsJson, UnicodeEscapesDecodeToUtf8) {
  // BMP escapes, one and two UTF-8 bytes.
  const auto latin = obs::parse_json(R"("caf\u00e9")");
  ASSERT_TRUE(latin.has_value());
  EXPECT_EQ(latin->str, "caf\xC3\xA9");  // é
  const auto euro = obs::parse_json(R"("\u20ac")");
  ASSERT_TRUE(euro.has_value());
  EXPECT_EQ(euro->str, "\xE2\x82\xAC");  // €

  // Astral plane: a surrogate pair must combine into one 4-byte code
  // point, not two replacement blobs.
  const auto emoji = obs::parse_json(R"("\ud83d\ude00")");
  ASSERT_TRUE(emoji.has_value());
  EXPECT_EQ(emoji->str, "\xF0\x9F\x98\x80");  // 😀 U+1F600

  // Pairs embedded mid-string survive with their neighbours.
  const auto mixed = obs::parse_json(R"({"k":"a\ud83d\ude00z"})");
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(mixed->get("k")->str, "a\xF0\x9F\x98\x80z");

  // Raw UTF-8 bytes in the input pass through untouched.
  const auto raw = obs::parse_json("\"caf\xC3\xA9\"");
  ASSERT_TRUE(raw.has_value());
  EXPECT_EQ(raw->str, "caf\xC3\xA9");

  // Lone or malformed surrogates are syntax errors, not silent garbage.
  EXPECT_FALSE(obs::parse_json(R"("\ud83d")").has_value());
  EXPECT_FALSE(obs::parse_json(R"("\ud83dxy")").has_value());
  EXPECT_FALSE(obs::parse_json(R"("\ud83dA")").has_value());
  EXPECT_FALSE(obs::parse_json(R"("\ude00")").has_value());
  EXPECT_FALSE(obs::parse_json(R"("\u12g4")").has_value());
}

// Peer frames reach the parser from the network: nesting must be refused
// past a fixed depth instead of recursing until the stack runs out.
TEST(ObsJson, NestingDepthIsBounded) {
  const auto nested = [](std::size_t depth, const std::string& open,
                         const std::string& close) {
    std::string s;
    for (std::size_t i = 0; i < depth; ++i) s += open;
    s += "0";
    for (std::size_t i = 0; i < depth; ++i) s += close;
    return s;
  };
  EXPECT_TRUE(obs::parse_json(nested(64, "[", "]")).has_value());
  EXPECT_TRUE(obs::parse_json(nested(64, "{\"a\":", "}")).has_value());
  EXPECT_FALSE(obs::parse_json(nested(65, "[", "]")).has_value());
  EXPECT_FALSE(obs::parse_json(std::string(1'000'000, '[')).has_value());
  EXPECT_FALSE(
      obs::parse_json(nested(1'000'000, "{\"a\":", "}")).has_value());
}

TEST(ObsJson, NumbersFollowJsonSyntax) {
  EXPECT_DOUBLE_EQ(obs::parse_json("1e3")->number, 1000.0);
  EXPECT_DOUBLE_EQ(obs::parse_json("-0.5E-2")->number, -0.005);
  for (const char* bad : {"+1", "0x10", "-0x1", "inf", "-inf", "nan", ".5"})
    EXPECT_FALSE(obs::parse_json(bad).has_value()) << bad;
}

TEST(ObsJson, AppendUtf8CoversAllWidths) {
  const auto enc = [](char32_t cp) {
    std::string out;
    obs::append_utf8(cp, out);
    return out;
  };
  EXPECT_EQ(enc(0x41), "A");
  EXPECT_EQ(enc(0xE9), "\xC3\xA9");
  EXPECT_EQ(enc(0x20AC), "\xE2\x82\xAC");
  EXPECT_EQ(enc(0x1F600), "\xF0\x9F\x98\x80");
}

// Every writer quotes strings through json_escape, so whatever a hostname,
// label, error or path holds must come back from the parser unchanged.
TEST(ObsJson, EscapeRoundTripsEveryByte) {
  const auto round_trip = [](const std::string& s) {
    const auto v = obs::parse_json("\"" + obs::json_escape(s) + "\"");
    return v && v->is_string() ? v->str : std::string("<unparseable>");
  };
  for (int c = 0x01; c <= 0x7f; ++c) {
    const std::string s = "a" + std::string(1, static_cast<char>(c)) + "z";
    EXPECT_EQ(round_trip(s), s) << "byte 0x" << std::hex << c;
  }
  const std::string utf8 = "caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80";
  EXPECT_EQ(round_trip(utf8), utf8);
}

TEST(ObsJson, AsUintAcceptsOnlyIntegersInRange) {
  const auto num = [](const char* text, u64 max) {
    return obs::parse_json(text)->as_uint(max);
  };
  EXPECT_EQ(num("0", 10), 0u);
  EXPECT_EQ(num("10", 10), 10u);
  EXPECT_EQ(num("4294967295", UINT32_MAX), 4294967295u);
  EXPECT_FALSE(num("11", 10));
  EXPECT_FALSE(num("-1", 10));
  EXPECT_FALSE(num("0.5", 10));
  EXPECT_FALSE(num("1e30", UINT64_MAX));
  EXPECT_FALSE(num("18446744073709551616", UINT64_MAX));
  EXPECT_FALSE(num("\"5\"", 10));
  EXPECT_FALSE(num("true", 10));
}

}  // namespace
}  // namespace bsp
