// Google-benchmark microbenchmarks for the simulator's hot paths: these are
// engineering benchmarks (simulator throughput), not paper reproductions —
// the per-table/figure drivers live in the sibling binaries.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "asm/assembler.hpp"
#include "branch/predictor.hpp"
#include "campaign/ckpt_cache.hpp"
#include "core/select_order.hpp"
#include "core/simulator.hpp"
#include "emu/checkpoint.hpp"
#include "emu/emulator.hpp"
#include "lsq/disambig.hpp"
#include "mem/cache.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace bsp {
namespace {

void BM_SlicedAdd(benchmark::State& state) {
  const SliceGeometry g{static_cast<unsigned>(state.range(0))};
  Rng rng(1);
  u32 a = rng.next(), b = rng.next();
  for (auto _ : state) {
    a = sliced_add(g, a, b);
    b ^= a;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_SlicedAdd)->Arg(1)->Arg(2)->Arg(4);

void BM_CacheAccess(benchmark::State& state) {
  Cache cache({64 * 1024, 64, 4});
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.next() & 0x3ffff, false));
  }
}
BENCHMARK(BM_CacheAccess);

void BM_PartialMatchWays(benchmark::State& state) {
  Cache cache({64 * 1024, 64, 4});
  Rng rng(3);
  for (int i = 0; i < 4096; ++i) cache.access(rng.next(), false);
  u32 addr = 0;
  for (auto _ : state) {
    addr += 0x4111;
    benchmark::DoNotOptimize(
        cache.partial_match_ways(addr, static_cast<unsigned>(state.range(0))));
  }
}
BENCHMARK(BM_PartialMatchWays)->Arg(2)->Arg(9)->Arg(18);

void BM_GsharePredictUpdate(benchmark::State& state) {
  GsharePredictor g(64 * 1024);
  Rng rng(4);
  for (auto _ : state) {
    const u32 pc = 0x400000 + (rng.next() & 0xffc);
    const bool taken = rng.chance(2, 3);
    benchmark::DoNotOptimize(g.predict(pc));
    g.update(pc, taken);
  }
}
BENCHMARK(BM_GsharePredictUpdate);

void BM_DisambiguateLoad(benchmark::State& state) {
  Rng rng(5);
  std::vector<StoreView> stores;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i)
    stores.push_back({i, 32, rng.next(), 4, true, rng.next()});
  for (auto _ : state) {
    const LoadQuery q{16, rng.next(), 4};
    benchmark::DoNotOptimize(disambiguate_load(q, stores, true));
  }
}
BENCHMARK(BM_DisambiguateLoad)->Arg(4)->Arg(16)->Arg(31);

void BM_EmulatorStepThroughput(benchmark::State& state) {
  const Workload w = build_workload("bzip");
  Emulator emu(w.program);
  for (auto _ : state) {
    if (emu.exited()) emu.load(w.program);
    benchmark::DoNotOptimize(emu.step());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmulatorStepThroughput);

// The call shape the timing core's oracle uses: every step fills an
// ExecRecord.
void BM_EmulatorStepRecordThroughput(benchmark::State& state) {
  const Workload w = build_workload("bzip");
  Emulator emu(w.program);
  ExecRecord rec;
  for (auto _ : state) {
    if (emu.exited()) emu.load(w.program);
    benchmark::DoNotOptimize(emu.step(&rec));
    benchmark::DoNotOptimize(rec.next_pc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmulatorStepRecordThroughput);

void BM_EmulatorFastRunThroughput(benchmark::State& state) {
  // Same workload as the step() benchmark above so the pair reads as a
  // speedup ratio: this is the fast-forward path campaigns use to reach
  // checkpoint regions (no ExecRecord, dense predecoded dispatch).
  const Workload w = build_workload("bzip");
  Emulator emu(w.program);
  constexpr u64 kChunk = 1 << 16;
  u64 total = 0;
  for (auto _ : state) {
    if (emu.exited()) emu.load(w.program);
    total += emu.run_fast(kChunk);
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_EmulatorFastRunThroughput);

// --- scheduler hot-loop isolation (uops.info-style attribution) -----------
// Two synthetic programs bracket the scheduler's cost structure. A serial
// dependent-add chain makes every op wait on its producer, so commits/s is
// dominated by the wakeup path (waiter lists, wheel pushes, queue_op) and
// select-order bookkeeping. A stream of independent adds whose sources are
// loop-invariant registers never registers a waiter at all, so the same
// counter isolates fetch/dispatch/rename/commit. Movement in one benchmark
// but not the other attributes a regression to the matching loop.

Program scheduler_probe_program(bool dependent) {
  std::ostringstream os;
  os << ".text\nmain:\n  li $s0, 305419896\n  li $s1, 598283921\n"
     << "  li $t0, 1\n  li $s7, 200000\nloop:\n";
  for (int i = 0; i < 64; ++i) {
    if (dependent) {
      os << "  addu $t0, $t0, $s1\n";  // chain: each op wakes the next
    } else {
      // Rotate dests; sources stay loop-invariant (ready at dispatch).
      os << "  addu $t" << (i % 8) << ", $s0, $s1\n";
    }
  }
  os << "  addiu $s7, $s7, -1\n  bgtz $s7, loop\n"
     << "  li $v0, 10\n  li $a0, 0\n  syscall\n";
  const AsmResult r = assemble(os.str());
  if (!r.ok()) std::abort();
  return r.program;
}

void BM_WakeupSelect(benchmark::State& state) {
  const Program prog = scheduler_probe_program(/*dependent=*/true);
  const MachineConfig cfg = base_machine();
  for (auto _ : state) {
    const SimResult r = simulate(cfg, prog, 20'000);
    if (!r.ok()) state.SkipWithError(r.error.c_str());
    benchmark::DoNotOptimize(r.stats.cycles);
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
}
BENCHMARK(BM_WakeupSelect)->Unit(benchmark::kMillisecond);

void BM_DispatchOnly(benchmark::State& state) {
  const Program prog = scheduler_probe_program(/*dependent=*/false);
  const MachineConfig cfg = base_machine();
  for (auto _ : state) {
    const SimResult r = simulate(cfg, prog, 20'000);
    if (!r.ok()) state.SkipWithError(r.error.c_str());
    benchmark::DoNotOptimize(r.stats.cycles);
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
}
BENCHMARK(BM_DispatchOnly)->Unit(benchmark::kMillisecond);

// The per-cycle candidate ordering in isolation, on the key distribution
// select actually sees (dense seq-derived keys, shuffled batches): 8 keys
// take the insertion sort, 64 and 256 take std::sort. Arg = candidate
// count; BM_WakeupSelect covers the in-loop effect.
struct KeyRef {
  u64 key;
};

std::vector<KeyRef> select_probe_keys(std::size_t n) {
  // Keys mimic (seq << 3 | pos): clustered around a moving base, arriving
  // in wheel-slot order rather than age order.
  Rng rng(7);
  std::vector<KeyRef> keys;
  keys.reserve(n);
  const u64 base = u64{1} << 20;
  for (std::size_t i = 0; i < n; ++i)
    keys.push_back({base + (rng.next() & 0x3ff)});
  return keys;
}

void BM_SelectSort(benchmark::State& state) {
  const std::vector<KeyRef> cands =
      select_probe_keys(static_cast<std::size_t>(state.range(0)));
  std::vector<KeyRef> work;
  work.reserve(cands.size());
  for (auto _ : state) {
    work = cands;
    order_by_key(work);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cands.size()));
}
BENCHMARK(BM_SelectSort)->Arg(8)->Arg(64)->Arg(256);

// Commit-path cost on a commit-bound stream (independent adds retire at
// full width), commit-stream check included.
void BM_CommitOnly(benchmark::State& state) {
  const Program prog = scheduler_probe_program(/*dependent=*/false);
  const MachineConfig cfg = base_machine();
  for (auto _ : state) {
    Simulator sim(cfg, prog);
    const SimResult r = sim.run(20'000);
    if (!r.ok()) state.SkipWithError(r.error.c_str());
    benchmark::DoNotOptimize(r.stats.cycles);
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
}
BENCHMARK(BM_CommitOnly)->Unit(benchmark::kMillisecond);

void BM_SimulatorThroughput(benchmark::State& state) {
  const Workload w = build_workload("gzip");
  const MachineConfig cfg = state.range(0) == 0
                                ? base_machine()
                                : bitsliced_machine(
                                      static_cast<unsigned>(state.range(0)),
                                      kAllTechniques);
  HostEvents ev;
  unsigned reallocs = 0;
  for (auto _ : state) {
    Simulator sim(cfg, w.program);
    const SimResult r = sim.run(20'000);
    if (!r.ok()) state.SkipWithError(r.error.c_str());
    benchmark::DoNotOptimize(r.stats.cycles);
    ev = sim.host_events();
    reallocs = sim.scratch_reallocations();
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
  // Deterministic cost ledger: every host-event count per commit, plus the
  // hot-path scratch vectors that grew past their reservation. Each
  // iteration runs the same simulation, so these repeat bit for bit across
  // runs and hosts; a moved count is an algorithmic change, never noise
  // (bench_perf.sh --check compares them exactly).
  for (const HostEventDesc& d : kHostEventFields)
    state.counters[d.name] = static_cast<double>(ev.*d.field) / 20'000;
  state.counters["scratch_reallocations"] = reallocs;
}
BENCHMARK(BM_SimulatorThroughput)->Arg(0)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The cost of the observability layer when a sink IS attached: the same run
// as BM_SimulatorThroughput/2 but with every event materialised and handed
// to a do-nothing sink. The delta against the plain benchmark is the
// all-in price of structured tracing; with no sink attached the event
// points must be free (acceptance: <= 2% on BM_SimulatorThroughput).
void BM_SimulatorThroughputTraced(benchmark::State& state) {
  struct CountingSink final : obs::TraceSink {
    u64 events = 0;
    void event(const obs::TraceEvent& ev) override {
      ++events;
      benchmark::DoNotOptimize(ev.cycle);
    }
  };
  const Workload w = build_workload("gzip");
  const MachineConfig cfg = bitsliced_machine(2, kAllTechniques);
  u64 events = 0;
  for (auto _ : state) {
    CountingSink sink;
    Simulator sim(cfg, w.program);
    sim.add_trace_sink(&sink);
    const SimResult r = sim.run(20'000);
    if (!r.ok()) state.SkipWithError(r.error.c_str());
    events += sink.events;
    benchmark::DoNotOptimize(r.stats.cycles);
  }
  state.counters["events"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() * 20'000);
}
BENCHMARK(BM_SimulatorThroughputTraced)->Unit(benchmark::kMillisecond);

// The cost of CPI-stack cycle accounting: the base-machine run of
// BM_SimulatorThroughput/0 with every commit slot charged to a stall
// leaf. The classify walk only runs on stalled cycles, so the delta
// against the plain benchmark is the whole accounting price
// (acceptance: < 10% on BM_SimulatorThroughput/0; with accounting off
// the charging path must be free — the golden tests pin bit-identity).
void BM_SimulatorThroughputCpiStack(benchmark::State& state) {
  const Workload w = build_workload("gzip");
  const MachineConfig cfg = base_machine();
  for (auto _ : state) {
    Simulator sim(cfg, w.program);
    sim.enable_cpi_stack();
    const SimResult r = sim.run(20'000);
    if (!r.ok()) state.SkipWithError(r.error.c_str());
    benchmark::DoNotOptimize(r.stats.cycles);
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
}
BENCHMARK(BM_SimulatorThroughputCpiStack)->Unit(benchmark::kMillisecond);

// Ditto for host-phase profiling: a handful of steady_clock reads per
// simulated cycle.
void BM_SimulatorThroughputProfiled(benchmark::State& state) {
  const Workload w = build_workload("gzip");
  const MachineConfig cfg = bitsliced_machine(2, kAllTechniques);
  for (auto _ : state) {
    Simulator sim(cfg, w.program);
    sim.enable_host_profile();
    const SimResult r = sim.run(20'000);
    if (!r.ok()) state.SkipWithError(r.error.c_str());
    benchmark::DoNotOptimize(r.stats.cycles);
  }
  state.SetItemsProcessed(state.iterations() * 20'000);
}
BENCHMARK(BM_SimulatorThroughputProfiled)->Unit(benchmark::kMillisecond);

// Whole-program throughput across the paper's cumulative technique stacks
// (the Figure 11/12 sweep points for 4 slices): one benchmark per stack
// point, reporting commits/sec. This is the simulator-throughput baseline
// the campaign engine's wall-clock budgeting is calibrated against.
void BM_TechniqueStackThroughput(benchmark::State& state) {
  static const std::vector<StackPoint> stack = technique_stack(4);
  const StackPoint& point = stack[static_cast<std::size_t>(state.range(0))];
  const Workload w = build_workload("gzip");
  state.SetLabel(point.label);
  constexpr u64 kCommits = 10'000;
  HostEvents ev;
  unsigned reallocs = 0;
  for (auto _ : state) {
    Simulator sim(point.config, w.program);
    const SimResult r = sim.run(kCommits);
    if (!r.ok()) state.SkipWithError(r.error.c_str());
    benchmark::DoNotOptimize(r.stats.cycles);
    ev = sim.host_events();
    reallocs = sim.scratch_reallocations();
  }
  state.SetItemsProcessed(state.iterations() * kCommits);
  // The same cost ledger as BM_SimulatorThroughput.
  for (const HostEventDesc& d : kHostEventFields)
    state.counters[d.name] = static_cast<double>(ev.*d.field) / kCommits;
  state.counters["scratch_reallocations"] = reallocs;
}
BENCHMARK(BM_TechniqueStackThroughput)
    ->DenseRange(0, 5)
    ->Unit(benchmark::kMillisecond);

void BM_AssembleWorkload(benchmark::State& state) {
  const std::string src = workload_source("gcc");
  for (auto _ : state) {
    benchmark::DoNotOptimize(assemble(src));
  }
  state.SetBytesProcessed(state.iterations() * src.size());
}
BENCHMARK(BM_AssembleWorkload)->Unit(benchmark::kMillisecond);

// --- simulation set-up: what every short run pays before its first cycle --
// gcc has the suite's most initialised data (32K words, ~300 KB as `.word`
// text); build_workload copies those words into the image as binary.
void BM_BuildWorkload(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(build_workload("gcc"));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BuildWorkload)->Unit(benchmark::kMillisecond);

// The checkpoint-cache key's image hash over mcf, the suite's largest image
// (2 MiB, nearly all a zero `.space`). Every task that restores a cached
// checkpoint pays it once.
void BM_ImageHash(benchmark::State& state) {
  const Workload w = build_workload("mcf");
  for (auto _ : state)
    benchmark::DoNotOptimize(campaign::ImageHash(w.program).key(1'000'000));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ImageHash)->Unit(benchmark::kMillisecond);

// One checkpoint's round trip through the cache: capture mcf at 1M
// instructions, serialise, load and restore it into an emulator with the
// image loaded. `bytes` is the serialised size, a deterministic count.
void BM_CheckpointSaveLoad(benchmark::State& state) {
  const Workload w = build_workload("mcf");
  Emulator source(w.program);
  if (source.run_fast(1'000'000) != 1'000'000) std::abort();
  Emulator target(w.program);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::stringstream buf;
    if (!save_checkpoint(capture_checkpoint(source), buf)) std::abort();
    bytes = buf.str().size();
    const std::optional<Checkpoint> loaded = load_checkpoint(buf);
    if (!loaded) std::abort();
    restore_checkpoint(target, *loaded);
    benchmark::DoNotOptimize(target);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CheckpointSaveLoad)->Unit(benchmark::kMillisecond);

// A campaign task's Simulator: mcf (the 2 MiB image) on the x2 full stack,
// started from a 1M-instruction checkpoint. Construction installs the image
// and the checkpoint into the oracle emulator.
void BM_SimulatorConstruct(benchmark::State& state) {
  const Workload w = build_workload("mcf");
  const MachineConfig cfg = bitsliced_machine(2, kAllTechniques);
  const std::optional<Checkpoint> ckpt = fast_forward(w.program, 1'000'000);
  if (!ckpt) std::abort();
  for (auto _ : state) {
    Simulator sim(cfg, w.program, &*ckpt);
    benchmark::DoNotOptimize(sim);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorConstruct)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bsp
