// Workload tests: every kernel assembles, runs, terminates cleanly, and
// exhibits the qualitative characteristics its SPEC namesake is modelled on.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "campaign/ckpt_cache.hpp"
#include "trace/studies.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

namespace bsp {
namespace {

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, AssemblesAndInfoIsConsistent) {
  const WorkloadInfo info = workload_info(GetParam());
  EXPECT_EQ(info.name, GetParam());
  EXPECT_FALSE(info.description.empty());
  const Workload w = build_workload(GetParam());
  EXPECT_FALSE(w.program.text.empty());
  EXPECT_TRUE(w.program.has_symbol("main"));
}

TEST_P(WorkloadTest, TerminatesCleanlyWithFewIterations) {
  WorkloadParams params;
  params.iterations = 2;
  const Workload w = build_workload(GetParam(), params);
  Emulator emu(w.program);
  StepResult final;
  emu.run(5'000'000, &final);
  EXPECT_TRUE(emu.exited()) << GetParam() << " did not exit";
  EXPECT_EQ(emu.exit_code(), 0);
}

TEST_P(WorkloadTest, RunsHalfAMillionInstructionsWithoutFault) {
  const Workload w = build_workload(GetParam());
  const TraceResult tr = run_trace(w.program, 0, 500'000,
                                   [](const ExecRecord&) { return true; });
  EXPECT_EQ(tr.visited, 500'000u)
      << GetParam() << ": " << tr.final.fault;
}

TEST_P(WorkloadTest, DeterministicAcrossRuns) {
  const Workload a = build_workload(GetParam());
  const Workload b = build_workload(GetParam());
  EXPECT_EQ(a.program.text, b.program.text);
  EXPECT_EQ(a.program.data, b.program.data);
}

TEST_P(WorkloadTest, SeedChangesTheProgramOrItsData) {
  WorkloadParams p1, p2;
  p2.seed = p1.seed + 1;
  const std::string s1 = workload_source(GetParam(), p1);
  const std::string s2 = workload_source(GetParam(), p2);
  EXPECT_NE(s1, s2) << "seed must influence the generated kernel";
}

INSTANTIATE_TEST_SUITE_P(AllKernels, WorkloadTest,
                         ::testing::ValuesIn(workload_names()));

TEST(Workloads, ElevenBenchmarksInPaperOrder) {
  const auto& names = workload_names();
  ASSERT_EQ(names.size(), 11u);
  EXPECT_EQ(names.front(), "bzip");
  EXPECT_EQ(names.back(), "vpr");
}

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW(build_workload("specfp"), std::runtime_error);
  EXPECT_THROW(workload_info("specfp"), std::runtime_error);
}

// Every program image, pinned by its checkpoint cache key (FNV-1a over
// bases, text, data and entry, with a 1M-instruction fast-forward). A
// change to a generator or to the assembler that alters any image byte
// fails here, and so does one that would rename the cache files.
TEST(Workloads, ProgramImagesArePinned) {
  const std::map<std::pair<std::string, u64>, std::string> pinned = {
      {{"bzip", 0x5eed}, "802db0e83b388e84"},
      {{"gcc", 0x5eed}, "3177301a1b50f129"},
      {{"go", 0x5eed}, "e75996fb64d4f890"},
      {{"gzip", 0x5eed}, "60918650dc5da0b4"},
      {{"ijpeg", 0x5eed}, "aaef85ec9d2559e5"},
      {{"li", 0x5eed}, "ea1b07474f39d41b"},
      {{"mcf", 0x5eed}, "13545dc7936c2511"},
      {{"parser", 0x5eed}, "bdc3dfa242a3ec98"},
      {{"twolf", 0x5eed}, "4909d93c64a7ae9c"},
      {{"vortex", 0x5eed}, "52445aba5515576b"},
      {{"vpr", 0x5eed}, "ebc236a712a4c41c"},
      {{"bzip", 9}, "82ef6981358dd691"},
      {{"gcc", 9}, "8c0b6b1c69e71640"},
      {{"go", 9}, "3cf2e1c920530062"},
      {{"gzip", 9}, "696ad92a18b24087"},
      {{"ijpeg", 9}, "27cf0671210b6655"},
      {{"li", 9}, "a664d70ded8beedc"},
      {{"mcf", 9}, "9cbef3c7bcb444ab"},
      {{"parser", 9}, "faed948759873821"},
      {{"twolf", 9}, "b00fafed19211d74"},
      {{"vortex", 9}, "d18192aaf11c0316"},
      {{"vpr", 9}, "c27c2610f21d7936"},
  };
  ASSERT_EQ(pinned.size(), 2 * workload_names().size());
  for (const auto& [id, key] : pinned) {
    WorkloadParams params;
    params.seed = id.second;
    const Workload w = build_workload(id.first, params);
    EXPECT_EQ(campaign::checkpoint_cache_key(w.program, 1'000'000), key)
        << id.first << " seed " << id.second;
  }
}

// Qualitative characteristics the characterisations rely on.

struct Profile {
  u64 instructions = 0;
  u64 loads = 0;
  u64 stores = 0;
  u64 branches = 0;
  double branch_accuracy = 0;
};

Profile profile(const std::string& name, u64 n = 300'000) {
  const Workload w = build_workload(name);
  EarlyBranchStudy branches;
  Profile p;
  run_trace(w.program, 10'000, n, [&](const ExecRecord& rec) {
    ++p.instructions;
    p.loads += rec.is_load;
    p.stores += rec.is_store;
    branches.observe(rec);
    return true;
  });
  p.branches = branches.branches();
  p.branch_accuracy = branches.accuracy();
  return p;
}

TEST(WorkloadCharacteristics, AllKernelsHaveLoadsAndBranches) {
  for (const auto& name : workload_names()) {
    const Profile p = profile(name, 100'000);
    EXPECT_GT(p.loads, p.instructions / 50) << name;
    EXPECT_GT(p.branches, p.instructions / 50) << name;
  }
}

TEST(WorkloadCharacteristics, GoIsLeastPredictable) {
  // The paper's Table 1: go has the suite's lowest accuracy (84 %), mcf the
  // highest (98 %). Check the ordering, not absolute values.
  const double go_acc = profile("go").branch_accuracy;
  const double mcf_acc = profile("mcf").branch_accuracy;
  EXPECT_LT(go_acc, 0.93);
  EXPECT_GT(mcf_acc, 0.93);
  EXPECT_LT(go_acc, mcf_acc);
}

TEST(WorkloadCharacteristics, McfThrashesTheL1) {
  // Stream mcf's data accesses through the Table-2 L1D and expect a miss
  // rate far above bzip's sequential scan.
  const auto miss_rate = [](const std::string& name) {
    const Workload w = build_workload(name);
    Cache l1d(CacheGeometry{64 * 1024, 64, 4});
    run_trace(w.program, 10'000, 200'000, [&](const ExecRecord& rec) {
      if (rec.is_load || rec.is_store) l1d.access(rec.mem_addr, rec.is_store);
      return true;
    });
    return l1d.miss_rate();
  };
  EXPECT_GT(miss_rate("mcf"), 0.25);
  EXPECT_LT(miss_rate("bzip"), 0.05);
}

TEST(WorkloadCharacteristics, VortexExercisesStoreForwarding) {
  // vortex writes a field and reads it straight back: its loads should find
  // matching prior stores in a 32-entry window far more often than ijpeg's.
  const auto forward_fraction = [](const std::string& name) {
    const Workload w = build_workload(name);
    LsqAliasStudy study(32);
    run_trace(w.program, 10'000, 200'000, [&](const ExecRecord& rec) {
      study.observe(rec);
      return true;
    });
    return study.fraction(kDisambigBits - 1,
                          AliasCategory::SingleMatchOneStore) +
           study.fraction(kDisambigBits - 1,
                          AliasCategory::SingleMatchMultStores) +
           study.fraction(kDisambigBits - 1,
                          AliasCategory::MultMatchSameAddr);
  };
  EXPECT_GT(forward_fraction("vortex"), 0.2);
}

TEST(WorkloadCharacteristics, LiReproducesFigure5Idiom) {
  // The generated li kernel must contain the lbu/andi/bne sequence.
  const std::string src = workload_source("li");
  const auto lbu = src.find("lbu $3");
  ASSERT_NE(lbu, std::string::npos);
  const auto andi = src.find("andi $2, $3, 0x0001", lbu);
  ASSERT_NE(andi, std::string::npos);
  const auto bne = src.find("bne $2, $0", andi);
  EXPECT_NE(bne, std::string::npos);
}

}  // namespace
}  // namespace bsp
