// Object-file round-trip and robustness tests, plus pipeview smoke tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "asm/assembler.hpp"
#include "asm/objfile.hpp"
#include "core/simulator.hpp"
#include "emu/emulator.hpp"
#include "obs/sinks.hpp"
#include "util/rng.hpp"

namespace bsp {
namespace {

Program sample_program() {
  const AsmResult r = assemble(R"(
.text
main:
  la $t0, table
  lw $t1, 4($t0)
  move $a0, $t1
  li $v0, 1
  syscall
  li $v0, 10
  li $a0, 0
  syscall
.data
pad: .byte 1, 2, 3
.align 2
table: .word 10, 42, 30
)");
  EXPECT_TRUE(r.ok()) << r.error_text();
  return r.program;
}

TEST(ObjFile, RoundTripPreservesEverything) {
  const Program original = sample_program();
  std::stringstream buf;
  ASSERT_TRUE(save_object(original, buf));

  std::string error;
  const auto loaded = load_object(buf, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->text, original.text);
  EXPECT_EQ(loaded->data, original.data);
  EXPECT_EQ(loaded->text_base, original.text_base);
  EXPECT_EQ(loaded->data_base, original.data_base);
  EXPECT_EQ(loaded->entry, original.entry);
  EXPECT_EQ(loaded->symbols, original.symbols);
}

TEST(ObjFile, LoadedProgramRunsIdentically) {
  const Program original = sample_program();
  std::stringstream buf;
  ASSERT_TRUE(save_object(original, buf));
  const auto loaded = load_object(buf);
  ASSERT_TRUE(loaded.has_value());

  Emulator a(original), b(*loaded);
  a.run(1000);
  b.run(1000);
  EXPECT_EQ(a.output(), b.output());
  EXPECT_EQ(a.output(), "42");
  EXPECT_EQ(a.instructions_retired(), b.instructions_retired());
}

TEST(ObjFile, RejectsGarbage) {
  std::string error;
  {
    std::stringstream buf("not an object file at all");
    EXPECT_FALSE(load_object(buf, &error).has_value());
    EXPECT_EQ(error, "not a BSPO object file");
  }
  {
    std::stringstream buf;  // empty
    EXPECT_FALSE(load_object(buf, &error).has_value());
  }
}

TEST(ObjFile, RejectsTruncation) {
  const Program original = sample_program();
  std::stringstream buf;
  ASSERT_TRUE(save_object(original, buf));
  const std::string whole = buf.str();
  // Every strict prefix must be rejected, never crash.
  Rng rng(9);
  for (int i = 0; i < 64; ++i) {
    const std::size_t cut = rng.below(static_cast<u32>(whole.size()));
    std::stringstream part(whole.substr(0, cut));
    EXPECT_FALSE(load_object(part).has_value()) << "cut at " << cut;
  }
}

TEST(ObjFile, RejectsImplausibleSizes) {
  // Valid magic/version, absurd text size.
  std::stringstream buf;
  const u32 words[] = {0x4f505342, 1, 0, 0, 0xffffffffu, 0, 0, 0};
  buf.write(reinterpret_cast<const char*>(words), sizeof words);
  std::string error;
  EXPECT_FALSE(load_object(buf, &error).has_value());
  EXPECT_EQ(error, "implausible section sizes");
}

// bsp-run, bsp-dbg and bsp-sim all load programs through this one call.
TEST(ObjFile, LoadProgramFileTakesObjectsAndSource) {
  const std::string base = testing::TempDir() + "bsp_objfile_load";
  const Program original = sample_program();
  ASSERT_TRUE(save_object_file(original, base + ".bspo"));
  const std::string source = ".text\nmain:\n  li $v0, 10\n  syscall\n";
  std::ofstream(base + ".s") << source;
  std::ofstream(base + "_bad.s") << ".text\nmain:\n  bogus $t0\n";
  std::string error;
  const auto obj = load_program_file(base + ".bspo", &error);
  ASSERT_TRUE(obj.has_value()) << error;
  EXPECT_EQ(obj->text, original.text);
  const auto src = load_program_file(base + ".s", &error);
  ASSERT_TRUE(src.has_value()) << error;
  EXPECT_EQ(src->text, assemble(source).program.text);

  EXPECT_FALSE(load_program_file(base + "_bad.s", &error).has_value());
  EXPECT_EQ(error, base + "_bad.s:\nline 3: unknown mnemonic 'bogus'");
  EXPECT_FALSE(load_program_file(base + "_missing.s", &error).has_value());
  EXPECT_EQ(error, "cannot open " + base + "_missing.s");
  for (const char* suffix : {".bspo", ".s", "_bad.s"})
    std::remove((base + suffix).c_str());
}

TEST(PipeTrace, EmitsStageEventsAndDoesNotPerturbTiming) {
  const Program p = sample_program();
  std::stringstream trace;
  obs::PipeTextSink sink(trace, 0, 100000);
  Simulator traced(bitsliced_machine(2, kAllTechniques), p);
  traced.add_trace_sink(&sink);
  const SimResult rt = traced.run(1000);
  ASSERT_TRUE(rt.ok()) << rt.error;

  const SimResult plain =
      simulate(bitsliced_machine(2, kAllTechniques), p, 1000);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(rt.stats.cycles, plain.stats.cycles)
      << "tracing must be an observer, not a participant";
  EXPECT_EQ(rt.stats.committed, plain.stats.committed);

  const std::string text = trace.str();
  EXPECT_NE(text.find("D    #"), std::string::npos);
  EXPECT_NE(text.find("X    #"), std::string::npos);
  EXPECT_NE(text.find("C    #"), std::string::npos);
  EXPECT_NE(text.find("M    #"), std::string::npos) << "the lw must appear";
}

TEST(PipeTrace, WindowRestrictsOutput) {
  const Program p = sample_program();
  std::stringstream trace;
  obs::PipeTextSink sink(trace, 5, 6);  // a single (early, empty) cycle
  Simulator sim(bitsliced_machine(2, kAllTechniques), p);
  sim.add_trace_sink(&sink);
  ASSERT_TRUE(sim.run(1000).ok());
  // Cycle 5 precedes the first dispatch (cold I$ miss), so nothing prints.
  EXPECT_TRUE(trace.str().empty()) << trace.str();
}

}  // namespace
}  // namespace bsp
