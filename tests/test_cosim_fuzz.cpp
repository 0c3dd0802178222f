// Co-simulation stress fuzzing: generates random structured programs
// (nested countdown loops whose bodies mix ALU chains, sandboxed loads and
// stores, flag-test branches, calls, and mul/div) and runs each on a matrix
// of machine configurations. Commit-time co-simulation turns any scheduler,
// replay, LSQ or recovery bug into a hard failure, so simply completing the
// matrix is a strong end-to-end correctness statement.
#include <gtest/gtest.h>

#include <sstream>

#include "asm/assembler.hpp"
#include "core/simulator.hpp"
#include "emu/emulator.hpp"
#include "util/rng.hpp"

namespace bsp {
namespace {

// Registers the generator uses freely ($s6/$s7 are loop counters, $s5 the
// sandbox base, $at/$k0/$k1 reserved).
constexpr unsigned kPool[] = {R_T0, R_T1, R_T2, R_T3, R_T4, R_T5,
                              R_T6, R_T7, R_S0, R_S1, R_S2, R_V1,
                              R_A1, R_A2, R_A3, R_T8};

class ProgramFuzzer {
 public:
  explicit ProgramFuzzer(u64 seed) : rng_(seed) {}

  std::string generate() {
    os_.str("");
    label_ = 0;
    os_ << ".text\nmain:\n";
    os_ << "  la $s5, sandbox\n";
    // Seed the register pool with assorted values.
    for (const unsigned r : kPool)
      os_ << "  li $" << r << ", " << rng_.next() % 100000 << "\n";
    emit_loop(/*depth=*/0);
    os_ << "  li $v0, 10\n  li $a0, 0\n  syscall\n";
    os_ << ".data\nsandbox:\n  .space 4096\n";
    return os_.str();
  }

 private:
  std::string fresh_label(const char* stem) {
    return std::string(stem) + std::to_string(label_++);
  }
  unsigned reg() { return kPool[rng_.below(std::size(kPool))]; }

  void emit_loop(int depth) {
    const unsigned counter = depth == 0 ? R_S7 : R_S6;
    const std::string head = fresh_label("loop");
    const unsigned iters = depth == 0 ? 40 + rng_.below(60)
                                      : 2 + rng_.below(6);
    os_ << "  li $" << counter << ", " << iters << "\n";
    os_ << head << ":\n";
    const unsigned body = 4 + rng_.below(12);
    for (unsigned i = 0; i < body; ++i) emit_statement(depth);
    os_ << "  addiu $" << counter << ", $" << counter << ", -1\n";
    // Alternate branch flavours for the back edge.
    if (rng_.chance(1, 2))
      os_ << "  bgtz $" << counter << ", " << head << "\n";
    else
      os_ << "  bne $" << counter << ", $0, " << head << "\n";
  }

  void emit_statement(int depth) {
    switch (rng_.below(depth == 0 ? 9u : 8u)) {  // nest only from depth 0
      case 0: {  // ALU R-type chain
        const char* ops[] = {"addu", "subu", "and", "or", "xor", "nor",
                             "slt", "sltu"};
        os_ << "  " << ops[rng_.below(8)] << " $" << reg() << ", $" << reg()
            << ", $" << reg() << "\n";
        break;
      }
      case 1: {  // immediates & shifts
        switch (rng_.below(4)) {
          case 0:
            os_ << "  addiu $" << reg() << ", $" << reg() << ", "
                << static_cast<int>(rng_.below(4096)) - 2048 << "\n";
            break;
          case 1:
            os_ << "  andi $" << reg() << ", $" << reg() << ", 0x"
                << std::hex << rng_.below(0x10000) << std::dec << "\n";
            break;
          case 2:
            os_ << "  " << (rng_.chance(1, 2) ? "sll" : "sra") << " $"
                << reg() << ", $" << reg() << ", " << rng_.below(32) << "\n";
            break;
          case 3:
            os_ << "  " << (rng_.chance(1, 2) ? "srlv" : "sllv") << " $"
                << reg() << ", $" << reg() << ", $" << reg() << "\n";
            break;
        }
        break;
      }
      case 2: {  // sandboxed store (word/half/byte)
        const char* ops[] = {"sw", "sh", "sb"};
        const unsigned pick = rng_.below(3);
        const unsigned bytes = pick == 0 ? 4 : (pick == 1 ? 2 : 1);
        emit_sandbox_address(reg(), bytes);
        os_ << "  " << ops[pick] << " $" << reg() << ", 0($at)\n";
        break;
      }
      case 3: {  // sandboxed load
        const char* ops[] = {"lw", "lhu", "lh", "lbu", "lb"};
        const unsigned pick = rng_.below(5);
        const unsigned bytes = pick == 0 ? 4 : (pick <= 2 ? 2 : 1);
        emit_sandbox_address(reg(), bytes);
        os_ << "  " << ops[pick] << " $" << reg() << ", 0($at)\n";
        break;
      }
      case 4: {  // data-dependent forward branch (flag test)
        const std::string skip = fresh_label("skip");
        os_ << "  andi $k0, $" << reg() << ", 0x" << std::hex
            << (1u << rng_.below(8)) << std::dec << "\n";
        if (rng_.chance(1, 2))
          os_ << "  beq $k0, $0, " << skip << "\n";
        else
          os_ << "  bne $k0, $0, " << skip << "\n";
        os_ << "  addiu $" << reg() << ", $" << reg() << ", 1\n";
        os_ << skip << ":\n";
        break;
      }
      case 5: {  // mul/div + hi/lo reads
        const unsigned a = reg(), b = reg();
        os_ << "  " << (rng_.chance(3, 4) ? "mult" : "divu") << " $" << a
            << ", $" << b << "\n";
        os_ << "  mflo $" << reg() << "\n";
        if (rng_.chance(1, 2)) os_ << "  mfhi $" << reg() << "\n";
        break;
      }
      case 6: {  // sign-test forward branch
        const std::string skip = fresh_label("sgn");
        const char* ops[] = {"bltz", "bgez", "blez", "bgtz"};
        os_ << "  " << ops[rng_.below(4)] << " $" << reg() << ", " << skip
            << "\n";
        os_ << "  subu $" << reg() << ", $0, $" << reg() << "\n";
        os_ << skip << ":\n";
        break;
      }
      case 7: {  // floating-point activity over $f0..$f7
        const unsigned fd = rng_.below(8), fa = rng_.below(8),
                       fb = rng_.below(8);
        switch (rng_.below(6)) {
          case 0:
            os_ << "  mtc1 $" << reg() << ", $f" << fd << "\n";
            break;
          case 1:
            os_ << "  " << (rng_.chance(1, 2) ? "add.s" : "mul.s") << " $f"
                << fd << ", $f" << fa << ", $f" << fb << "\n";
            break;
          case 2:
            os_ << "  " << (rng_.chance(1, 2) ? "abs.s" : "neg.s") << " $f"
                << fd << ", $f" << fa << "\n";
            break;
          case 3: {  // FP-flag branch
            const std::string skip = fresh_label("fcc");
            os_ << "  c.lt.s $f" << fa << ", $f" << fb << "\n";
            os_ << "  " << (rng_.chance(1, 2) ? "bc1t" : "bc1f") << " "
                << skip << "\n";
            os_ << "  mov.s $f" << fd << ", $f" << fa << "\n";
            os_ << skip << ":\n";
            break;
          }
          case 4:  // FP store/load through the sandbox
            emit_sandbox_address(reg(), 4);
            os_ << "  " << (rng_.chance(1, 2) ? "swc1" : "lwc1") << " $f"
                << fd << ", 0($at)\n";
            break;
          case 5:
            os_ << "  mfc1 $" << reg() << ", $f" << fa << "\n";
            break;
        }
        break;
      }
      case 8:  // nested loop (depth 0 only)
        emit_loop(depth + 1);
        break;
    }
  }

  // $at = $s5 + (reg & 0xffc) + offset: a sandbox slot whose sub-word
  // offset respects the access's natural alignment.
  void emit_sandbox_address(unsigned addr_reg, unsigned access_bytes) {
    os_ << "  andi $at, $" << addr_reg << ", 0xffc\n";
    os_ << "  addu $at, $s5, $at\n";
    const unsigned max_off = 4 / access_bytes;  // 1, 2 or 4 choices
    const unsigned off = rng_.below(max_off) * access_bytes;
    if (off != 0) os_ << "  addiu $at, $at, " << off << "\n";
  }

  Rng rng_;
  std::ostringstream os_;
  unsigned label_ = 0;
};

class CoSimFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(CoSimFuzz, RandomProgramsCoSimulateOnAllConfigs) {
  ProgramFuzzer fuzzer(GetParam());
  const std::string src = fuzzer.generate();
  const AsmResult assembled = assemble(src);
  ASSERT_TRUE(assembled.ok()) << assembled.error_text() << "\n" << src;

  // The reference execution must terminate (countdown loops guarantee it).
  Emulator emu(assembled.program);
  StepResult final;
  emu.run(3'000'000, &final);
  ASSERT_TRUE(emu.exited()) << "generated program did not terminate";
  const u64 length = emu.instructions_retired();

  // The x4 all-technique machine with a given RUU / LSQ window: a tight
  // one keeps both queues full and wrapping, a wide one keeps hundreds of
  // ops and many stores in flight at once.
  const auto windowed = [](unsigned ruu, unsigned lsq) {
    MachineConfig cfg = bitsliced_machine(4, kAllTechniques);
    cfg.core.ruu_entries = ruu;
    cfg.core.lsq_entries = lsq;
    return cfg;
  };
  const MachineConfig configs[] = {
      base_machine(),
      simple_pipelined_machine(2),
      simple_pipelined_machine(4),
      bitsliced_machine(2, kAllTechniques),
      bitsliced_machine(4, kAllTechniques),
      bitsliced_machine(8, kAllTechniques),
      bitsliced_machine(4, kExtendedTechniques |
                               static_cast<unsigned>(Technique::SumAddressed)),
      windowed(16, 8),
      windowed(256, 128),
  };
  for (const auto& cfg : configs) {
    const SimResult r = simulate(cfg, assembled.program, 1u << 22);
    ASSERT_TRUE(r.ok()) << "seed " << GetParam() << " slices "
                        << cfg.core.slices << " techniques "
                        << cfg.core.techniques << " ruu "
                        << cfg.core.ruu_entries << ": " << r.error;
    EXPECT_TRUE(r.exited);
    EXPECT_EQ(r.stats.committed, length)
        << "committed stream length diverged from the emulator";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoSimFuzz,
                         ::testing::Range<u64>(1000, 1024));

}  // namespace
}  // namespace bsp
