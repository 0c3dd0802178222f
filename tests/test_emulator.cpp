// Functional emulator tests: per-instruction semantics, memory, control
// flow, syscalls, and the ExecRecord contents the tracer and timing core
// depend on.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "asm/assembler.hpp"
#include "emu/emulator.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace bsp {
namespace {

Program compile(const std::string& src) {
  AsmResult r = assemble(src);
  EXPECT_TRUE(r.ok()) << r.error_text();
  return r.program;
}

// Runs a straight-line snippet and returns the emulator for inspection.
Emulator run_snippet(const std::string& body, u64 max_steps = 100000) {
  const Program p = compile(".text\nmain:\n" + body +
                            "\n  li $v0, 10\n  li $a0, 0\n  syscall\n");
  Emulator emu(p);
  StepResult final;
  emu.run(max_steps, &final);
  EXPECT_TRUE(emu.exited()) << "program did not exit cleanly";
  return emu;
}

TEST(Emulator, ArithmeticBasics) {
  Emulator e = run_snippet(R"(
  li $t0, 7
  li $t1, 5
  addu $t2, $t0, $t1
  subu $t3, $t0, $t1
  and $t4, $t0, $t1
  or $t5, $t0, $t1
  xor $t6, $t0, $t1
  nor $t7, $t0, $t1
)");
  EXPECT_EQ(e.reg(R_T2), 12u);
  EXPECT_EQ(e.reg(R_T3), 2u);
  EXPECT_EQ(e.reg(R_T4), 5u);
  EXPECT_EQ(e.reg(R_T5), 7u);
  EXPECT_EQ(e.reg(R_T6), 2u);
  EXPECT_EQ(e.reg(R_T7), ~7u);
}

TEST(Emulator, ZeroRegisterIsImmutable) {
  Emulator e = run_snippet("  addiu $0, $0, 123\n  addu $t0, $0, $0\n");
  EXPECT_EQ(e.reg(0), 0u);
  EXPECT_EQ(e.reg(R_T0), 0u);
}

TEST(Emulator, SetLessThan) {
  Emulator e = run_snippet(R"(
  li $t0, -1
  li $t1, 1
  slt $t2, $t0, $t1
  sltu $t3, $t0, $t1
  slti $t4, $t0, 0
  sltiu $t5, $t1, 2
)");
  EXPECT_EQ(e.reg(R_T2), 1u);  // signed: -1 < 1
  EXPECT_EQ(e.reg(R_T3), 0u);  // unsigned: 0xffffffff > 1
  EXPECT_EQ(e.reg(R_T4), 1u);
  EXPECT_EQ(e.reg(R_T5), 1u);
}

TEST(Emulator, Shifts) {
  Emulator e = run_snippet(R"(
  li $t0, 0x80000001
  sll $t1, $t0, 1
  srl $t2, $t0, 1
  sra $t3, $t0, 1
  li $t4, 4
  sllv $t5, $t0, $t4
  srlv $t6, $t0, $t4
  srav $t7, $t0, $t4
)");
  EXPECT_EQ(e.reg(R_T1), 0x00000002u);
  EXPECT_EQ(e.reg(R_T2), 0x40000000u);
  EXPECT_EQ(e.reg(R_T3), 0xc0000000u);
  EXPECT_EQ(e.reg(R_T5), 0x00000010u);
  EXPECT_EQ(e.reg(R_T6), 0x08000000u);
  EXPECT_EQ(e.reg(R_T7), 0xf8000000u);
}

TEST(Emulator, MultiplyDivide) {
  Emulator e = run_snippet(R"(
  li $t0, -6
  li $t1, 4
  mult $t0, $t1
  mflo $t2
  mfhi $t3
  multu $t0, $t1
  mflo $t4
  mfhi $t5
  div $t0, $t1
  mflo $t6
  mfhi $t7
)");
  EXPECT_EQ(e.reg(R_T2), static_cast<u32>(-24));
  EXPECT_EQ(e.reg(R_T3), 0xffffffffu);  // sign extension of -24
  EXPECT_EQ(e.reg(R_T4), static_cast<u32>(-24));
  EXPECT_EQ(e.reg(R_T5), 3u);  // 0xfffffffa * 4 >> 32
  EXPECT_EQ(e.reg(R_T6), static_cast<u32>(-1));  // -6/4 truncates toward 0
  EXPECT_EQ(e.reg(R_T7), static_cast<u32>(-2));  // remainder
}

TEST(Emulator, DivideByZeroIsDefined) {
  Emulator e = run_snippet(R"(
  li $t0, 9
  div $t0, $0
  mflo $t1
  mfhi $t2
)");
  EXPECT_EQ(e.reg(R_T1), 0u);
  EXPECT_EQ(e.reg(R_T2), 9u);
}

TEST(Emulator, MemoryAccessSizesAndSignExtension) {
  Emulator e = run_snippet(R"(
  la $s0, buf
  li $t0, 0x80f1f2f3
  sw $t0, 0($s0)
  lb $t1, 3($s0)
  lbu $t2, 3($s0)
  lh $t3, 2($s0)
  lhu $t4, 2($s0)
  lw $t5, 0($s0)
  sb $t0, 4($s0)
  lbu $t6, 4($s0)
  sh $t0, 6($s0)
  lhu $t7, 6($s0)
.data
buf: .space 16
.text
)");
  EXPECT_EQ(e.reg(R_T1), 0xffffff80u);
  EXPECT_EQ(e.reg(R_T2), 0x80u);
  EXPECT_EQ(e.reg(R_T3), 0xffff80f1u);
  EXPECT_EQ(e.reg(R_T4), 0x80f1u);
  EXPECT_EQ(e.reg(R_T5), 0x80f1f2f3u);
  EXPECT_EQ(e.reg(R_T6), 0xf3u);
  EXPECT_EQ(e.reg(R_T7), 0xf2f3u);
}

TEST(Emulator, BranchSemanticsAllSixTypes) {
  Emulator e = run_snippet(R"(
  li $t0, -3
  li $t1, -3
  move $s0, $0
  beq $t0, $t1, L1
  addiu $s0, $s0, 1     # skipped
L1:
  bne $t0, $0, L2
  addiu $s0, $s0, 2     # skipped
L2:
  blez $t0, L3
  addiu $s0, $s0, 4     # skipped
L3:
  bgtz $t0, L4
  addiu $s0, $s0, 8     # executed (bgtz of -3 not taken)
L4:
  bltz $t0, L5
  addiu $s0, $s0, 16    # skipped
L5:
  bgez $t0, L6
  addiu $s0, $s0, 32    # executed
L6:
  blez $0, L7           # zero satisfies <=
  addiu $s0, $s0, 64
L7:
  bgez $0, L8           # zero satisfies >=
  addiu $s0, $s0, 128
L8:
)");
  EXPECT_EQ(e.reg(R_S0), 8u + 32u);
}

TEST(Emulator, JumpAndLink) {
  Emulator e = run_snippet(R"(
  jal sub
  la $t6, sub
  jalr $ra, $t6       # indirect call through $t6
  b end
sub:
  addiu $t0, $t0, 1
  jr $ra
end:
)");
  EXPECT_EQ(e.reg(R_T0), 2u);  // sub ran once via jal, once via jalr
  EXPECT_NE(e.reg(R_RA), 0u);  // jalr wrote the link register
}

TEST(Emulator, LoopCountsCorrectly) {
  Emulator e = run_snippet(R"(
  li $t0, 100
  move $t1, $0
loop:
  addiu $t1, $t1, 3
  addiu $t0, $t0, -1
  bne $t0, $0, loop
)");
  EXPECT_EQ(e.reg(R_T1), 300u);
}

TEST(Emulator, SyscallPrintAndExitCode) {
  const Program p = compile(R"(
.text
main:
  li $v0, 1
  li $a0, -42
  syscall
  li $v0, 11
  li $a0, 33        # '!'
  syscall
  li $v0, 10
  li $a0, 5
  syscall
)");
  Emulator emu(p);
  StepResult final;
  emu.run(1000, &final);
  EXPECT_TRUE(emu.exited());
  EXPECT_EQ(emu.exit_code(), 5);
  EXPECT_EQ(emu.output(), "-42!");
}

TEST(Emulator, FaultOnIllegalInstruction) {
  Program p = compile(".text\nmain:\n  nop\n");
  p.text.push_back(0xfc000000u);  // illegal opcode
  Emulator emu(p);
  StepResult r = emu.step();
  EXPECT_TRUE(r.ok());
  r = emu.step();
  EXPECT_EQ(r.kind, StepResult::Kind::Fault);
}

TEST(Emulator, FaultOnMisalignedLoad) {
  Emulator emu(compile(R"(
.text
main:
  la $t0, buf
  lw $t1, 1($t0)
.data
buf: .word 0
)"));
  StepResult r;
  emu.run(10, &r);
  EXPECT_EQ(r.kind, StepResult::Kind::Fault);
}

TEST(Emulator, ExecRecordContents) {
  Emulator emu(compile(R"(
.text
main:
  li $t0, 10
  li $t1, 3
  addu $t2, $t0, $t1
  sw $t2, 0($gp)
  lw $t3, 0($gp)
  bne $t2, $t3, main
.data
  .word 0
)"));
  ExecRecord rec;
  for (int i = 0; i < 4; ++i) emu.step(&rec);  // through li/li (2 words each)
  emu.step(&rec);  // addu
  EXPECT_EQ(rec.inst.op, Op::ADDU);
  EXPECT_EQ(rec.src1_value, 10u);
  EXPECT_EQ(rec.src2_value, 3u);
  EXPECT_EQ(rec.dest, static_cast<unsigned>(R_T2));
  EXPECT_EQ(rec.dest_value, 13u);

  emu.step(&rec);  // sw
  EXPECT_TRUE(rec.is_store);
  EXPECT_EQ(rec.mem_bytes, 4u);
  EXPECT_EQ(rec.store_value, 13u);
  const u32 addr = rec.mem_addr;

  emu.step(&rec);  // lw
  EXPECT_TRUE(rec.is_load);
  EXPECT_EQ(rec.mem_addr, addr);
  EXPECT_EQ(rec.load_value, 13u);

  emu.step(&rec);  // bne (not taken: equal)
  EXPECT_TRUE(rec.is_cond_branch);
  EXPECT_FALSE(rec.branch_taken);
  EXPECT_EQ(rec.next_pc, rec.pc + 4);
}

TEST(Emulator, BranchOutcomeHelperMatchesExecution) {
  EXPECT_TRUE(branch_outcome(make_br2(Op::BEQ, 1, 2, 0), 5, 5));
  EXPECT_FALSE(branch_outcome(make_br2(Op::BEQ, 1, 2, 0), 5, 6));
  EXPECT_TRUE(branch_outcome(make_br2(Op::BNE, 1, 2, 0), 5, 6));
  EXPECT_TRUE(branch_outcome(make_br1(Op::BLEZ, 1, 0), 0, 0));
  EXPECT_TRUE(branch_outcome(make_br1(Op::BLEZ, 1, 0), 0x80000000u, 0));
  EXPECT_FALSE(branch_outcome(make_br1(Op::BGTZ, 1, 0), 0, 0));
  EXPECT_TRUE(branch_outcome(make_br1(Op::BGTZ, 1, 0), 1, 0));
  EXPECT_TRUE(branch_outcome(make_br1(Op::BLTZ, 1, 0), 0xffffffffu, 0));
  EXPECT_TRUE(branch_outcome(make_br1(Op::BGEZ, 1, 0), 0, 0));
}

// Property: alu_result agrees with the sliced reference adder for add/sub.
TEST(Emulator, AluResultMatchesSlicedDatapath) {
  Rng rng(5);
  const SliceGeometry g2{2}, g4{4};
  for (int i = 0; i < 2000; ++i) {
    const u32 a = rng.next(), b = rng.next();
    const auto add = make_r3(Op::ADDU, 1, 2, 3);
    const auto sub = make_r3(Op::SUBU, 1, 2, 3);
    EXPECT_EQ(alu_result(add, a, b), sliced_add(g2, a, b));
    EXPECT_EQ(alu_result(add, a, b), sliced_add(g4, a, b));
    EXPECT_EQ(alu_result(sub, a, b), sliced_sub(g2, a, b));
    EXPECT_EQ(alu_result(sub, a, b), sliced_sub(g4, a, b));
  }
}

TEST(Emulator, SparseMemoryBasics) {
  SparseMemory m;
  EXPECT_EQ(m.load_u32(0x12345678), 0u);  // untouched memory reads zero
  m.store_u32(0x1000, 0xa1b2c3d4);
  EXPECT_EQ(m.load_u32(0x1000), 0xa1b2c3d4u);
  EXPECT_EQ(m.load_u16(0x1000), 0xc3d4u);
  EXPECT_EQ(m.load_u8(0x1003), 0xa1u);
  // Cross-page access.
  m.store_u32(SparseMemory::kPageSize - 2, 0x11223344);
  EXPECT_EQ(m.load_u32(SparseMemory::kPageSize - 2), 0x11223344u);
  EXPECT_GE(m.pages_allocated(), 2u);
}

TEST(Emulator, SparseMemoryUnalignedAccesses) {
  SparseMemory m;
  // Every in-page misalignment of u16 and u32, little-endian byte order.
  m.store_u32(0x2001, 0xdeadbeef);
  EXPECT_EQ(m.load_u32(0x2001), 0xdeadbeefu);
  EXPECT_EQ(m.load_u8(0x2001), 0xefu);
  EXPECT_EQ(m.load_u8(0x2004), 0xdeu);
  m.store_u16(0x3003, 0xcafe);
  EXPECT_EQ(m.load_u16(0x3003), 0xcafeu);
  EXPECT_EQ(m.load_u8(0x3003), 0xfeu);
  EXPECT_EQ(m.load_u8(0x3004), 0xcau);
  // Unaligned loads assemble bytes from untouched memory as zero.
  EXPECT_EQ(m.load_u32(0x4001), 0u);
  EXPECT_EQ(m.load_u16(0x4001), 0u);
  // An unaligned store overlapping existing data merges per byte.
  m.store_u32(0x5000, 0x11223344);
  m.store_u16(0x5001, 0xaabb);
  EXPECT_EQ(m.load_u32(0x5000), 0x11aabb44u);
}

TEST(Emulator, SparseMemoryPageCrossingAccesses) {
  SparseMemory m;
  const u32 ps = SparseMemory::kPageSize;
  // u16 and u32 straddling a page boundary at every split point.
  for (u32 off = 1; off < 4; ++off) {
    const u32 addr = 7 * ps - off;  // off bytes in the low page
    const u32 v = 0xa0b0c0d0u + off;
    m.store_u32(addr, v);
    EXPECT_EQ(m.load_u32(addr), v) << "split " << off;
    // Byte-level agreement across the boundary.
    for (u32 i = 0; i < 4; ++i)
      EXPECT_EQ(m.load_u8(addr + i), (v >> (8 * i)) & 0xffu);
  }
  m.store_u16(9 * ps - 1, 0x1234);
  EXPECT_EQ(m.load_u16(9 * ps - 1), 0x1234u);
  EXPECT_EQ(m.load_u8(9 * ps - 1), 0x34u);
  EXPECT_EQ(m.load_u8(9 * ps), 0x12u);
  // A page-crossing load where only one side is mapped zero-fills the rest.
  m.store_u8(11 * ps - 1, 0x77);
  EXPECT_EQ(m.load_u32(11 * ps - 1), 0x77u);
}

// Every allocated page with its bytes, in address order.
std::vector<std::pair<u32, std::vector<u8>>> memory_image(
    const SparseMemory& m) {
  std::vector<std::pair<u32, std::vector<u8>>> out;
  m.for_each_page([&](u32 base, const u8* bytes) {
    out.emplace_back(base,
                     std::vector<u8>(bytes, bytes + SparseMemory::kPageSize));
  });
  return out;
}

// write_block copies page-sized chunks; it must leave memory exactly as a
// store_u8 loop does: same bytes, same allocated pages (a zero byte still
// allocates its page), and the same wrap from 0xffffffff to 0.
TEST(Emulator, SparseMemoryWriteBlockMatchesByteStores) {
  const u32 ps = SparseMemory::kPageSize;
  const struct {
    const char* name;
    u32 addr;
    std::size_t n;
  } cases[] = {
      {"unaligned start", 0x1003, 100},
      {"crosses a page", 2 * ps - 10, 30},
      {"exactly one page", 3 * ps, ps},
      {"several pages, unaligned", 5 * ps + 7, 3 * ps},
      {"wraps past 0xffffffff", 0xffffffffu - 5, 20},
      {"empty", 0x9000, 0},
  };
  Rng rng(11);
  for (const auto& c : cases) {
    std::vector<u8> block(c.n);
    for (std::size_t i = 0; i < c.n; ++i)
      block[i] = i % 5 == 0 ? 0 : static_cast<u8>(rng.next());
    SparseMemory chunked, bytewise;
    // Existing data around the block must survive where not overwritten.
    for (SparseMemory* m : {&chunked, &bytewise}) {
      m->store_u32(c.addr & ~3u, 0x5a5a5a5a);
      m->store_u32(0x0ff0, 0x12345678);
    }
    chunked.write_block(c.addr, block.data(), block.size());
    for (std::size_t i = 0; i < c.n; ++i)
      bytewise.store_u8(c.addr + static_cast<u32>(i), block[i]);
    EXPECT_EQ(chunked.pages_allocated(), bytewise.pages_allocated()) << c.name;
    EXPECT_TRUE(memory_image(chunked) == memory_image(bytewise)) << c.name;
  }
}

// --- run_fast(): the fast-forward interpreter must be architecturally
// indistinguishable from a step() loop. ---

// Runs the same program through run() and run_fast() (the latter in odd
// chunk sizes so resume-at-any-pc is exercised) and expects identical
// architectural state at every comparison point.
void expect_fast_matches_step(const Program& p, u64 budget) {
  Emulator slow(p), fast(p);
  StepResult rs, rf;
  const u64 ns = slow.run(budget, &rs);
  u64 nf = 0;
  while (nf < budget) {
    const u64 chunk = std::min<u64>(7777, budget - nf);
    const u64 got = fast.run_fast(chunk, &rf);
    nf += got;
    if (got < chunk) break;
  }
  EXPECT_EQ(ns, nf);
  EXPECT_EQ(static_cast<int>(rs.kind), static_cast<int>(rf.kind));
  EXPECT_EQ(rs.fault, rf.fault);
  EXPECT_EQ(slow.pc(), fast.pc());
  EXPECT_EQ(slow.hi(), fast.hi());
  EXPECT_EQ(slow.lo(), fast.lo());
  EXPECT_EQ(slow.instructions_retired(), fast.instructions_retired());
  EXPECT_EQ(slow.output(), fast.output());
  EXPECT_EQ(slow.exited(), fast.exited());
  EXPECT_EQ(slow.exit_code(), fast.exit_code());
  for (unsigned i = 0; i < kNumRegs; ++i)
    EXPECT_EQ(slow.reg(i), fast.reg(i)) << "$" << i;
  for (unsigned i = 0; i < 32; ++i)
    EXPECT_EQ(slow.fp_reg(i), fast.fp_reg(i)) << "$f" << i;
  EXPECT_EQ(slow.fcc(), fast.fcc());
}

TEST(EmulatorFastRun, MatchesStepAcrossWorkloads) {
  for (const char* name : {"gzip", "li", "ijpeg", "mcf"}) {
    SCOPED_TRACE(name);
    WorkloadParams params;
    params.seed = 0x5eed;
    expect_fast_matches_step(build_workload(name, params).program, 200'000);
  }
}

TEST(EmulatorFastRun, MatchesStepThroughExit) {
  // Budget far beyond the program's length: both engines must agree on the
  // exit, the exit code, and the retired count (the exit syscall retires
  // but is not part of run()'s count).
  const Program p = compile(R"(
.text
main:
  li $t0, 50
  li $t1, 0
loop:
  addiu $t1, $t1, 3
  addiu $t0, $t0, -1
  bgtz $t0, loop
  li $v0, 1
  addu $a0, $t1, $0
  syscall
  li $v0, 10
  li $a0, 7
  syscall
)");
  expect_fast_matches_step(p, 100'000);
  Emulator fast(p);
  StepResult r;
  fast.run_fast(100'000, &r);
  EXPECT_TRUE(fast.exited());
  EXPECT_EQ(fast.exit_code(), 7);
  EXPECT_EQ(fast.output(), "150");
  // Exited emulators return immediately with Exited.
  StepResult again;
  EXPECT_EQ(fast.run_fast(10, &again), 0u);
  EXPECT_EQ(again.kind, StepResult::Kind::Exited);
}

TEST(EmulatorFastRun, FaultParityIllegalInstruction) {
  Program p = compile(".text\nmain:\n  nop\n  nop\n");
  p.text[1] = 0xfc000000u;  // illegal opcode
  Emulator slow(p), fast(p);
  StepResult rs, rf;
  const u64 ns = slow.run(10, &rs);
  const u64 nf = fast.run_fast(10, &rf);
  EXPECT_EQ(ns, nf);
  EXPECT_EQ(rf.kind, StepResult::Kind::Fault);
  EXPECT_EQ(rs.fault, rf.fault);  // byte-identical fault string
  EXPECT_EQ(slow.pc(), fast.pc());
}

TEST(EmulatorFastRun, FaultParityMisalignedAccess) {
  for (const char* inst : {"lw $t1, 1($t0)", "lh $t1, 1($t0)",
                           "sw $t1, 2($t0)", "sh $t1, 1($t0)"}) {
    SCOPED_TRACE(inst);
    const Program p = compile(std::string(R"(
.text
main:
  la $t0, buf
  )") + inst + R"(
.data
buf: .word 0
)");
    Emulator slow(p), fast(p);
    StepResult rs, rf;
    EXPECT_EQ(slow.run(10, &rs), fast.run_fast(10, &rf));
    EXPECT_EQ(rf.kind, StepResult::Kind::Fault);
    EXPECT_EQ(rs.fault, rf.fault);
    EXPECT_EQ(slow.pc(), fast.pc());
  }
}

TEST(EmulatorFastRun, FaultParityWildJump) {
  // Jump far outside the text image: the fast loop's window check must
  // defer to step() and fault identically.
  const Program p = compile(R"(
.text
main:
  li $t0, 0x00100000
  jr $t0
)");
  Emulator slow(p), fast(p);
  StepResult rs, rf;
  EXPECT_EQ(slow.run(10, &rs), fast.run_fast(10, &rf));
  EXPECT_EQ(static_cast<int>(rs.kind), static_cast<int>(rf.kind));
  EXPECT_EQ(rs.fault, rf.fault);
  EXPECT_EQ(slow.pc(), fast.pc());
}

TEST(EmulatorFastRun, SelfModifyingCodeRedecodes) {
  // Overwrite an addiu in a loop body through the data path; the fast
  // cache's raw tag must miss and re-predecode, exactly like step()'s
  // decode cache. The loop runs twice: once adding 1, once adding 5.
  Program p = compile(R"(
.text
main:
  li $t3, 0          # result accumulator
  li $t4, 2          # outer trip count
  la $t5, patch      # address of the instruction to rewrite
  la $t7, newinst
  lw $t6, 0($t7)     # encoded "addiu $t3, $t3, 5"
outer:
patch:
  addiu $t3, $t3, 1
  sw $t6, 0($t5)     # patch the instruction above for the next trip
  addiu $t4, $t4, -1
  bgtz $t4, outer
  li $v0, 10
  addu $a0, $t3, $0
  syscall
.data
newinst: .word 0
)");
  // Poke the real encoding of "addiu $t3, $t3, 5" into the data word (the
  // assembler is the encoding authority, not a hand-written constant).
  const u32 encoded = compile(".text\nmain:\n  addiu $t3, $t3, 5\n").text[0];
  const u32 off = p.symbol("newinst") - p.data_base;
  for (u32 i = 0; i < 4; ++i)
    p.data[off + i] = static_cast<u8>(encoded >> (8 * i));
  expect_fast_matches_step(p, 1000);
  Emulator fast(p);
  fast.run_fast(1000);
  EXPECT_TRUE(fast.exited());
  EXPECT_EQ(fast.exit_code(), 6);  // 1 + 5
}

}  // namespace
}  // namespace bsp
