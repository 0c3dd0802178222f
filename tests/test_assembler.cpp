// Assembler tests: directives, labels, pseudo-instructions, error reporting,
// and agreement with the hand encoders.
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "isa/isa.hpp"

namespace bsp {
namespace {

AsmResult ok(const std::string& src) {
  AsmResult r = assemble(src);
  EXPECT_TRUE(r.ok()) << r.error_text();
  return r;
}

TEST(Assembler, EmptyProgram) {
  const AsmResult r = ok("");
  EXPECT_TRUE(r.program.text.empty());
  EXPECT_TRUE(r.program.data.empty());
}

TEST(Assembler, CommentsAndBlankLines) {
  const AsmResult r = ok("# a comment\n\n  \n.text\nmain:\n  nop # inline\n");
  ASSERT_EQ(r.program.text.size(), 1u);
  EXPECT_EQ(r.program.text[0], 0u);
}

TEST(Assembler, BasicInstructions) {
  const AsmResult r = ok(R"(
.text
main:
  addu $t0, $t1, $t2
  addiu $t0, $t0, -4
  lw $v0, 8($sp)
  sw $v0, -8($sp)
  sll $t3, $t4, 5
  sllv $t3, $t4, $t5
  mult $t0, $t1
  mflo $t2
  jr $ra
  syscall
)");
  const auto& t = r.program.text;
  ASSERT_EQ(t.size(), 10u);
  EXPECT_EQ(t[0], make_r3(Op::ADDU, R_T0, R_T1, R_T2).raw);
  EXPECT_EQ(t[1], make_iarith(Op::ADDIU, R_T0, R_T0, 0xfffc).raw);
  EXPECT_EQ(t[2], make_mem(Op::LW, R_V0, R_SP, 8).raw);
  EXPECT_EQ(t[3], make_mem(Op::SW, R_V0, R_SP, -8).raw);
  EXPECT_EQ(t[4], make_shift_imm(Op::SLL, R_T3, R_T4, 5).raw);
  EXPECT_EQ(t[5], make_shift_var(Op::SLLV, R_T3, R_T4, R_T5).raw);
  EXPECT_EQ(t[6], make_rsrt(Op::MULT, R_T0, R_T1).raw);
  EXPECT_EQ(t[7], make_rd(Op::MFLO, R_T2).raw);
  EXPECT_EQ(t[8], make_jr(R_RA).raw);
  EXPECT_EQ(t[9], make_syscall().raw);
}

TEST(Assembler, LabelsAndBranches) {
  const AsmResult r = ok(R"(
.text
main:
loop:
  addiu $t0, $t0, 1
  bne $t0, $t1, loop
  beq $t0, $t1, end
  j loop
end:
  nop
)");
  const auto& p = r.program;
  ASSERT_EQ(p.text.size(), 5u);
  EXPECT_EQ(p.symbol("loop"), p.text_base);
  EXPECT_EQ(p.symbol("end"), p.text_base + 16);
  // bne at pc+4 targets loop: offset = (loop - (pc+8))/4 = -2.
  EXPECT_EQ(p.text[1], make_br2(Op::BNE, R_T0, R_T1, -2).raw);
  EXPECT_EQ(p.text[2], make_br2(Op::BEQ, R_T0, R_T1, 1).raw);
  EXPECT_EQ(p.text[3], make_jump(Op::J, p.text_base).raw);
}

TEST(Assembler, ForwardReferences) {
  const AsmResult r = ok(R"(
.text
main:
  beq $0, $0, target
  nop
target:
  nop
)");
  EXPECT_EQ(r.program.text[0], make_br2(Op::BEQ, 0, 0, 1).raw);
}

TEST(Assembler, PseudoInstructions) {
  const AsmResult r = ok(R"(
.text
main:
  li $t0, 0x12345678
  la $t1, buf
  move $t2, $t3
  b main
  beqz $t0, main
  bnez $t0, main
.data
buf: .word 1
)");
  const auto& t = r.program.text;
  ASSERT_EQ(t.size(), 8u);  // li/la expand to 2 words each
  EXPECT_EQ(t[0], make_lui(R_T0, 0x1234).raw);
  EXPECT_EQ(t[1], make_iarith(Op::ORI, R_T0, R_T0, 0x5678).raw);
  EXPECT_EQ(t[2], make_lui(R_T1, r.program.data_base >> 16).raw);
  EXPECT_EQ(t[3],
            make_iarith(Op::ORI, R_T1, R_T1, r.program.data_base & 0xffff).raw);
  EXPECT_EQ(t[4], make_r3(Op::ADDU, R_T2, R_T3, R_ZERO).raw);
}

TEST(Assembler, DataDirectives) {
  const AsmResult r = ok(R"(
.data
w: .word 1, 2, 0xdeadbeef, -1
h: .half 0x1234, 7
b: .byte 1, 2, 3
s: .space 5
a: .align 2
w2: .word 42
str: .asciiz "hi\n"
)");
  const auto& p = r.program;
  EXPECT_EQ(p.symbol("w"), p.data_base);
  EXPECT_EQ(p.symbol("h"), p.data_base + 16);
  EXPECT_EQ(p.symbol("b"), p.data_base + 20);
  EXPECT_EQ(p.symbol("s"), p.data_base + 23);
  EXPECT_EQ(p.symbol("w2"), p.data_base + 28);  // aligned to 4
  EXPECT_EQ(p.symbol("str"), p.data_base + 32);
  // Little-endian layout.
  EXPECT_EQ(p.data[0], 1u);
  EXPECT_EQ(p.data[8], 0xefu);
  EXPECT_EQ(p.data[9], 0xbeu);
  EXPECT_EQ(p.data[12], 0xffu);
  EXPECT_EQ(p.data[16], 0x34u);
  EXPECT_EQ(p.data[17], 0x12u);
  EXPECT_EQ(p.data[32], 'h');
  EXPECT_EQ(p.data[33], 'i');
  EXPECT_EQ(p.data[34], '\n');
  EXPECT_EQ(p.data[35], 0u);
}

TEST(Assembler, WordCanHoldLabelAddresses) {
  const AsmResult r = ok(R"(
.data
ptrs: .word target, target+8
target: .word 0, 0, 0
)");
  const auto& p = r.program;
  const u32 target = p.symbol("target");
  EXPECT_EQ(p.data[0] | (p.data[1] << 8) | (p.data[2] << 16) |
                (u32{p.data[3]} << 24),
            target);
  EXPECT_EQ(p.data[4] | (p.data[5] << 8) | (p.data[6] << 16) |
                (u32{p.data[7]} << 24),
            target + 8);
}

TEST(Assembler, HiLoOperators) {
  const AsmResult r = ok(R"(
.text
main:
  lui $t0, %hi(buf)
  lw $t1, %lo(buf)($t0)
.data
  .space 4
buf: .word 99
)");
  const auto& p = r.program;
  EXPECT_EQ(p.text[0], make_lui(R_T0, p.symbol("buf") >> 16).raw);
  EXPECT_EQ(p.text[1],
            make_mem(Op::LW, R_T1, R_T0,
                     static_cast<i32>(p.symbol("buf") & 0xffff)).raw);
}

// Whitespace outside string literals is insignificant, also inside an
// operand; inside a literal it is kept, commas included.
TEST(Assembler, OperandWhitespaceIsDropped) {
  const AsmResult spaced = ok(R"(
.text
main:
  lw $t1 , %lo( buf + 4 ) ( $t0 )
  addiu $t2,$t2,  - 3
.data
buf: .word 1 , target - 4,2
target: .asciiz  "a, b \"c\" "  # comment
)");
  const AsmResult tight = ok(R"(
.text
main:
  lw $t1,%lo(buf+4)($t0)
  addiu $t2,$t2,-3
.data
buf: .word 1,target-4,2
target: .asciiz "a, b \"c\" "
)");
  EXPECT_EQ(spaced.program.text, tight.program.text);
  EXPECT_EQ(spaced.program.data, tight.program.data);
  EXPECT_EQ(spaced.program.symbols, tight.program.symbols);
  const std::string lit = "a, b \"c\" ";
  const auto& d = tight.program.data;
  ASSERT_EQ(d.size(), 12 + lit.size() + 1);
  EXPECT_EQ(std::string(d.begin() + 12, d.end() - 1), lit);
}

TEST(Assembler, EntryPointIsMain) {
  const AsmResult r = ok(".text\n  nop\nmain:\n  nop\n");
  EXPECT_EQ(r.program.entry, r.program.text_base + 4);
}

// --- error paths --------------------------------------------------------------

TEST(AssemblerErrors, UnknownMnemonic) {
  const AsmResult r = assemble(".text\n  bogus $t0, $t1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("unknown mnemonic"), std::string::npos);
  EXPECT_EQ(r.errors[0].line, 2u);
}

TEST(AssemblerErrors, UnknownSymbol) {
  const AsmResult r = assemble(".text\n  j nowhere\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("unknown symbol"), std::string::npos);
}

TEST(AssemblerErrors, DuplicateLabel) {
  const AsmResult r = assemble(".text\nx:\n  nop\nx:\n  nop\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("duplicate label"), std::string::npos);
}

TEST(AssemblerErrors, ImmediateOutOfRange) {
  EXPECT_FALSE(assemble(".text\n  addiu $t0, $t0, 70000\n").ok());
  EXPECT_FALSE(assemble(".text\n  andi $t0, $t0, 0x10000\n").ok());
  EXPECT_FALSE(assemble(".text\n  andi $t0, $t0, -1\n").ok());
  EXPECT_TRUE(assemble(".text\n  addiu $t0, $t0, -32768\n").ok());
  EXPECT_TRUE(assemble(".text\n  andi $t0, $t0, 0xffff\n").ok());
}

TEST(AssemblerErrors, ShiftAmountRange) {
  EXPECT_FALSE(assemble(".text\n  sll $t0, $t0, 32\n").ok());
  EXPECT_TRUE(assemble(".text\n  sll $t0, $t0, 31\n").ok());
}

TEST(AssemblerErrors, WrongOperandCount) {
  const AsmResult r = assemble(".text\n  addu $t0, $t1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("expects 3 operands"), std::string::npos);
}

TEST(AssemblerErrors, InstructionInDataSection) {
  EXPECT_FALSE(assemble(".data\n  addu $t0, $t1, $t2\n").ok());
}

TEST(AssemblerErrors, BadMemoryOperand) {
  EXPECT_FALSE(assemble(".text\n  lw $t0, $t1\n").ok());
  EXPECT_FALSE(assemble(".text\n  lw $t0, 4($nope)\n").ok());
}

TEST(AssemblerErrors, BranchOutOfRange) {
  // Build a program where the branch distance exceeds 15 bits of words.
  std::string src = ".text\nstart:\n";
  for (int i = 0; i < 33000; ++i) src += "  nop\n";
  src += "  beq $0, $0, start\n";
  EXPECT_FALSE(assemble(src).ok());
}

// Everything the disassembler prints for straight-line code should
// re-assemble to the same bits (labels excluded).
TEST(Assembler, DisassembleReassembleRoundTrip) {
  const std::vector<DecodedInst> insts = {
      make_r3(Op::ADD, 1, 2, 3),      make_r3(Op::SLTU, 4, 5, 6),
      make_shift_imm(Op::SRA, 7, 8, 9), make_shift_var(Op::SRLV, 1, 2, 3),
      make_iarith(Op::ADDIU, 1, 2, 0x8000),
      make_iarith(Op::ORI, 3, 4, 0xffff),
      make_lui(5, 0xabcd),            make_mem(Op::LBU, 6, 7, -128),
      make_mem(Op::SH, 8, 9, 256),    make_rsrt(Op::DIVU, 10, 11),
      make_rd(Op::MFHI, 12),          make_jr(31),
      make_syscall(),
  };
  for (const auto& d : insts) {
    const std::string text = ".text\n  " + disassemble(d, 0) + "\n";
    const AsmResult r = assemble(text);
    ASSERT_TRUE(r.ok()) << text << r.error_text();
    ASSERT_EQ(r.program.text.size(), 1u) << text;
    EXPECT_EQ(r.program.text[0], d.raw) << text;
  }
}

}  // namespace
}  // namespace bsp
