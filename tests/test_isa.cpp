// ISA tests: encode/decode round trips, operand extraction, branch targets,
// and disassembly.
#include <gtest/gtest.h>

#include "isa/isa.hpp"
#include "util/rng.hpp"

namespace bsp {
namespace {

TEST(Isa, RegisterNames) {
  EXPECT_EQ(reg_name(0), "$zero");
  EXPECT_EQ(reg_name(R_SP), "$sp");
  EXPECT_EQ(reg_name(R_RA), "$ra");
  EXPECT_EQ(parse_reg("$t0"), R_T0);
  EXPECT_EQ(parse_reg("t0"), R_T0);
  EXPECT_EQ(parse_reg("$31"), 31u);
  EXPECT_EQ(parse_reg("31"), 31u);
  EXPECT_FALSE(parse_reg("$t99").has_value());
  EXPECT_FALSE(parse_reg("32").has_value());
  EXPECT_FALSE(parse_reg("").has_value());
}

TEST(Isa, MnemonicLookup) {
  EXPECT_EQ(op_from_mnemonic("add"), Op::ADD);
  EXPECT_EQ(op_from_mnemonic("beq"), Op::BEQ);
  EXPECT_EQ(op_from_mnemonic("lw"), Op::LW);
  EXPECT_FALSE(op_from_mnemonic("frobnicate").has_value());
}

// Every opcode's canonical builder must survive an encode/decode round trip.
TEST(Isa, EncodeDecodeRoundTripAllOpcodes) {
  std::vector<DecodedInst> insts = {
      make_r3(Op::ADD, 1, 2, 3),
      make_r3(Op::ADDU, 4, 5, 6),
      make_r3(Op::SUB, 7, 8, 9),
      make_r3(Op::SUBU, 10, 11, 12),
      make_r3(Op::AND, 13, 14, 15),
      make_r3(Op::OR, 16, 17, 18),
      make_r3(Op::XOR, 19, 20, 21),
      make_r3(Op::NOR, 22, 23, 24),
      make_r3(Op::SLT, 25, 26, 27),
      make_r3(Op::SLTU, 28, 29, 30),
      make_shift_imm(Op::SLL, 1, 2, 31),
      make_shift_imm(Op::SRL, 3, 4, 15),
      make_shift_imm(Op::SRA, 5, 6, 1),
      make_shift_var(Op::SLLV, 7, 8, 9),
      make_shift_var(Op::SRLV, 10, 11, 12),
      make_shift_var(Op::SRAV, 13, 14, 15),
      make_jr(31),
      make_jalr(31, 2),
      make_syscall(),
      make_rd(Op::MFHI, 5),
      make_rd(Op::MFLO, 6),
      make_rsrt(Op::MULT, 7, 8),
      make_rsrt(Op::MULTU, 9, 10),
      make_rsrt(Op::DIV, 11, 12),
      make_rsrt(Op::DIVU, 13, 14),
      make_br1(Op::BLTZ, 3, -5),
      make_br1(Op::BGEZ, 4, 100),
      make_jump(Op::J, 0x00400100),
      make_jump(Op::JAL, 0x00400200),
      make_br2(Op::BEQ, 1, 2, 10),
      make_br2(Op::BNE, 3, 4, -10),
      make_br1(Op::BLEZ, 5, 7),
      make_br1(Op::BGTZ, 6, -7),
      make_iarith(Op::ADDI, 1, 2, 0x8000),
      make_iarith(Op::ADDIU, 3, 4, 0x1234),
      make_iarith(Op::SLTI, 5, 6, 0xffff),
      make_iarith(Op::SLTIU, 7, 8, 0x7fff),
      make_iarith(Op::ANDI, 9, 10, 0xf0f0),
      make_iarith(Op::ORI, 11, 12, 0x0f0f),
      make_iarith(Op::XORI, 13, 14, 0xaaaa),
      make_lui(15, 0xdead),
      make_mem(Op::LB, 1, 2, -4),
      make_mem(Op::LH, 3, 4, 8),
      make_mem(Op::LW, 5, 6, 0x7ffc),
      make_mem(Op::LBU, 7, 8, 0),
      make_mem(Op::LHU, 9, 10, 2),
      make_mem(Op::SB, 11, 12, -1),
      make_mem(Op::SH, 13, 14, 6),
      make_mem(Op::SW, 15, 16, -32768),
  };
  for (const auto& d : insts) {
    const auto back = decode(d.raw);
    ASSERT_TRUE(back.has_value()) << disassemble(d, 0);
    EXPECT_EQ(back->op, d.op) << disassemble(d, 0);
    EXPECT_EQ(back->rs, d.rs);
    EXPECT_EQ(back->rt, d.rt);
    EXPECT_EQ(back->rd, d.rd);
    EXPECT_EQ(back->shamt, d.shamt);
    EXPECT_EQ(back->imm, d.imm);
    EXPECT_EQ(encode(*back), d.raw);
  }
}

TEST(Isa, DecodeRejectsIllegal) {
  // opcode 0x3f is unused.
  EXPECT_FALSE(decode(0xfc000000u).has_value());
  // funct 0x3f under SPECIAL is unused.
  EXPECT_FALSE(decode(0x0000003fu).has_value());
}

TEST(Isa, NopIsAllZero) {
  EXPECT_EQ(make_nop().raw, 0u);
  const auto d = decode(0);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->is_nop());
  EXPECT_EQ(disassemble(*d, 0), "nop");
}

TEST(Isa, ImmValueKinds) {
  EXPECT_EQ(make_iarith(Op::ADDI, 1, 2, 0xffff).imm_value(), 0xffffffffu);
  EXPECT_EQ(make_iarith(Op::ANDI, 1, 2, 0xffff).imm_value(), 0xffffu);
  EXPECT_EQ(make_lui(1, 0x1234).imm_value(), 0x12340000u);
  EXPECT_EQ(make_br2(Op::BEQ, 0, 0, -1).imm_value(), 0xfffffffcu);
}

TEST(Isa, BranchTargets) {
  const u32 pc = 0x00400010;
  EXPECT_EQ(make_br2(Op::BEQ, 1, 2, 4).branch_target(pc), pc + 4 + 16);
  EXPECT_EQ(make_br2(Op::BNE, 1, 2, -4).branch_target(pc), pc + 4 - 16);
  EXPECT_EQ(make_jump(Op::J, 0x00400100).branch_target(pc), 0x00400100u);
}

TEST(Isa, SourceAndDestExtraction) {
  const auto add = make_r3(Op::ADD, 3, 1, 2);
  EXPECT_EQ(add.dest(), 3u);
  EXPECT_EQ(add.src1(), 1u);
  EXPECT_EQ(add.src2(), 2u);

  const auto sll = make_shift_imm(Op::SLL, 4, 5, 2);
  EXPECT_EQ(sll.dest(), 4u);
  EXPECT_EQ(sll.src1(), 0u);  // no rs
  EXPECT_EQ(sll.src2(), 5u);  // value in rt

  const auto sllv = make_shift_var(Op::SLLV, 6, 7, 8);
  EXPECT_EQ(sllv.src1(), 8u);  // amount
  EXPECT_EQ(sllv.src2(), 7u);  // value

  const auto lw = make_mem(Op::LW, 9, 10, 4);
  EXPECT_EQ(lw.dest(), 9u);
  EXPECT_EQ(lw.src1(), 10u);
  EXPECT_EQ(lw.src2(), 0u);  // loads have no data source

  const auto sw = make_mem(Op::SW, 9, 10, 4);
  EXPECT_EQ(sw.dest(), 0u);  // stores write no register
  EXPECT_EQ(sw.src1(), 10u);
  EXPECT_EQ(sw.src2(), 9u);  // store data

  const auto jal = make_jump(Op::JAL, 0x00400000);
  EXPECT_EQ(jal.dest(), static_cast<unsigned>(R_RA));

  const auto mult = make_rsrt(Op::MULT, 1, 2);
  EXPECT_EQ(mult.dest(), 0u);
  EXPECT_TRUE(mult.writes_hi_lo());
  EXPECT_TRUE(make_rd(Op::MFHI, 3).reads_hi_lo());
}

TEST(Isa, MemAccessMetadata) {
  EXPECT_EQ(make_mem(Op::LB, 1, 2, 0).mem_bytes(), 1u);
  EXPECT_EQ(make_mem(Op::LHU, 1, 2, 0).mem_bytes(), 2u);
  EXPECT_EQ(make_mem(Op::SW, 1, 2, 0).mem_bytes(), 4u);
  EXPECT_EQ(make_r3(Op::ADD, 1, 2, 3).mem_bytes(), 0u);
}

TEST(Isa, ClassPredicates) {
  EXPECT_TRUE(make_br2(Op::BEQ, 1, 2, 0).is_cond_branch());
  EXPECT_TRUE(make_br1(Op::BGEZ, 1, 0).is_cond_branch());
  EXPECT_TRUE(make_jump(Op::J, 0).is_jump());
  EXPECT_TRUE(make_jr(31).is_jump());
  EXPECT_FALSE(make_r3(Op::ADD, 1, 2, 3).is_control());
  EXPECT_TRUE(make_mem(Op::LW, 1, 2, 0).is_load());
  EXPECT_TRUE(make_mem(Op::SW, 1, 2, 0).is_store());
}

TEST(Isa, DisassembleSamples) {
  EXPECT_EQ(disassemble(make_r3(Op::ADDU, R_T0, R_T1, R_T2), 0),
            "addu $t0, $t1, $t2");
  EXPECT_EQ(disassemble(make_mem(Op::LW, R_V0, R_SP, -8), 0),
            "lw $v0, -8($sp)");
  EXPECT_EQ(disassemble(make_shift_imm(Op::SLL, R_T0, R_T1, 3), 0),
            "sll $t0, $t1, 3");
  EXPECT_EQ(disassemble(make_lui(R_T0, 0x1002), 0), "lui $t0, 0x1002");
}

// Fuzz: decode(encode(x)) == x for random legal words; decode never crashes
// on arbitrary words.
TEST(Isa, DecodeFuzz) {
  Rng rng(99);
  unsigned legal = 0;
  for (int i = 0; i < 200000; ++i) {
    const u32 raw = rng.next();
    const auto d = decode(raw);
    if (d) {
      ++legal;
      // Re-encoding keeps every architecturally meaningful field (raw may
      // carry junk in don't-care fields, so compare the decoded views).
      const auto d2 = decode(encode(*d));
      ASSERT_TRUE(d2.has_value());
      EXPECT_EQ(d2->op, d->op);
      EXPECT_EQ(d2->rs, d->rs);
      EXPECT_EQ(d2->rt, d->rt);
      EXPECT_EQ(d2->rd, d->rd);
      EXPECT_EQ(d2->imm, d->imm);
    }
  }
  EXPECT_GT(legal, 0u);
}

}  // namespace
}  // namespace bsp
