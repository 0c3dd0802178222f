// ISA definition: a 32-bit MIPS-I-like RISC architecture ("BSP-32").
//
// This stands in for the SimpleScalar PISA ISA the paper compiled SPEC to. It
// keeps exactly the properties the paper's mechanisms depend on: 32-bit
// two's-complement registers, base+offset addressing computed with an adder,
// and the six conditional branch types beq/bne/blez/bgtz/bltz/bgez. There are
// no branch delay slots.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/bitops.hpp"

namespace bsp {

// ---------------------------------------------------------------------------
// Registers
// ---------------------------------------------------------------------------

inline constexpr unsigned kNumRegs = 32;

enum Reg : u8 {
  R_ZERO = 0, R_AT = 1, R_V0 = 2, R_V1 = 3,
  R_A0 = 4, R_A1 = 5, R_A2 = 6, R_A3 = 7,
  R_T0 = 8, R_T1 = 9, R_T2 = 10, R_T3 = 11,
  R_T4 = 12, R_T5 = 13, R_T6 = 14, R_T7 = 15,
  R_S0 = 16, R_S1 = 17, R_S2 = 18, R_S3 = 19,
  R_S4 = 20, R_S5 = 21, R_S6 = 22, R_S7 = 23,
  R_T8 = 24, R_T9 = 25, R_K0 = 26, R_K1 = 27,
  R_GP = 28, R_SP = 29, R_FP = 30, R_RA = 31,
};

// ABI name ("$t0") for register i.
std::string_view reg_name(unsigned i);
// Parses "$t0", "$3", "t0" or "3"; nullopt if not a register.
std::optional<unsigned> parse_reg(std::string_view s);
// Parses "$f0".."$f31" (or "f0"); nullopt otherwise.
std::optional<unsigned> parse_fp_reg(std::string_view s);

// Extended register ids unify every renameable architectural location:
// GPRs 0..31, HI, LO, FP registers, and the FP condition flag. Id 0 is
// $zero and doubles as "none" (FP $f0 maps to kExtFpBase, so it is
// representable).
inline constexpr unsigned kExtHi = 32;
inline constexpr unsigned kExtLo = 33;
inline constexpr unsigned kExtFpBase = 34;  // $f0..$f31 -> 34..65
inline constexpr unsigned kExtFcc = 66;     // FP condition code
inline constexpr unsigned kNumExtRegs = 67;

// ---------------------------------------------------------------------------
// Opcodes and static per-opcode metadata
// ---------------------------------------------------------------------------

enum class Op : u8 {
#define BSP_OP(en, mn, fmt, opc, funct, cls, sig, imm) en,
#include "isa/opcodes.def"
#undef BSP_OP
  kCount
};

inline constexpr unsigned kNumOps = static_cast<unsigned>(Op::kCount);

enum class InstFormat : u8 {
  R, I, J, REGIMM,
  FP_R,   // COP1: opcode 0x11; OpInfo::funct holds (fmt << 6) | funct
  FP_BC,  // COP1 branch: opcode 0x11, fmt 0x08; OpInfo::funct holds rt code
};

// Slicing/timing semantics of an instruction; this is what the bit-sliced
// scheduler dispatches on (paper Figure 8).
enum class ExecClass : u8 {
  Logic,       // no inter-slice dependence; slices may execute out of order
  Add,         // carry chain: slice s needs own slice s-1 (low to high)
  ShiftLeft,   // bits move low->high: serial low to high
  ShiftRight,  // bits move high->low: serial high to low
  Compare,     // slt/sltu: result bit 0 defined only after all slices seen
  Mul,         // full-collect unit, 3-cycle
  Div,         // full-collect unit, 20-cycle
  MfHiLo,      // move from HI/LO: logic-like, slices independent
  Load,        // address generation is Add; then memory access
  Store,
  BranchEq,    // beq/bne: early-out on first differing slice
  BranchSign,  // blez/bgtz/bltz/bgez: needs the sign bit (top slice)
  Jump,        // j/jal: unconditional, target known at decode
  JumpReg,     // jr/jalr: needs the full register before redirect
  Syscall,

  // Floating point (paper §6: FP executes on full-collect units; Table 2
  // gives the unit mix and latencies).
  FpAlu,       // add/sub/abs/neg/mov/cvt + mfc1/mtc1 moves (2-cycle units)
  FpMul,       // mul.s (4-cycle)
  FpDiv,       // div.s (12-cycle)
  FpSqrt,      // sqrt.s (24-cycle)
  FpCompare,   // c.eq/lt/le.s: writes the FP condition flag
  FpBranch,    // bc1f/bc1t: reads the FP condition flag
};

// Operand signature: how the assembler parses and the disassembler prints it.
enum class OperandSig : u8 {
  R3,        // op rd, rs, rt
  ShiftImm,  // op rd, rt, shamt
  ShiftVar,  // op rd, rt, rs
  RsRt,      // op rs, rt          (mult/div)
  Rd,        // op rd              (mfhi/mflo)
  Rs,        // op rs              (jr)
  RdRs,      // op rd, rs          (jalr; rd defaults to $ra)
  NoOps,     // op                 (syscall)
  IArith,    // op rt, rs, imm
  Lui,       // op rt, imm
  Mem,       // op rt, imm(rs)
  Br2,       // op rs, rt, label
  Br1,       // op rs, label
  JTarget,   // op label

  FpR3,      // op fd, fs, ft
  FpR2,      // op fd, fs
  FpCmp,     // op fs, ft        (writes FCC)
  Mfc1,      // op rt, fs        (GPR <- FP bits)
  Mtc1,      // op rt, fs        (FP <- GPR bits)
  FpMem,     // op ft, imm(rs)
  FpBr,      // op label         (reads FCC)
};

enum class ImmKind : u8 { None, Sign, Zero, Upper, BranchOff, JumpTarget };

struct OpInfo {
  Op op;
  std::string_view mnemonic;
  InstFormat format;
  u8 opcode;     // 6-bit major opcode
  u16 funct;     // R: funct; REGIMM/FP_BC: rt code; FP_R: (fmt << 6) | funct
  ExecClass cls;
  OperandSig sig;
  ImmKind imm;
};

// Flat per-opcode property table. op_info() sits on the hottest paths of
// both the emulator and the timing core (every cls()/is_load()/... call), so
// the lookup is inlined here rather than paying a cross-TU call.
extern const std::array<OpInfo, kNumOps> kOpInfoTable;

inline const OpInfo& op_info(Op op) {
  return kOpInfoTable[static_cast<unsigned>(op)];
}
// Mnemonic lookup for the assembler; nullopt if unknown.
std::optional<Op> op_from_mnemonic(std::string_view mnemonic);

// ---------------------------------------------------------------------------
// Decoded instruction
// ---------------------------------------------------------------------------

struct DecodedInst {
  Op op = Op::SLL;
  u8 rs = 0, rt = 0, rd = 0, shamt = 0;
  u32 imm = 0;   // raw 16-bit immediate (not extended) or 26-bit jump target
  u32 raw = 0;   // original encoding

  const OpInfo& info() const { return op_info(op); }
  ExecClass cls() const { return info().cls; }

  bool is_load() const { return cls() == ExecClass::Load; }
  bool is_store() const { return cls() == ExecClass::Store; }
  bool is_mem() const { return is_load() || is_store(); }
  bool is_cond_branch() const {
    const auto c = cls();
    return c == ExecClass::BranchEq || c == ExecClass::BranchSign ||
           c == ExecClass::FpBranch;
  }
  bool is_jump() const {
    const auto c = cls();
    return c == ExecClass::Jump || c == ExecClass::JumpReg;
  }
  bool is_control() const { return is_cond_branch() || is_jump(); }
  bool is_nop() const { return raw == 0; }

  // Sign/zero-extended immediate value per the opcode's ImmKind.
  u32 imm_value() const;

  // Architectural *GPR* read/written; kNumRegs-sized ids, 0 = $zero.
  // dest() == 0 means "no GPR result". FP-side operands are not reported
  // here — use the extended accessors below.
  unsigned dest() const;
  unsigned src1() const;  // 0 ($zero) when unused: reading $zero is free
  unsigned src2() const;

  // Extended-register accessors over the unified id space (GPR/HI/LO/FP/
  // FCC, see kExt*): what the renaming core tracks. 0 means none/$zero.
  // HI/LO are excluded (the core handles mult/div's double write and
  // mfhi/mflo's read specially via reads_hi_lo()/writes_hi_lo()).
  unsigned dest_ext() const;
  unsigned src1_ext() const;
  unsigned src2_ext() const;

  bool is_fp() const {
    const auto c = cls();
    return c == ExecClass::FpAlu || c == ExecClass::FpMul ||
           c == ExecClass::FpDiv || c == ExecClass::FpSqrt ||
           c == ExecClass::FpCompare || c == ExecClass::FpBranch ||
           op == Op::LWC1 || op == Op::SWC1;
  }

  // FP field aliases (COP1 encodings reuse the R-type field positions).
  unsigned fs() const { return rd; }
  unsigned ft() const { return rt; }
  unsigned fd() const { return shamt; }

  bool reads_hi_lo() const { return cls() == ExecClass::MfHiLo; }
  bool writes_hi_lo() const {
    const auto c = cls();
    return c == ExecClass::Mul || c == ExecClass::Div;
  }

  // Conditional-branch / jump target given the PC of this instruction.
  u32 branch_target(u32 pc) const;

  // Memory access size in bytes (1/2/4); 0 for non-memory ops.
  unsigned mem_bytes() const;
};

// Operand-register accessors, inline for the same reason as op_info():
// renaming and the emulator call them for every dynamic instruction.
inline unsigned DecodedInst::dest_ext() const {
  switch (info().sig) {
    case OperandSig::FpR3:
    case OperandSig::FpR2:
      return kExtFpBase + fd();
    case OperandSig::FpCmp:
      return kExtFcc;
    case OperandSig::Mtc1:
      return kExtFpBase + fs();
    case OperandSig::FpMem:
      return is_load() ? kExtFpBase + ft() : 0;
    case OperandSig::FpBr:
      return 0;
    default:
      return dest();
  }
}

inline unsigned DecodedInst::src1_ext() const {
  switch (info().sig) {
    case OperandSig::FpR3:
    case OperandSig::FpR2:
    case OperandSig::FpCmp:
    case OperandSig::Mfc1:
      return kExtFpBase + fs();
    case OperandSig::Mtc1:
      return rt;  // GPR source
    case OperandSig::FpMem:
      return rs;  // address base (GPR)
    case OperandSig::FpBr:
      return kExtFcc;
    default:
      return src1();
  }
}

inline unsigned DecodedInst::src2_ext() const {
  switch (info().sig) {
    case OperandSig::FpR3:
    case OperandSig::FpCmp:
      return kExtFpBase + ft();
    case OperandSig::FpMem:
      return is_store() ? kExtFpBase + ft() : 0;  // store data
    case OperandSig::FpR2:
    case OperandSig::Mfc1:
    case OperandSig::Mtc1:
    case OperandSig::FpBr:
      return 0;
    default:
      return src2();
  }
}

inline unsigned DecodedInst::dest() const {
  switch (info().sig) {
    case OperandSig::R3:
    case OperandSig::ShiftImm:
    case OperandSig::ShiftVar:
    case OperandSig::Rd:
    case OperandSig::RdRs:
      return rd;
    case OperandSig::IArith:
    case OperandSig::Lui:
      return rt;
    case OperandSig::Mem:
      return is_load() ? rt : 0;
    case OperandSig::JTarget:
      return op == Op::JAL ? R_RA : 0;
    case OperandSig::Mfc1:
      return rt;  // the only FP-side op with a GPR destination
    case OperandSig::RsRt:   // mult/div write HI/LO, not a GPR
    case OperandSig::Rs:
    case OperandSig::NoOps:
    case OperandSig::Br2:
    case OperandSig::Br1:
    case OperandSig::FpR3:
    case OperandSig::FpR2:
    case OperandSig::FpCmp:
    case OperandSig::Mtc1:
    case OperandSig::FpMem:
    case OperandSig::FpBr:
      return 0;
  }
  return 0;
}

inline unsigned DecodedInst::src1() const {
  switch (info().sig) {
    case OperandSig::R3:
    case OperandSig::IArith:
    case OperandSig::Mem:
    case OperandSig::Br2:
    case OperandSig::Br1:
    case OperandSig::Rs:
    case OperandSig::RdRs:
    case OperandSig::RsRt:
    case OperandSig::ShiftVar:  // variable shifts read the amount from rs
      return rs;
    case OperandSig::Mtc1:
      return rt;  // GPR value moving into the FP file
    case OperandSig::FpMem:
      return rs;  // address base
    case OperandSig::ShiftImm:  // the shifted value lives in rt: see src2()
    case OperandSig::Rd:
    case OperandSig::NoOps:
    case OperandSig::Lui:
    case OperandSig::JTarget:
    case OperandSig::FpR3:
    case OperandSig::FpR2:
    case OperandSig::FpCmp:
    case OperandSig::Mfc1:
    case OperandSig::FpBr:
      return 0;
  }
  return 0;
}

inline unsigned DecodedInst::src2() const {
  switch (info().sig) {
    case OperandSig::R3:
    case OperandSig::Br2:
    case OperandSig::RsRt:
    case OperandSig::ShiftImm:
    case OperandSig::ShiftVar:
      return rt;
    case OperandSig::Mem:
      return is_store() ? rt : 0;  // store data
    default:
      return 0;
  }
}


// Decodes a raw 32-bit word. Returns nullopt for illegal encodings.
std::optional<DecodedInst> decode(u32 raw);

// Encodes a decoded instruction back to its 32-bit word (fills .raw too).
u32 encode(const DecodedInst& d);

// Builders used by the assembler, tests, and workload generators.
DecodedInst make_r3(Op op, unsigned rd, unsigned rs, unsigned rt);
DecodedInst make_shift_imm(Op op, unsigned rd, unsigned rt, unsigned shamt);
DecodedInst make_shift_var(Op op, unsigned rd, unsigned rt, unsigned rs);
DecodedInst make_iarith(Op op, unsigned rt, unsigned rs, u32 imm16);
DecodedInst make_lui(unsigned rt, u32 imm16);
DecodedInst make_mem(Op op, unsigned rt, unsigned rs, i32 offset);
DecodedInst make_br2(Op op, unsigned rs, unsigned rt, i32 offset_words);
DecodedInst make_br1(Op op, unsigned rs, i32 offset_words);
DecodedInst make_jump(Op op, u32 target_addr);
DecodedInst make_jr(unsigned rs);
DecodedInst make_jalr(unsigned rd, unsigned rs);
DecodedInst make_rsrt(Op op, unsigned rs, unsigned rt);
DecodedInst make_rd(Op op, unsigned rd);
DecodedInst make_syscall();
DecodedInst make_nop();
DecodedInst make_fp3(Op op, unsigned fd, unsigned fs, unsigned ft);
DecodedInst make_fp2(Op op, unsigned fd, unsigned fs);
DecodedInst make_fpcmp(Op op, unsigned fs, unsigned ft);
DecodedInst make_mfc1(unsigned rt, unsigned fs);
DecodedInst make_mtc1(unsigned rt, unsigned fs);
DecodedInst make_fpmem(Op op, unsigned ft, unsigned rs, i32 offset);
DecodedInst make_fpbr(Op op, i32 offset_words);

// Disassembles to "mnemonic operands"; pc is used to print branch targets.
std::string disassemble(const DecodedInst& d, u32 pc);

}  // namespace bsp
