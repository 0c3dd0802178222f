#include "isa/isa.hpp"

#include <cassert>
#include <cctype>
#include <cstdio>
#include <map>

namespace bsp {

namespace {

constexpr std::array<std::string_view, kNumRegs> kRegNames = {
    "$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3",
    "$t0",   "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7",
    "$s0",   "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7",
    "$t8",   "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra"};

}  // namespace

constexpr std::array<OpInfo, kNumOps> kOpInfoTable = {{
#define BSP_OP(en, mn, fmt, opc, funct, cls, sig, imm)                     \
  OpInfo{Op::en,        mn,  InstFormat::fmt, opc, funct, ExecClass::cls, \
         OperandSig::sig, ImmKind::imm},
#include "isa/opcodes.def"
#undef BSP_OP
}};

std::string_view reg_name(unsigned i) {
  assert(i < kNumRegs);
  return kRegNames[i];
}

std::optional<unsigned> parse_reg(std::string_view s) {
  if (s.empty()) return std::nullopt;
  if (s.front() == '$') s.remove_prefix(1);
  if (s.empty()) return std::nullopt;
  // Numeric form.
  if (std::isdigit(static_cast<unsigned char>(s.front()))) {
    unsigned v = 0;
    for (char c : s) {
      if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
      v = v * 10 + static_cast<unsigned>(c - '0');
      if (v >= kNumRegs) return std::nullopt;
    }
    return v;
  }
  for (unsigned i = 0; i < kNumRegs; ++i) {
    if (kRegNames[i].substr(1) == s) return i;
  }
  return std::nullopt;
}

std::optional<unsigned> parse_fp_reg(std::string_view s) {
  if (s.empty()) return std::nullopt;
  if (s.front() == '$') s.remove_prefix(1);
  if (s.size() < 2 || s.front() != 'f') return std::nullopt;
  s.remove_prefix(1);
  unsigned v = 0;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    v = v * 10 + static_cast<unsigned>(c - '0');
    if (v >= 32) return std::nullopt;
  }
  return v;
}

std::optional<Op> op_from_mnemonic(std::string_view mnemonic) {
  static const std::map<std::string_view, Op> index = [] {
    std::map<std::string_view, Op> m;
    for (const auto& info : kOpInfoTable) m.emplace(info.mnemonic, info.op);
    return m;
  }();
  const auto it = index.find(mnemonic);
  if (it == index.end()) return std::nullopt;
  return it->second;
}

// ---------------------------------------------------------------------------
// DecodedInst accessors
// ---------------------------------------------------------------------------

u32 DecodedInst::imm_value() const {
  switch (info().imm) {
    case ImmKind::None: return 0;
    case ImmKind::Sign: return sign_extend(imm, 16);
    case ImmKind::Zero: return imm & 0xffffu;
    case ImmKind::Upper: return (imm & 0xffffu) << 16;
    case ImmKind::BranchOff: return sign_extend(imm, 16) << 2;
    case ImmKind::JumpTarget: return (imm & 0x03ffffffu) << 2;
  }
  return 0;
}

u32 DecodedInst::branch_target(u32 pc) const {
  switch (info().imm) {
    case ImmKind::BranchOff:
      return pc + 4 + imm_value();
    case ImmKind::JumpTarget:
      return ((pc + 4) & 0xf0000000u) | imm_value();
    default:
      return pc + 4;
  }
}

unsigned DecodedInst::mem_bytes() const {
  switch (op) {
    case Op::LB: case Op::LBU: case Op::SB: return 1;
    case Op::LH: case Op::LHU: case Op::SH: return 2;
    case Op::LW: case Op::SW: case Op::LWC1: case Op::SWC1: return 4;
    default: return 0;
  }
}

// ---------------------------------------------------------------------------
// Decode / encode
// ---------------------------------------------------------------------------

std::optional<DecodedInst> decode(u32 raw) {
  const u8 opcode = static_cast<u8>(bits(raw, 26, 6));
  const u8 rs = static_cast<u8>(bits(raw, 21, 5));
  const u8 rt = static_cast<u8>(bits(raw, 16, 5));
  const u8 rd = static_cast<u8>(bits(raw, 11, 5));
  const u8 shamt = static_cast<u8>(bits(raw, 6, 5));
  const u8 funct = static_cast<u8>(bits(raw, 0, 6));

  for (const auto& info : kOpInfoTable) {
    bool match = false;
    switch (info.format) {
      case InstFormat::R:
        match = opcode == 0 && info.funct == funct;
        break;
      case InstFormat::REGIMM:
        match = opcode == 0x01 && info.funct == rt;
        break;
      case InstFormat::FP_R:
        match = opcode == 0x11 && rs != 0x08 &&
                info.funct == static_cast<u16>((u16{rs} << 6) | funct);
        break;
      case InstFormat::FP_BC:
        match = opcode == 0x11 && rs == 0x08 && info.funct == rt;
        break;
      case InstFormat::I:
      case InstFormat::J:
        match = info.opcode == opcode;
        break;
    }
    if (!match) continue;

    DecodedInst d;
    d.op = info.op;
    d.raw = raw;
    switch (info.format) {
      case InstFormat::R:
      case InstFormat::FP_R:
        d.rs = rs; d.rt = rt; d.rd = rd; d.shamt = shamt;
        break;
      case InstFormat::REGIMM:
        d.rs = rs;
        d.imm = bits(raw, 0, 16);
        break;
      case InstFormat::FP_BC:
        d.imm = bits(raw, 0, 16);
        break;
      case InstFormat::I:
        d.rs = rs; d.rt = rt;
        d.imm = bits(raw, 0, 16);
        break;
      case InstFormat::J:
        d.imm = bits(raw, 0, 26);
        break;
    }
    return d;
  }
  return std::nullopt;
}

u32 encode(const DecodedInst& d) {
  const OpInfo& info = d.info();
  u32 raw = 0;
  switch (info.format) {
    case InstFormat::R:
      raw = (u32{d.rs} << 21) | (u32{d.rt} << 16) | (u32{d.rd} << 11) |
            (u32{d.shamt} << 6) | info.funct;
      break;
    case InstFormat::REGIMM:
      raw = (u32{0x01} << 26) | (u32{d.rs} << 21) | (u32{info.funct} << 16) |
            (d.imm & 0xffffu);
      break;
    case InstFormat::I:
      raw = (u32{info.opcode} << 26) | (u32{d.rs} << 21) | (u32{d.rt} << 16) |
            (d.imm & 0xffffu);
      break;
    case InstFormat::J:
      raw = (u32{info.opcode} << 26) | (d.imm & 0x03ffffffu);
      break;
    case InstFormat::FP_R:
      raw = (u32{0x11} << 26) | (static_cast<u32>(info.funct >> 6) << 21) |
            (u32{d.rt} << 16) | (u32{d.rd} << 11) | (u32{d.shamt} << 6) |
            (info.funct & 0x3fu);
      break;
    case InstFormat::FP_BC:
      raw = (u32{0x11} << 26) | (u32{0x08} << 21) | (u32{info.funct} << 16) |
            (d.imm & 0xffffu);
      break;
  }
  return raw;
}

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

namespace {
DecodedInst finish(DecodedInst d) {
  d.raw = encode(d);
  return d;
}
}  // namespace

DecodedInst make_r3(Op op, unsigned rd, unsigned rs, unsigned rt) {
  assert(op_info(op).sig == OperandSig::R3);
  DecodedInst d;
  d.op = op; d.rd = static_cast<u8>(rd);
  d.rs = static_cast<u8>(rs); d.rt = static_cast<u8>(rt);
  return finish(d);
}

DecodedInst make_shift_imm(Op op, unsigned rd, unsigned rt, unsigned shamt) {
  assert(op_info(op).sig == OperandSig::ShiftImm);
  DecodedInst d;
  d.op = op; d.rd = static_cast<u8>(rd); d.rt = static_cast<u8>(rt);
  d.shamt = static_cast<u8>(shamt & 31);
  return finish(d);
}

DecodedInst make_shift_var(Op op, unsigned rd, unsigned rt, unsigned rs) {
  assert(op_info(op).sig == OperandSig::ShiftVar);
  DecodedInst d;
  d.op = op; d.rd = static_cast<u8>(rd);
  d.rt = static_cast<u8>(rt); d.rs = static_cast<u8>(rs);
  return finish(d);
}

DecodedInst make_iarith(Op op, unsigned rt, unsigned rs, u32 imm16) {
  assert(op_info(op).sig == OperandSig::IArith);
  DecodedInst d;
  d.op = op; d.rt = static_cast<u8>(rt); d.rs = static_cast<u8>(rs);
  d.imm = imm16 & 0xffffu;
  return finish(d);
}

DecodedInst make_lui(unsigned rt, u32 imm16) {
  DecodedInst d;
  d.op = Op::LUI; d.rt = static_cast<u8>(rt);
  d.imm = imm16 & 0xffffu;
  return finish(d);
}

DecodedInst make_mem(Op op, unsigned rt, unsigned rs, i32 offset) {
  assert(op_info(op).sig == OperandSig::Mem);
  DecodedInst d;
  d.op = op; d.rt = static_cast<u8>(rt); d.rs = static_cast<u8>(rs);
  d.imm = static_cast<u32>(offset) & 0xffffu;
  return finish(d);
}

DecodedInst make_br2(Op op, unsigned rs, unsigned rt, i32 offset_words) {
  assert(op_info(op).sig == OperandSig::Br2);
  DecodedInst d;
  d.op = op; d.rs = static_cast<u8>(rs); d.rt = static_cast<u8>(rt);
  d.imm = static_cast<u32>(offset_words) & 0xffffu;
  return finish(d);
}

DecodedInst make_br1(Op op, unsigned rs, i32 offset_words) {
  assert(op_info(op).sig == OperandSig::Br1);
  DecodedInst d;
  d.op = op; d.rs = static_cast<u8>(rs);
  d.imm = static_cast<u32>(offset_words) & 0xffffu;
  return finish(d);
}

DecodedInst make_jump(Op op, u32 target_addr) {
  assert(op_info(op).sig == OperandSig::JTarget);
  DecodedInst d;
  d.op = op;
  d.imm = (target_addr >> 2) & 0x03ffffffu;
  return finish(d);
}

DecodedInst make_jr(unsigned rs) {
  DecodedInst d;
  d.op = Op::JR; d.rs = static_cast<u8>(rs);
  return finish(d);
}

DecodedInst make_jalr(unsigned rd, unsigned rs) {
  DecodedInst d;
  d.op = Op::JALR; d.rd = static_cast<u8>(rd); d.rs = static_cast<u8>(rs);
  return finish(d);
}

DecodedInst make_rsrt(Op op, unsigned rs, unsigned rt) {
  assert(op_info(op).sig == OperandSig::RsRt);
  DecodedInst d;
  d.op = op; d.rs = static_cast<u8>(rs); d.rt = static_cast<u8>(rt);
  return finish(d);
}

DecodedInst make_rd(Op op, unsigned rd) {
  assert(op_info(op).sig == OperandSig::Rd);
  DecodedInst d;
  d.op = op; d.rd = static_cast<u8>(rd);
  return finish(d);
}

DecodedInst make_syscall() {
  DecodedInst d;
  d.op = Op::SYSCALL;
  return finish(d);
}

DecodedInst make_nop() {
  DecodedInst d;
  d.op = Op::SLL;  // sll $0,$0,0 encodes as all-zero: the canonical nop
  return finish(d);
}

DecodedInst make_fp3(Op op, unsigned fd, unsigned fs, unsigned ft) {
  assert(op_info(op).sig == OperandSig::FpR3);
  DecodedInst d;
  d.op = op;
  d.shamt = static_cast<u8>(fd);
  d.rd = static_cast<u8>(fs);
  d.rt = static_cast<u8>(ft);
  return finish(d);
}

DecodedInst make_fp2(Op op, unsigned fd, unsigned fs) {
  assert(op_info(op).sig == OperandSig::FpR2);
  DecodedInst d;
  d.op = op;
  d.shamt = static_cast<u8>(fd);
  d.rd = static_cast<u8>(fs);
  return finish(d);
}

DecodedInst make_fpcmp(Op op, unsigned fs, unsigned ft) {
  assert(op_info(op).sig == OperandSig::FpCmp);
  DecodedInst d;
  d.op = op;
  d.rd = static_cast<u8>(fs);
  d.rt = static_cast<u8>(ft);
  return finish(d);
}

DecodedInst make_mfc1(unsigned rt, unsigned fs) {
  DecodedInst d;
  d.op = Op::MFC1;
  d.rt = static_cast<u8>(rt);
  d.rd = static_cast<u8>(fs);
  return finish(d);
}

DecodedInst make_mtc1(unsigned rt, unsigned fs) {
  DecodedInst d;
  d.op = Op::MTC1;
  d.rt = static_cast<u8>(rt);
  d.rd = static_cast<u8>(fs);
  return finish(d);
}

DecodedInst make_fpmem(Op op, unsigned ft, unsigned rs, i32 offset) {
  assert(op_info(op).sig == OperandSig::FpMem);
  DecodedInst d;
  d.op = op;
  d.rt = static_cast<u8>(ft);
  d.rs = static_cast<u8>(rs);
  d.imm = static_cast<u32>(offset) & 0xffffu;
  return finish(d);
}

DecodedInst make_fpbr(Op op, i32 offset_words) {
  assert(op_info(op).sig == OperandSig::FpBr);
  DecodedInst d;
  d.op = op;
  d.imm = static_cast<u32>(offset_words) & 0xffffu;
  return finish(d);
}

// ---------------------------------------------------------------------------
// Disassembler
// ---------------------------------------------------------------------------

std::string disassemble(const DecodedInst& d, u32 pc) {
  if (d.is_nop()) return "nop";
  const OpInfo& info = d.info();
  char buf[96];
  const auto r = [](unsigned i) { return kRegNames[i].data(); };
  switch (info.sig) {
    case OperandSig::R3:
      std::snprintf(buf, sizeof buf, "%s %s, %s, %s", info.mnemonic.data(),
                    r(d.rd), r(d.rs), r(d.rt));
      break;
    case OperandSig::ShiftImm:
      std::snprintf(buf, sizeof buf, "%s %s, %s, %u", info.mnemonic.data(),
                    r(d.rd), r(d.rt), d.shamt);
      break;
    case OperandSig::ShiftVar:
      std::snprintf(buf, sizeof buf, "%s %s, %s, %s", info.mnemonic.data(),
                    r(d.rd), r(d.rt), r(d.rs));
      break;
    case OperandSig::RsRt:
      std::snprintf(buf, sizeof buf, "%s %s, %s", info.mnemonic.data(),
                    r(d.rs), r(d.rt));
      break;
    case OperandSig::Rd:
      std::snprintf(buf, sizeof buf, "%s %s", info.mnemonic.data(), r(d.rd));
      break;
    case OperandSig::Rs:
      std::snprintf(buf, sizeof buf, "%s %s", info.mnemonic.data(), r(d.rs));
      break;
    case OperandSig::RdRs:
      std::snprintf(buf, sizeof buf, "%s %s, %s", info.mnemonic.data(),
                    r(d.rd), r(d.rs));
      break;
    case OperandSig::NoOps:
      std::snprintf(buf, sizeof buf, "%s", info.mnemonic.data());
      break;
    case OperandSig::IArith:
      std::snprintf(buf, sizeof buf, "%s %s, %s, %d", info.mnemonic.data(),
                    r(d.rt), r(d.rs),
                    info.imm == ImmKind::Zero
                        ? static_cast<i32>(d.imm & 0xffffu)
                        : static_cast<i32>(sign_extend(d.imm, 16)));
      break;
    case OperandSig::Lui:
      std::snprintf(buf, sizeof buf, "%s %s, 0x%x", info.mnemonic.data(),
                    r(d.rt), d.imm & 0xffffu);
      break;
    case OperandSig::Mem:
      std::snprintf(buf, sizeof buf, "%s %s, %d(%s)", info.mnemonic.data(),
                    r(d.rt), static_cast<i32>(sign_extend(d.imm, 16)),
                    r(d.rs));
      break;
    case OperandSig::Br2:
      std::snprintf(buf, sizeof buf, "%s %s, %s, 0x%x", info.mnemonic.data(),
                    r(d.rs), r(d.rt), d.branch_target(pc));
      break;
    case OperandSig::Br1:
      std::snprintf(buf, sizeof buf, "%s %s, 0x%x", info.mnemonic.data(),
                    r(d.rs), d.branch_target(pc));
      break;
    case OperandSig::JTarget:
      std::snprintf(buf, sizeof buf, "%s 0x%x", info.mnemonic.data(),
                    d.branch_target(pc));
      break;
    case OperandSig::FpR3:
      std::snprintf(buf, sizeof buf, "%s $f%u, $f%u, $f%u",
                    info.mnemonic.data(), d.fd(), d.fs(), d.ft());
      break;
    case OperandSig::FpR2:
      std::snprintf(buf, sizeof buf, "%s $f%u, $f%u", info.mnemonic.data(),
                    d.fd(), d.fs());
      break;
    case OperandSig::FpCmp:
      std::snprintf(buf, sizeof buf, "%s $f%u, $f%u", info.mnemonic.data(),
                    d.fs(), d.ft());
      break;
    case OperandSig::Mfc1:
    case OperandSig::Mtc1:
      std::snprintf(buf, sizeof buf, "%s %s, $f%u", info.mnemonic.data(),
                    r(d.rt), d.fs());
      break;
    case OperandSig::FpMem:
      std::snprintf(buf, sizeof buf, "%s $f%u, %d(%s)", info.mnemonic.data(),
                    d.ft(), static_cast<i32>(sign_extend(d.imm, 16)), r(d.rs));
      break;
    case OperandSig::FpBr:
      std::snprintf(buf, sizeof buf, "%s 0x%x", info.mnemonic.data(),
                    d.branch_target(pc));
      break;
  }
  return buf;
}

}  // namespace bsp
