#include "emu/emulator.hpp"

#include <cassert>
#include <cmath>
#include <cstring>

namespace bsp {

void Emulator::load(const Program& program) {
  regs_.fill(0);
  fp_regs_.fill(0);
  fcc_ = false;
  hi_ = lo_ = 0;
  mem_ = SparseMemory();
  retired_ = 0;
  output_.clear();
  exited_ = false;
  exit_code_ = 0;

  // Host and target are both little-endian, so the text words' bytes are
  // the image store_u32 would write one word at a time.
  mem_.write_block(program.text_base, program.text.data(),
                   program.text.size() * sizeof(u32));
  if (!program.data.empty())
    mem_.write_block(program.data_base, program.data.data(),
                     program.data.size());

  pc_ = program.entry;
  regs_[R_SP] = kDefaultStackTop;
  regs_[R_GP] = program.data_base;

  decode_base_ = program.text_base;
  decode_cache_.assign(program.text.size(), DecodeSlot{});
  fast_cache_.assign(program.text.size(), FastInst{});
}

bool branch_outcome(const DecodedInst& inst, u32 src1, u32 src2) {
  switch (inst.op) {
    case Op::BEQ:  return src1 == src2;
    case Op::BNE:  return src1 != src2;
    case Op::BLEZ: return static_cast<i32>(src1) <= 0;
    case Op::BGTZ: return static_cast<i32>(src1) > 0;
    case Op::BLTZ: return static_cast<i32>(src1) < 0;
    case Op::BGEZ: return static_cast<i32>(src1) >= 0;
    case Op::BC1T: return src1 != 0;  // src1 carries the FP condition flag
    case Op::BC1F: return src1 == 0;
    default:
      assert(false && "not a conditional branch");
      return false;
  }
}

namespace {

float as_float(u32 bits) {
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

u32 as_bits(float f) {
  u32 bits;
  std::memcpy(&bits, &f, sizeof bits);
  return bits;
}

}  // namespace

u32 fp_alu_result(const DecodedInst& inst, u32 fs_bits, u32 ft_bits) {
  const float a = as_float(fs_bits), b = as_float(ft_bits);
  switch (inst.op) {
    case Op::ADD_S: return as_bits(a + b);
    case Op::SUB_S: return as_bits(a - b);
    case Op::MUL_S: return as_bits(a * b);
    case Op::DIV_S: return as_bits(a / b);
    case Op::SQRT_S: return as_bits(std::sqrt(a));
    case Op::ABS_S: return fs_bits & 0x7fffffffu;
    case Op::NEG_S: return fs_bits ^ 0x80000000u;
    case Op::MOV_S: return fs_bits;
    case Op::CVT_S_W:
      return as_bits(static_cast<float>(static_cast<i32>(fs_bits)));
    case Op::CVT_W_S: {
      // Truncate toward zero; out-of-range saturates to INT_MAX, as MIPS
      // implementations commonly do.
      if (std::isnan(a) || a >= 2147483648.0f)
        return 0x7fffffffu;
      if (a <= -2147483904.0f) return 0x80000000u;
      return static_cast<u32>(static_cast<i32>(a));
    }
    default:
      assert(false && "not an FP ALU op");
      return 0;
  }
}

bool fp_compare_result(const DecodedInst& inst, u32 fs_bits, u32 ft_bits) {
  const float a = as_float(fs_bits), b = as_float(ft_bits);
  switch (inst.op) {
    case Op::C_EQ_S: return a == b;
    case Op::C_LT_S: return a < b;
    case Op::C_LE_S: return a <= b;
    default:
      assert(false && "not an FP compare");
      return false;
  }
}

u32 alu_result(const DecodedInst& inst, u32 src1, u32 src2) {
  const u32 imm = inst.imm_value();
  switch (inst.op) {
    case Op::ADD: case Op::ADDU: return src1 + src2;
    case Op::SUB: case Op::SUBU: return src1 - src2;
    case Op::AND: return src1 & src2;
    case Op::OR:  return src1 | src2;
    case Op::XOR: return src1 ^ src2;
    case Op::NOR: return ~(src1 | src2);
    case Op::SLT: return static_cast<i32>(src1) < static_cast<i32>(src2);
    case Op::SLTU: return src1 < src2 ? 1 : 0;
    case Op::ADDI: case Op::ADDIU: return src1 + imm;
    case Op::SLTI: return static_cast<i32>(src1) < static_cast<i32>(imm);
    case Op::SLTIU: return src1 < imm ? 1 : 0;
    case Op::ANDI: return src1 & imm;
    case Op::ORI:  return src1 | imm;
    case Op::XORI: return src1 ^ imm;
    case Op::LUI:  return imm;
    // Shifts: src2 carries the value (rt), src1 the variable amount (rs).
    case Op::SLL:  return src2 << inst.shamt;
    case Op::SRL:  return src2 >> inst.shamt;
    case Op::SRA:  return static_cast<u32>(static_cast<i32>(src2) >> inst.shamt);
    case Op::SLLV: return src2 << (src1 & 31);
    case Op::SRLV: return src2 >> (src1 & 31);
    case Op::SRAV:
      return static_cast<u32>(static_cast<i32>(src2) >> (src1 & 31));
    default:
      assert(false && "not a simple ALU op");
      return 0;
  }
}

StepResult Emulator::step(ExecRecord* record) {
  if (exited_) {
    StepResult r;
    r.kind = StepResult::Kind::Exited;
    r.exit_code = exit_code_;
    return r;
  }
  if (pc_ % 4 != 0) return fault("misaligned pc");

  const u32 raw = mem_.load_u32(pc_);
  const DecodedInst* dp;
  const u32 slot = (pc_ - decode_base_) / 4;
  std::optional<DecodedInst> decoded_local;
  if (pc_ >= decode_base_ && slot < decode_cache_.size()) {
    DecodeSlot& ds = decode_cache_[slot];
    if (!ds.filled || ds.raw != raw) {
      const auto decoded = decode(raw);
      if (!decoded) return fault("illegal instruction at pc");
      ds.raw = raw;
      ds.filled = true;
      ds.inst = *decoded;
    }
    dp = &ds.inst;
  } else {
    decoded_local = decode(raw);
    if (!decoded_local) return fault("illegal instruction at pc");
    dp = &*decoded_local;
  }
  const DecodedInst& d = *dp;

  ExecRecord rec;
  rec.pc = pc_;
  rec.inst = d;
  rec.src1_value = regs_[d.src1()];
  rec.src2_value = regs_[d.src2()];
  rec.next_pc = pc_ + 4;

  StepResult result;
  u32 dest_value = 0;
  unsigned dest = d.dest();

  switch (d.cls()) {
    case ExecClass::Logic:
    case ExecClass::Add:
    case ExecClass::ShiftLeft:
    case ExecClass::ShiftRight:
    case ExecClass::Compare:
      dest_value = alu_result(d, rec.src1_value, rec.src2_value);
      break;

    case ExecClass::Mul: {
      const u64 product =
          d.op == Op::MULT
              ? static_cast<u64>(static_cast<i64>(static_cast<i32>(rec.src1_value)) *
                                 static_cast<i64>(static_cast<i32>(rec.src2_value)))
              : u64{rec.src1_value} * u64{rec.src2_value};
      lo_ = static_cast<u32>(product);
      hi_ = static_cast<u32>(product >> 32);
      break;
    }
    case ExecClass::Div: {
      const u32 a = rec.src1_value, b = rec.src2_value;
      if (b == 0) {
        lo_ = 0;  // division by zero is defined as 0/0 remainder a
        hi_ = a;
      } else if (d.op == Op::DIV) {
        lo_ = static_cast<u32>(static_cast<i32>(a) / static_cast<i32>(b));
        hi_ = static_cast<u32>(static_cast<i32>(a) % static_cast<i32>(b));
      } else {
        lo_ = a / b;
        hi_ = a % b;
      }
      break;
    }
    case ExecClass::MfHiLo:
      dest_value = d.op == Op::MFHI ? hi_ : lo_;
      break;

    case ExecClass::FpAlu:
    case ExecClass::FpMul:
    case ExecClass::FpDiv:
    case ExecClass::FpSqrt:
      if (d.op == Op::MFC1) {
        rec.src1_value = fp_regs_[d.fs()];
        dest_value = rec.src1_value;  // generic tail writes the GPR
      } else if (d.op == Op::MTC1) {
        rec.src1_value = regs_[d.rt];
        fp_regs_[d.fs()] = rec.src1_value;
        rec.dest = kExtFpBase + d.fs();
        rec.dest_value = rec.src1_value;
      } else {
        rec.src1_value = fp_regs_[d.fs()];
        rec.src2_value = fp_regs_[d.ft()];
        const u32 result = fp_alu_result(d, rec.src1_value, rec.src2_value);
        fp_regs_[d.fd()] = result;
        rec.dest = kExtFpBase + d.fd();
        rec.dest_value = result;
      }
      break;

    case ExecClass::FpCompare:
      rec.src1_value = fp_regs_[d.fs()];
      rec.src2_value = fp_regs_[d.ft()];
      fcc_ = fp_compare_result(d, rec.src1_value, rec.src2_value);
      rec.dest = kExtFcc;
      rec.dest_value = fcc_ ? 1 : 0;
      break;

    case ExecClass::FpBranch:
      rec.src1_value = fcc_ ? 1 : 0;
      rec.is_cond_branch = true;
      rec.branch_taken = branch_outcome(d, rec.src1_value, 0);
      if (rec.branch_taken) rec.next_pc = d.branch_target(pc_);
      break;

    case ExecClass::Load: {
      const u32 addr = rec.src1_value + d.imm_value();
      const unsigned n = d.mem_bytes();
      if (addr % n != 0) return fault("misaligned load");
      u32 v = 0;
      if (n == 1) v = mem_.load_u8(addr);
      else if (n == 2) v = mem_.load_u16(addr);
      else v = mem_.load_u32(addr);
      if (d.mem_sign_extend() && d.op != Op::LWC1) v = sign_extend(v, n * 8);
      if (d.op == Op::LWC1) {
        fp_regs_[d.ft()] = v;
        rec.dest = kExtFpBase + d.ft();
        rec.dest_value = v;
      } else {
        dest_value = v;
      }
      rec.is_load = true;
      rec.mem_addr = addr;
      rec.mem_bytes = n;
      rec.load_value = v;
      break;
    }
    case ExecClass::Store: {
      const u32 addr = rec.src1_value + d.imm_value();
      const unsigned n = d.mem_bytes();
      if (addr % n != 0) return fault("misaligned store");
      if (d.op == Op::SWC1) rec.src2_value = fp_regs_[d.ft()];
      const u32 v = rec.src2_value;
      if (n == 1) mem_.store_u8(addr, static_cast<u8>(v));
      else if (n == 2) mem_.store_u16(addr, static_cast<u16>(v));
      else mem_.store_u32(addr, v);
      rec.is_store = true;
      rec.mem_addr = addr;
      rec.mem_bytes = n;
      rec.store_value = n == 4 ? v : (v & low_mask(n * 8));
      break;
    }

    case ExecClass::BranchEq:
    case ExecClass::BranchSign: {
      rec.is_cond_branch = true;
      rec.branch_taken = branch_outcome(d, rec.src1_value, rec.src2_value);
      if (rec.branch_taken) rec.next_pc = d.branch_target(pc_);
      break;
    }
    case ExecClass::Jump:
      rec.next_pc = d.branch_target(pc_);
      if (d.op == Op::JAL) dest_value = pc_ + 4;
      break;
    case ExecClass::JumpReg:
      rec.next_pc = rec.src1_value;
      if (d.op == Op::JALR) dest_value = pc_ + 4;
      break;

    case ExecClass::Syscall: {
      const u32 code = regs_[R_V0];
      const u32 arg = regs_[R_A0];
      switch (code) {
        case SYS_PRINT_INT:
          output_ += std::to_string(static_cast<i32>(arg));
          break;
        case SYS_PRINT_CHAR:
          output_ += static_cast<char>(arg & 0xff);
          break;
        case SYS_EXIT:
          exited_ = true;
          exit_code_ = static_cast<int>(arg);
          result.kind = StepResult::Kind::Exited;
          result.exit_code = exit_code_;
          break;
        default:
          return fault("unknown syscall " + std::to_string(code));
      }
      break;
    }
  }

  if (dest != 0) {
    regs_[dest] = dest_value;
    rec.dest = dest;
    rec.dest_value = dest_value;
  }
  pc_ = rec.next_pc;
  ++retired_;
  if (record) *record = rec;
  return result;
}

u64 Emulator::run(u64 max_instructions, StepResult* final_result) {
  u64 n = 0;
  StepResult r;
  while (n < max_instructions) {
    r = step();
    if (!r.ok()) break;
    ++n;
  }
  if (final_result) *final_result = r;
  return n;
}

bool Emulator::fill_fast_slot(FastInst& fi, u32 raw, u32 pc) {
  const auto decoded = decode(raw);
  if (!decoded) return false;
  const DecodedInst& d = *decoded;
  fi.raw = raw;
  fi.kind = FastKind::kStep;
  fi.dest = static_cast<u8>(d.dest());
  fi.s1 = static_cast<u8>(d.src1());
  fi.s2 = static_cast<u8>(d.src2());
  fi.imm = d.imm_value();
  switch (d.op) {
    case Op::ADD: case Op::ADDU: fi.kind = FastKind::kAddu; break;
    case Op::SUB: case Op::SUBU: fi.kind = FastKind::kSubu; break;
    case Op::AND: fi.kind = FastKind::kAnd; break;
    case Op::OR:  fi.kind = FastKind::kOr; break;
    case Op::XOR: fi.kind = FastKind::kXor; break;
    case Op::NOR: fi.kind = FastKind::kNor; break;
    case Op::SLT: fi.kind = FastKind::kSlt; break;
    case Op::SLTU: fi.kind = FastKind::kSltu; break;
    case Op::ADDI: case Op::ADDIU: fi.kind = FastKind::kAddImm; break;
    case Op::SLTI: fi.kind = FastKind::kSltImm; break;
    case Op::SLTIU: fi.kind = FastKind::kSltuImm; break;
    case Op::ANDI: fi.kind = FastKind::kAndImm; break;
    case Op::ORI:  fi.kind = FastKind::kOrImm; break;
    case Op::XORI: fi.kind = FastKind::kXorImm; break;
    case Op::LUI:  fi.kind = FastKind::kLoadImm; break;
    case Op::SLL:
      fi.kind = raw == 0 ? FastKind::kNop : FastKind::kSllImm;
      fi.imm = d.shamt;
      break;
    case Op::SRL: fi.kind = FastKind::kSrlImm; fi.imm = d.shamt; break;
    case Op::SRA: fi.kind = FastKind::kSraImm; fi.imm = d.shamt; break;
    case Op::SLLV: fi.kind = FastKind::kSllv; break;
    case Op::SRLV: fi.kind = FastKind::kSrlv; break;
    case Op::SRAV: fi.kind = FastKind::kSrav; break;
    case Op::MULT: fi.kind = FastKind::kMult; break;
    case Op::MULTU: fi.kind = FastKind::kMultu; break;
    case Op::DIV: fi.kind = FastKind::kDiv; break;
    case Op::DIVU: fi.kind = FastKind::kDivu; break;
    case Op::MFHI: fi.kind = FastKind::kMfhi; break;
    case Op::MFLO: fi.kind = FastKind::kMflo; break;
    case Op::LB:  fi.kind = FastKind::kLb; break;
    case Op::LBU: fi.kind = FastKind::kLbu; break;
    case Op::LH:  fi.kind = FastKind::kLh; break;
    case Op::LHU: fi.kind = FastKind::kLhu; break;
    case Op::LW:  fi.kind = FastKind::kLw; break;
    case Op::SB:  fi.kind = FastKind::kSb; break;
    case Op::SH:  fi.kind = FastKind::kSh; break;
    case Op::SW:  fi.kind = FastKind::kSw; break;
    case Op::BEQ:  fi.kind = FastKind::kBeq;  fi.imm = d.branch_target(pc); break;
    case Op::BNE:  fi.kind = FastKind::kBne;  fi.imm = d.branch_target(pc); break;
    case Op::BLEZ: fi.kind = FastKind::kBlez; fi.imm = d.branch_target(pc); break;
    case Op::BGTZ: fi.kind = FastKind::kBgtz; fi.imm = d.branch_target(pc); break;
    case Op::BLTZ: fi.kind = FastKind::kBltz; fi.imm = d.branch_target(pc); break;
    case Op::BGEZ: fi.kind = FastKind::kBgez; fi.imm = d.branch_target(pc); break;
    case Op::J:    fi.kind = FastKind::kJ;    fi.imm = d.branch_target(pc); break;
    case Op::JAL:  fi.kind = FastKind::kJal;  fi.imm = d.branch_target(pc); break;
    case Op::JR:   fi.kind = FastKind::kJr; break;
    case Op::JALR: fi.kind = FastKind::kJalr; break;
    default: break;  // syscall, FP, LWC1/SWC1, ...: kStep
  }
  return true;
}

u64 Emulator::run_fast(u64 max_instructions, StepResult* final_result) {
  StepResult last;
  if (exited_) {
    last.kind = StepResult::Kind::Exited;
    last.exit_code = exit_code_;
    if (final_result) *final_result = last;
    return 0;
  }
  if (fast_cache_.size() != decode_cache_.size())
    fast_cache_.assign(decode_cache_.size(), FastInst{});

  u64 n = 0;
  u32 pc = pc_;
  u64 retired = retired_;
  u32* const regs = regs_.data();
  const u32 base = decode_base_;
  const u32 nslots = static_cast<u32>(fast_cache_.size());
  // Instruction-fetch page cache, separate from SparseMemory's data-access
  // cache. Only non-null pointers may be cached (a store can allocate a
  // page later); a mapped page's storage never moves.
  const u8* ipage = nullptr;
  u32 ipage_base = 1;  // never page-aligned, so the first fetch misses

  while (n < max_instructions) {
    if ((pc & 3u) == 0 && (pc - base) >> 2 < nslots) {
      const u32 page = pc & ~(SparseMemory::kPageSize - 1);
      if (page != ipage_base) {
        ipage = mem_.page_bytes(pc);
        if (ipage) ipage_base = page;
      }
      u32 raw = 0;
      if (ipage && page == ipage_base)
        std::memcpy(&raw, ipage + (pc & (SparseMemory::kPageSize - 1)), 4);
      FastInst& fi = fast_cache_[(pc - base) >> 2];
      if (fi.kind == FastKind::kUnfilled || fi.raw != raw)
        if (!fill_fast_slot(fi, raw, pc)) goto slow_path;
      switch (fi.kind) {
        case FastKind::kNop: pc += 4; break;
        case FastKind::kAddu: regs[fi.dest] = regs[fi.s1] + regs[fi.s2]; regs[0] = 0; pc += 4; break;
        case FastKind::kSubu: regs[fi.dest] = regs[fi.s1] - regs[fi.s2]; regs[0] = 0; pc += 4; break;
        case FastKind::kAnd:  regs[fi.dest] = regs[fi.s1] & regs[fi.s2]; regs[0] = 0; pc += 4; break;
        case FastKind::kOr:   regs[fi.dest] = regs[fi.s1] | regs[fi.s2]; regs[0] = 0; pc += 4; break;
        case FastKind::kXor:  regs[fi.dest] = regs[fi.s1] ^ regs[fi.s2]; regs[0] = 0; pc += 4; break;
        case FastKind::kNor:  regs[fi.dest] = ~(regs[fi.s1] | regs[fi.s2]); regs[0] = 0; pc += 4; break;
        case FastKind::kSlt:
          regs[fi.dest] = static_cast<i32>(regs[fi.s1]) < static_cast<i32>(regs[fi.s2]);
          regs[0] = 0; pc += 4; break;
        case FastKind::kSltu: regs[fi.dest] = regs[fi.s1] < regs[fi.s2] ? 1 : 0; regs[0] = 0; pc += 4; break;
        case FastKind::kAddImm: regs[fi.dest] = regs[fi.s1] + fi.imm; regs[0] = 0; pc += 4; break;
        case FastKind::kSltImm:
          regs[fi.dest] = static_cast<i32>(regs[fi.s1]) < static_cast<i32>(fi.imm);
          regs[0] = 0; pc += 4; break;
        case FastKind::kSltuImm: regs[fi.dest] = regs[fi.s1] < fi.imm ? 1 : 0; regs[0] = 0; pc += 4; break;
        case FastKind::kAndImm: regs[fi.dest] = regs[fi.s1] & fi.imm; regs[0] = 0; pc += 4; break;
        case FastKind::kOrImm:  regs[fi.dest] = regs[fi.s1] | fi.imm; regs[0] = 0; pc += 4; break;
        case FastKind::kXorImm: regs[fi.dest] = regs[fi.s1] ^ fi.imm; regs[0] = 0; pc += 4; break;
        case FastKind::kLoadImm: regs[fi.dest] = fi.imm; regs[0] = 0; pc += 4; break;
        case FastKind::kSllImm: regs[fi.dest] = regs[fi.s2] << fi.imm; regs[0] = 0; pc += 4; break;
        case FastKind::kSrlImm: regs[fi.dest] = regs[fi.s2] >> fi.imm; regs[0] = 0; pc += 4; break;
        case FastKind::kSraImm:
          regs[fi.dest] = static_cast<u32>(static_cast<i32>(regs[fi.s2]) >> fi.imm);
          regs[0] = 0; pc += 4; break;
        case FastKind::kSllv: regs[fi.dest] = regs[fi.s2] << (regs[fi.s1] & 31); regs[0] = 0; pc += 4; break;
        case FastKind::kSrlv: regs[fi.dest] = regs[fi.s2] >> (regs[fi.s1] & 31); regs[0] = 0; pc += 4; break;
        case FastKind::kSrav:
          regs[fi.dest] = static_cast<u32>(static_cast<i32>(regs[fi.s2]) >> (regs[fi.s1] & 31));
          regs[0] = 0; pc += 4; break;
        case FastKind::kMult: {
          const u64 p = static_cast<u64>(
              static_cast<i64>(static_cast<i32>(regs[fi.s1])) *
              static_cast<i64>(static_cast<i32>(regs[fi.s2])));
          lo_ = static_cast<u32>(p);
          hi_ = static_cast<u32>(p >> 32);
          pc += 4; break;
        }
        case FastKind::kMultu: {
          const u64 p = u64{regs[fi.s1]} * u64{regs[fi.s2]};
          lo_ = static_cast<u32>(p);
          hi_ = static_cast<u32>(p >> 32);
          pc += 4; break;
        }
        case FastKind::kDiv: {
          const u32 a = regs[fi.s1], b = regs[fi.s2];
          if (b == 0) {
            lo_ = 0;
            hi_ = a;
          } else {
            lo_ = static_cast<u32>(static_cast<i32>(a) / static_cast<i32>(b));
            hi_ = static_cast<u32>(static_cast<i32>(a) % static_cast<i32>(b));
          }
          pc += 4; break;
        }
        case FastKind::kDivu: {
          const u32 a = regs[fi.s1], b = regs[fi.s2];
          if (b == 0) {
            lo_ = 0;
            hi_ = a;
          } else {
            lo_ = a / b;
            hi_ = a % b;
          }
          pc += 4; break;
        }
        case FastKind::kMfhi: regs[fi.dest] = hi_; regs[0] = 0; pc += 4; break;
        case FastKind::kMflo: regs[fi.dest] = lo_; regs[0] = 0; pc += 4; break;
        case FastKind::kLb: {
          const u32 a = regs[fi.s1] + fi.imm;
          regs[fi.dest] = sign_extend(mem_.load_u8(a), 8);
          regs[0] = 0; pc += 4; break;
        }
        case FastKind::kLbu: {
          const u32 a = regs[fi.s1] + fi.imm;
          regs[fi.dest] = mem_.load_u8(a);
          regs[0] = 0; pc += 4; break;
        }
        case FastKind::kLh: {
          const u32 a = regs[fi.s1] + fi.imm;
          if (a & 1u) goto slow_path;  // exact "misaligned load" fault
          regs[fi.dest] = sign_extend(mem_.load_u16(a), 16);
          regs[0] = 0; pc += 4; break;
        }
        case FastKind::kLhu: {
          const u32 a = regs[fi.s1] + fi.imm;
          if (a & 1u) goto slow_path;
          regs[fi.dest] = mem_.load_u16(a);
          regs[0] = 0; pc += 4; break;
        }
        case FastKind::kLw: {
          const u32 a = regs[fi.s1] + fi.imm;
          if (a & 3u) goto slow_path;
          regs[fi.dest] = mem_.load_u32(a);
          regs[0] = 0; pc += 4; break;
        }
        case FastKind::kSb:
          mem_.store_u8(regs[fi.s1] + fi.imm, static_cast<u8>(regs[fi.s2]));
          pc += 4; break;
        case FastKind::kSh: {
          const u32 a = regs[fi.s1] + fi.imm;
          if (a & 1u) goto slow_path;
          mem_.store_u16(a, static_cast<u16>(regs[fi.s2]));
          pc += 4; break;
        }
        case FastKind::kSw: {
          const u32 a = regs[fi.s1] + fi.imm;
          if (a & 3u) goto slow_path;
          mem_.store_u32(a, regs[fi.s2]);
          pc += 4; break;
        }
        case FastKind::kBeq: pc = regs[fi.s1] == regs[fi.s2] ? fi.imm : pc + 4; break;
        case FastKind::kBne: pc = regs[fi.s1] != regs[fi.s2] ? fi.imm : pc + 4; break;
        case FastKind::kBlez: pc = static_cast<i32>(regs[fi.s1]) <= 0 ? fi.imm : pc + 4; break;
        case FastKind::kBgtz: pc = static_cast<i32>(regs[fi.s1]) > 0 ? fi.imm : pc + 4; break;
        case FastKind::kBltz: pc = static_cast<i32>(regs[fi.s1]) < 0 ? fi.imm : pc + 4; break;
        case FastKind::kBgez: pc = static_cast<i32>(regs[fi.s1]) >= 0 ? fi.imm : pc + 4; break;
        case FastKind::kJ: pc = fi.imm; break;
        case FastKind::kJal: regs[fi.dest] = pc + 4; regs[0] = 0; pc = fi.imm; break;
        case FastKind::kJr: pc = regs[fi.s1]; break;
        case FastKind::kJalr: {
          const u32 target = regs[fi.s1];  // read before a same-reg link write
          regs[fi.dest] = pc + 4;
          regs[0] = 0;
          pc = target;
          break;
        }
        case FastKind::kStep:
        case FastKind::kUnfilled:
          goto slow_path;
      }
      ++retired;
      ++n;
      continue;
    }
  slow_path:
    // Anything the fast loop doesn't handle inline — misaligned or
    // out-of-window pc, syscalls, FP, faults — is one exact step(), which
    // also owns output, exit state and fault strings.
    pc_ = pc;
    retired_ = retired;
    last = step();
    pc = pc_;
    retired = retired_;
    if (!last.ok()) break;
    ++n;
  }
  pc_ = pc;
  retired_ = retired;
  if (final_result) *final_result = last;
  return n;
}

}  // namespace bsp
