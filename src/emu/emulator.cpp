#include "emu/emulator.hpp"

#include <cassert>
#include <cmath>
#include <cstring>

#include "emu/checkpoint.hpp"

namespace bsp {

void Emulator::load(const Program& program, const Checkpoint* start) {
  regs_.fill(0);
  fp_regs_.fill(0);
  fcc_ = false;
  hi_ = lo_ = 0;
  mem_ = SparseMemory();
  retired_ = 0;
  output_.clear();
  exited_ = false;
  exit_code_ = 0;

  assert(!decode(kUnfilled.raw));
  text_base_ = program.text_base;
  slots_.assign(program.text.size(), Slot{});
  fetch_ = FetchCache{};

  if (start) {
    restore_checkpoint(*this, *start);
    return;
  }
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

void Emulator::fill_slot(Slot& s, const DecodedInst& d, u32 pc) {
  s.inst = d;
  s.kind = FastKind::kStep;
  s.dest = static_cast<u8>(d.dest());
  s.s1 = static_cast<u8>(d.src1());
  s.s2 = static_cast<u8>(d.src2());
  s.imm = d.imm_value();
  switch (d.op) {
    case Op::ADD: case Op::ADDU: s.kind = FastKind::kAddu; break;
    case Op::SUB: case Op::SUBU: s.kind = FastKind::kSubu; break;
    case Op::AND: s.kind = FastKind::kAnd; break;
    case Op::OR:  s.kind = FastKind::kOr; break;
    case Op::XOR: s.kind = FastKind::kXor; break;
    case Op::NOR: s.kind = FastKind::kNor; break;
    case Op::SLT: s.kind = FastKind::kSlt; break;
    case Op::SLTU: s.kind = FastKind::kSltu; break;
    case Op::ADDI: case Op::ADDIU: s.kind = FastKind::kAddImm; break;
    case Op::SLTI: s.kind = FastKind::kSltImm; break;
    case Op::SLTIU: s.kind = FastKind::kSltuImm; break;
    case Op::ANDI: s.kind = FastKind::kAndImm; break;
    case Op::ORI:  s.kind = FastKind::kOrImm; break;
    case Op::XORI: s.kind = FastKind::kXorImm; break;
    case Op::LUI:  s.kind = FastKind::kLoadImm; break;
    case Op::SLL: s.kind = FastKind::kSllImm; s.imm = d.shamt; break;
    case Op::SRL: s.kind = FastKind::kSrlImm; s.imm = d.shamt; break;
    case Op::SRA: s.kind = FastKind::kSraImm; s.imm = d.shamt; break;
    case Op::SLLV: s.kind = FastKind::kSllv; break;
    case Op::SRLV: s.kind = FastKind::kSrlv; break;
    case Op::SRAV: s.kind = FastKind::kSrav; break;
    case Op::MULT: s.kind = FastKind::kMult; break;
    case Op::MULTU: s.kind = FastKind::kMultu; break;
    case Op::DIV: s.kind = FastKind::kDiv; break;
    case Op::DIVU: s.kind = FastKind::kDivu; break;
    case Op::MFHI: s.kind = FastKind::kMfhi; break;
    case Op::MFLO: s.kind = FastKind::kMflo; break;
    case Op::LB:  s.kind = FastKind::kLb; break;
    case Op::LBU: s.kind = FastKind::kLbu; break;
    case Op::LH:  s.kind = FastKind::kLh; break;
    case Op::LHU: s.kind = FastKind::kLhu; break;
    case Op::LW:  s.kind = FastKind::kLw; break;
    case Op::SB:  s.kind = FastKind::kSb; break;
    case Op::SH:  s.kind = FastKind::kSh; break;
    case Op::SW:  s.kind = FastKind::kSw; break;
    case Op::BEQ:  s.kind = FastKind::kBeq;  s.imm = d.branch_target(pc); break;
    case Op::BNE:  s.kind = FastKind::kBne;  s.imm = d.branch_target(pc); break;
    case Op::BLEZ: s.kind = FastKind::kBlez; s.imm = d.branch_target(pc); break;
    case Op::BGTZ: s.kind = FastKind::kBgtz; s.imm = d.branch_target(pc); break;
    case Op::BLTZ: s.kind = FastKind::kBltz; s.imm = d.branch_target(pc); break;
    case Op::BGEZ: s.kind = FastKind::kBgez; s.imm = d.branch_target(pc); break;
    case Op::J:    s.kind = FastKind::kJ;    s.imm = d.branch_target(pc); break;
    case Op::JAL:  s.kind = FastKind::kJal;  s.imm = d.branch_target(pc); break;
    case Op::JR:   s.kind = FastKind::kJr; break;
    case Op::JALR: s.kind = FastKind::kJalr; break;
    default: break;  // syscall, FP, LWC1/SWC1: kStep
  }
}

inline u32 Emulator::fetch(u32 pc, FetchCache& fc) const {
  const u32 page = pc & ~(SparseMemory::kPageSize - 1);
  if (page != fc.base) [[unlikely]] {
    const u8* bytes = mem_.page_bytes(pc);
    if (!bytes) return 0;  // an unmapped word reads as zero, like load_u32
    fc.page = bytes;
    fc.base = page;
  }
  u32 raw;
  std::memcpy(&raw, fc.page + (pc & (SparseMemory::kPageSize - 1)), 4);
  return raw;
}

bool Emulator::refill(Slot& s, u32 raw, u32 pc) {
  const auto decoded = decode(raw);
  if (!decoded) return false;
  fill_slot(s, *decoded, pc);
  return true;
}

template <bool kRecord>
[[gnu::always_inline]] inline bool Emulator::execute(const Slot& s, u32& pc,
                                                     ExecRecord* rec) {
  u32* const regs = regs_.data();
  // The record needs the source values as read before the instruction (a
  // handler may overwrite its own source), so they are read up front there;
  // the fast loop reads each one where a handler uses it.
  u32 r1 = 0, r2 = 0;
  if constexpr (kRecord) {
    r1 = regs[s.s1];
    r2 = regs[s.s2];
  }
  const auto v1 = [&] { return kRecord ? r1 : regs[s.s1]; };
  const auto v2 = [&] { return kRecord ? r2 : regs[s.s2]; };
  bool jump = false;  // control moves to `target`, not to pc + 4
  u32 target = 0;
  u32 a = 0;  // effective address of a load or store
  // Record-only facts stay in locals and reach *rec in one pass at the end,
  // so a refused instruction leaves the caller's record untouched.
  bool is_load = false, is_store = false, is_branch = false, taken = false;
  u32 load_value = 0, store_value = 0;
  unsigned bytes = 0;
  const auto set = [&](u32 v) {
    regs[s.dest] = v;
    regs[0] = 0;
  };
  const auto addr = [&](u32 align_mask) {
    a = v1() + s.imm;
    return (a & align_mask) == 0;
  };
  const auto load = [&](unsigned n, u32 v) {
    is_load = true;
    bytes = n;
    load_value = v;
    set(v);
  };
  const auto stored = [&](unsigned n, u32 v) {
    is_store = true;
    bytes = n;
    store_value = v;
  };
  const auto go = [&](u32 t) {
    jump = true;
    target = t;
  };
  const auto branch = [&](bool t) {
    is_branch = true;
    taken = t;
    if (t) go(s.imm);
  };
  switch (s.kind) {
    case FastKind::kAddu: set(v1() + v2()); break;
    case FastKind::kSubu: set(v1() - v2()); break;
    case FastKind::kAnd:  set(v1() & v2()); break;
    case FastKind::kOr:   set(v1() | v2()); break;
    case FastKind::kXor:  set(v1() ^ v2()); break;
    case FastKind::kNor:  set(~(v1() | v2())); break;
    case FastKind::kSlt:
      set(static_cast<i32>(v1()) < static_cast<i32>(v2()));
      break;
    case FastKind::kSltu: set(v1() < v2() ? 1 : 0); break;
    case FastKind::kAddImm: set(v1() + s.imm); break;
    case FastKind::kSltImm:
      set(static_cast<i32>(v1()) < static_cast<i32>(s.imm));
      break;
    case FastKind::kSltuImm: set(v1() < s.imm ? 1 : 0); break;
    case FastKind::kAndImm: set(v1() & s.imm); break;
    case FastKind::kOrImm:  set(v1() | s.imm); break;
    case FastKind::kXorImm: set(v1() ^ s.imm); break;
    case FastKind::kLoadImm: set(s.imm); break;
    // Shifts: v2() is the value (rt), v1() the variable amount (rs).
    case FastKind::kSllImm: set(v2() << s.imm); break;
    case FastKind::kSrlImm: set(v2() >> s.imm); break;
    case FastKind::kSraImm:
      set(static_cast<u32>(static_cast<i32>(v2()) >> s.imm));
      break;
    case FastKind::kSllv: set(v2() << (v1() & 31)); break;
    case FastKind::kSrlv: set(v2() >> (v1() & 31)); break;
    case FastKind::kSrav:
      set(static_cast<u32>(static_cast<i32>(v2()) >> (v1() & 31)));
      break;
    case FastKind::kMult: {
      const u64 p = static_cast<u64>(static_cast<i64>(static_cast<i32>(v1())) *
                                     static_cast<i64>(static_cast<i32>(v2())));
      lo_ = static_cast<u32>(p);
      hi_ = static_cast<u32>(p >> 32);
      break;
    }
    case FastKind::kMultu: {
      const u64 p = u64{v1()} * u64{v2()};
      lo_ = static_cast<u32>(p);
      hi_ = static_cast<u32>(p >> 32);
      break;
    }
    case FastKind::kDiv:
      if (v2() == 0) {
        lo_ = 0;  // division by zero is defined as 0, remainder v1()
        hi_ = v1();
      } else if (v1() == 0x80000000u && v2() == 0xffffffffu) {
        lo_ = 0x80000000u;  // INT_MIN / -1 wraps, as on MIPS
        hi_ = 0;
      } else {
        lo_ = static_cast<u32>(static_cast<i32>(v1()) / static_cast<i32>(v2()));
        hi_ = static_cast<u32>(static_cast<i32>(v1()) % static_cast<i32>(v2()));
      }
      break;
    case FastKind::kDivu:
      lo_ = v2() == 0 ? 0 : v1() / v2();
      hi_ = v2() == 0 ? v1() : v1() % v2();
      break;
    case FastKind::kMfhi: set(hi_); break;
    case FastKind::kMflo: set(lo_); break;
    // A misaligned access changes nothing here: step_slow() raises the
    // "misaligned load"/"misaligned store" fault.
    case FastKind::kLb:
      addr(0);
      load(1, sign_extend(mem_.load_u8(a), 8));
      break;
    case FastKind::kLbu:
      addr(0);
      load(1, mem_.load_u8(a));
      break;
    case FastKind::kLh:
      if (!addr(1)) return false;
      load(2, sign_extend(mem_.load_u16(a), 16));
      break;
    case FastKind::kLhu:
      if (!addr(1)) return false;
      load(2, mem_.load_u16(a));
      break;
    case FastKind::kLw:
      if (!addr(3)) return false;
      load(4, mem_.load_u32(a));
      break;
    case FastKind::kSb:
      addr(0);
      mem_.store_u8(a, static_cast<u8>(v2()));
      stored(1, v2() & 0xffu);
      break;
    case FastKind::kSh:
      if (!addr(1)) return false;
      mem_.store_u16(a, static_cast<u16>(v2()));
      stored(2, v2() & 0xffffu);
      break;
    case FastKind::kSw:
      if (!addr(3)) return false;
      mem_.store_u32(a, v2());
      stored(4, v2());
      break;
    case FastKind::kBeq: branch(v1() == v2()); break;
    case FastKind::kBne: branch(v1() != v2()); break;
    case FastKind::kBlez: branch(static_cast<i32>(v1()) <= 0); break;
    case FastKind::kBgtz: branch(static_cast<i32>(v1()) > 0); break;
    case FastKind::kBltz: branch(static_cast<i32>(v1()) < 0); break;
    case FastKind::kBgez: branch(static_cast<i32>(v1()) >= 0); break;
    case FastKind::kJ: go(s.imm); break;
    case FastKind::kJal: set(pc + 4); go(s.imm); break;
    case FastKind::kJr: go(v1()); break;
    case FastKind::kJalr:
      go(v1());  // read before a same-register link write
      set(pc + 4);
      break;
    case FastKind::kStep:
      return false;
  }
  const u32 next = jump ? target : pc + 4;
  if constexpr (kRecord) {
    rec->pc = pc;
    rec->inst = s.inst;
    rec->src1_value = r1;
    rec->src2_value = r2;
    rec->dest = s.dest;
    rec->dest_value = regs[s.dest];  // $zero when there is no GPR result
    rec->is_load = is_load;
    rec->is_store = is_store;
    rec->mem_addr = a;
    rec->mem_bytes = bytes;
    rec->store_value = store_value;
    rec->load_value = load_value;
    rec->is_cond_branch = is_branch;
    rec->branch_taken = taken;
    rec->next_pc = next;
  }
  pc = next;
  return true;
}

u32 alu_result(const DecodedInst& inst, u32 src1, u32 src2) {
  // The interpreter's own handler on a scratch register file: src1 in $1,
  // src2 in $2, the result in $3.
  Emulator emu;
  Emulator::Slot s;
  Emulator::fill_slot(s, inst, 0);
  assert(s.kind != Emulator::FastKind::kStep && "not a simple ALU op");
  s.s1 = 1;
  s.s2 = 2;
  s.dest = 3;
  emu.regs_[1] = src1;
  emu.regs_[2] = src2;
  u32 pc = 0;
  emu.execute<false>(s, pc, nullptr);
  return emu.regs_[3];
}

StepResult Emulator::step(ExecRecord* record) {
  if (exited_) {
    StepResult r;
    r.kind = StepResult::Kind::Exited;
    r.exit_code = exit_code_;
    return r;
  }
  if (pc_ % 4 != 0) return fault("misaligned pc");
  // A pc outside the table is predecoded into a local slot and runs
  // through the same interpreter.
  const u32 raw = fetch(pc_, fetch_);
  const u32 i = (pc_ - text_base_) >> 2;
  Slot local;
  Slot& s = i < slots_.size() ? slots_[i] : local;
  if (s.inst.raw != raw && !refill(s, raw, pc_))
    return fault("illegal instruction at pc");
  ExecRecord scratch;
  u32 pc = pc_;
  if (!execute<true>(s, pc, record ? record : &scratch))
    return step_slow(s, record);
  pc_ = pc;
  ++retired_;
  return {};
}

StepResult Emulator::step_slow(const Slot& s, ExecRecord* record) {
  const DecodedInst& d = s.inst;
  ExecRecord rec;
  rec.pc = pc_;
  rec.inst = d;
  rec.src1_value = regs_[s.s1];
  rec.src2_value = regs_[s.s2];
  rec.next_pc = pc_ + 4;
  StepResult result;
  switch (d.cls()) {
    case ExecClass::Load:
    case ExecClass::Store: {
      const u32 addr = rec.src1_value + s.imm;
      const unsigned n = d.mem_bytes();
      if (addr % n != 0)
        return fault(d.is_load() ? "misaligned load" : "misaligned store");
      // The integer core's accesses never get here aligned: this is the FP
      // word move, lwc1 or swc1.
      rec.mem_addr = addr;
      rec.mem_bytes = n;
      if (d.op == Op::LWC1) {
        const u32 v = mem_.load_u32(addr);
        fp_regs_[d.ft()] = v;
        rec.is_load = true;
        rec.load_value = v;
        rec.dest = kExtFpBase + d.ft();
        rec.dest_value = v;
      } else {
        const u32 v = fp_regs_[d.ft()];
        mem_.store_u32(addr, v);
        rec.is_store = true;
        rec.src2_value = v;
        rec.store_value = v;
      }
      break;
    }

    case ExecClass::FpAlu:
    case ExecClass::FpMul:
    case ExecClass::FpDiv:
    case ExecClass::FpSqrt:
      if (d.op == Op::MFC1) {
        rec.src1_value = fp_regs_[d.fs()];
        if (d.rt != 0) {
          regs_[d.rt] = rec.src1_value;
          rec.dest = d.rt;
          rec.dest_value = rec.src1_value;
        }
      } else if (d.op == Op::MTC1) {
        rec.src1_value = regs_[d.rt];
        fp_regs_[d.fs()] = rec.src1_value;
        rec.dest = kExtFpBase + d.fs();
        rec.dest_value = rec.src1_value;
      } else {
        rec.src1_value = fp_regs_[d.fs()];
        rec.src2_value = fp_regs_[d.ft()];
        const u32 v = fp_alu_result(d, rec.src1_value, rec.src2_value);
        fp_regs_[d.fd()] = v;
        rec.dest = kExtFpBase + d.fd();
        rec.dest_value = v;
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

    default:
      // Only an unfilled slot gets here: the fetched word matched its tag,
      // the illegal word kUnfilled.raw.
      return fault("illegal instruction at pc");
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

u64 Emulator::run_fast(u64 max_instructions, StepResult* final_result) {
  StepResult last;
  if (exited_) {
    last.kind = StepResult::Kind::Exited;
    last.exit_code = exit_code_;
    if (final_result) *final_result = last;
    return 0;
  }
  // pc and the fetch cache live in locals; retired_ is always the entry
  // count plus n, so only n is kept.
  const u64 retired = retired_;
  u64 n = 0;
  u32 pc = pc_;
  FetchCache fc = fetch_;
  Slot* const slots = slots_.data();
  const u32 base = text_base_;
  const u32 nslots = static_cast<u32>(slots_.size());
  while (n < max_instructions) {
    const u32 i = (pc - base) >> 2;
    if ((pc & 3u) == 0 && i < nslots) {
      const u32 raw = fetch(pc, fc);
      Slot& s = slots[i];
      if ((s.inst.raw == raw || refill(s, raw, pc)) &&
          execute<false>(s, pc, nullptr)) {
        ++n;
        continue;
      }
    }
    // Anything else — a misaligned or out-of-table pc, an illegal word, a
    // syscall, FP, a faulting access — is one step(), which owns output,
    // exit state and fault strings.
    pc_ = pc;
    retired_ = retired + n;
    fetch_ = fc;
    last = step();
    if (!last.ok()) {  // step() left pc_, retired_ and fetch_ current
      if (final_result) *final_result = last;
      return n;
    }
    pc = pc_;
    fc = fetch_;
    ++n;
  }
  pc_ = pc;
  retired_ = retired + n;
  fetch_ = fc;
  if (final_result) *final_result = last;
  return n;
}

}  // namespace bsp
