// Functional (architectural-state) emulator for BSP-32.
//
// Three consumers:
//   * the golden reference the timing core co-simulates against at commit,
//   * the producer of dynamic traces for the characterisation studies
//     (Figures 2, 4, 6),
//   * standalone program execution for tests, examples and workload bring-up.
//
// One interpreter serves all three: a predecoded slot table with a dense
// per-opcode dispatch. step() runs its recording instantiation, one
// instruction with a full ExecRecord of its architectural effects (also the
// trace record format); run_fast() runs the non-recording one in a loop.
// BENCH_simcore.json records both rates.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "emu/memory.hpp"
#include "isa/isa.hpp"

namespace bsp {

// System calls ($v0 selects; arguments in $a0).
enum Syscall : u32 {
  SYS_PRINT_INT = 1,
  SYS_PRINT_CHAR = 11,
  SYS_EXIT = 10,
};

// Everything one dynamic instruction did. Kept plain so millions of them can
// be buffered cheaply by the trace layer.
struct ExecRecord {
  u32 pc = 0;
  DecodedInst inst;

  u32 src1_value = 0;  // value read for src1() (0 if unused)
  u32 src2_value = 0;

  unsigned dest = 0;   // architectural dest reg (0 = none)
  u32 dest_value = 0;

  bool is_load = false;
  bool is_store = false;
  u32 mem_addr = 0;
  unsigned mem_bytes = 0;
  u32 store_value = 0;  // value written (stores only)
  u32 load_value = 0;   // value read (loads only)

  bool is_cond_branch = false;
  bool branch_taken = false;
  u32 next_pc = 0;      // actual successor PC
};

struct Checkpoint;  // emu/checkpoint.hpp

struct StepResult {
  enum class Kind { Ok, Exited, Fault } kind = Kind::Ok;
  int exit_code = 0;
  std::string fault;  // decode failure / misalignment description

  bool ok() const { return kind == Kind::Ok; }
  bool exited() const { return kind == Kind::Exited; }
};

class Emulator {
 public:
  Emulator() = default;
  explicit Emulator(const Program& program,
                    const Checkpoint* start = nullptr) {
    load(program, start);
  }

  // Resets all state and installs the program image. With `start`, memory
  // and registers come from that checkpoint alone (it holds every page of
  // the image it was captured from, so `program` must be that image), and
  // only the text's decode slots come from `program`: the image itself is
  // never copied.
  void load(const Program& program, const Checkpoint* start = nullptr);

  // Executes the instruction at pc(); fills `record` (may be null).
  StepResult step(ExecRecord* record = nullptr);

  // Runs until exit/fault or `max_instructions`. Returns instructions run.
  u64 run(u64 max_instructions, StepResult* final_result = nullptr);

  // Fast-forward engine: architecturally identical to run(), with no
  // ExecRecord built and pc kept in a local across instructions. Syscalls,
  // FP, pcs outside the text image and faults take one step(), so output,
  // exit and fault behaviour — down to the fault string — match a step()
  // loop bit for bit.
  u64 run_fast(u64 max_instructions, StepResult* final_result = nullptr);

  u32 pc() const { return pc_; }
  void set_pc(u32 pc) { pc_ = pc; }
  u32 reg(unsigned i) const { return regs_[i]; }
  void set_reg(unsigned i, u32 v) { if (i != 0) regs_[i] = v; }
  u32 hi() const { return hi_; }
  u32 lo() const { return lo_; }
  void set_hi(u32 v) { hi_ = v; }
  void set_lo(u32 v) { lo_ = v; }
  void set_retired(u64 n) { retired_ = n; }

  // Floating-point state: $f0..$f31 as raw single-precision bits, plus the
  // condition flag written by c.eq/lt/le.s and read by bc1f/bc1t.
  u32 fp_reg(unsigned i) const { return fp_regs_[i]; }
  void set_fp_reg(unsigned i, u32 bits) { fp_regs_[i] = bits; }
  bool fcc() const { return fcc_; }
  void set_fcc(bool v) { fcc_ = v; }
  SparseMemory& memory() { return mem_; }
  const SparseMemory& memory() const { return mem_; }

  u64 instructions_retired() const { return retired_; }
  const std::string& output() const { return output_; }
  bool exited() const { return exited_; }
  int exit_code() const { return exit_code_; }

 private:
  StepResult fault(const std::string& why) {
    StepResult r;
    r.kind = StepResult::Kind::Fault;
    r.fault = why;
    return r;
  }

  // Predecoded slot table over the text image, indexed by pc: one dense
  // opcode kind plus the fields its handler needs, with immediates
  // pre-extended and branch/jump targets pre-resolved (a slot's pc is
  // fixed, so its target is too), and the DecodedInst the ExecRecord and
  // the slow path read. `inst.raw` tags the slot: a code write misses the
  // tag and re-predecodes, keeping self-modifying code exact.
  enum class FastKind : u8 {
    kStep,  // syscall / FP: executed by step_slow()
    kAddu, kSubu, kAnd, kOr, kXor, kNor, kSlt, kSltu,
    kAddImm, kSltImm, kSltuImm, kAndImm, kOrImm, kXorImm, kLoadImm,
    kSllImm, kSrlImm, kSraImm, kSllv, kSrlv, kSrav,
    kMult, kMultu, kDiv, kDivu, kMfhi, kMflo,
    kLb, kLbu, kLh, kLhu, kLw, kSb, kSh, kSw,
    kBeq, kBne, kBlez, kBgtz, kBltz, kBgez,
    kJ, kJal, kJr, kJalr,
  };
  // Tag of a slot never filled: a word decode() rejects (opcode 0x3f). A
  // fetch of that word hits the slot, and step_slow() reports it illegal.
  static constexpr DecodedInst kUnfilled{.raw = 0xffffffffu};
  struct Slot {
    FastKind kind = FastKind::kStep;
    u8 dest = 0, s1 = 0, s2 = 0;
    u32 imm = 0;  // extended immediate, shift amount, or absolute target pc
    DecodedInst inst = kUnfilled;
  };
  u32 text_base_ = 0;
  std::vector<Slot> slots_;

  // Instruction-fetch page cache: the current text page's bytes, so a fetch
  // skips SparseMemory's page directory. Only mapped pages are cached (a
  // store can map a page later); a mapped page's storage never moves while
  // mem_ lives.
  struct FetchCache {
    const u8* page = nullptr;
    u32 base = 1;  // never page-aligned, so the first fetch misses
  };
  FetchCache fetch_;

  // Predecodes `d` at `pc` into `s`.
  static void fill_slot(Slot& s, const DecodedInst& d, u32 pc);
  // Predecodes `raw` at `pc` into `s`; false when decode() rejects it.
  static bool refill(Slot& s, u32 raw, u32 pc);
  u32 fetch(u32 pc, FetchCache& fc) const;

  // The one interpreter for the integer core: executes `s` at `pc`,
  // advancing `pc`, and with kRecord fills `*rec`. Returns false, having
  // changed nothing, for what step_slow() owns: FP, syscalls and faulting
  // accesses.
  template <bool kRecord>
  bool execute(const Slot& s, u32& pc, ExecRecord* rec);
  StepResult step_slow(const Slot& s, ExecRecord* record);

  friend u32 alu_result(const DecodedInst& inst, u32 src1, u32 src2);

  std::array<u32, kNumRegs> regs_{};
  std::array<u32, 32> fp_regs_{};
  bool fcc_ = false;
  u32 hi_ = 0, lo_ = 0;
  u32 pc_ = 0;
  SparseMemory mem_;
  u64 retired_ = 0;
  std::string output_;
  bool exited_ = false;
  int exit_code_ = 0;
};

// Evaluates a conditional branch's outcome from its operand values; shared
// with the timing core so both sides use identical semantics.
bool branch_outcome(const DecodedInst& inst, u32 src1, u32 src2);

// Pure ALU result for non-memory, non-control ops (shared with the sliced
// datapath verification tests), computed by the interpreter's own handler.
// `src1`/`src2` follow DecodedInst::src1/src2 conventions; imm handled
// internally.
u32 alu_result(const DecodedInst& inst, u32 src1, u32 src2);

// FP datapath results over raw single-precision bits (host IEEE-754).
u32 fp_alu_result(const DecodedInst& inst, u32 fs_bits, u32 ft_bits);
bool fp_compare_result(const DecodedInst& inst, u32 fs_bits, u32 ft_bits);

}  // namespace bsp
