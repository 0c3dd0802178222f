// bsp-run: execute a program (source or object file) on the functional
// emulator.
//
//   bsp-run program.{s,bspo} [--max N] [--stats]
//
// Prints the program's syscall output; --stats adds retirement counters.
#include <iostream>

#include "asm/objfile.hpp"
#include "emu/checkpoint.hpp"
#include "emu/emulator.hpp"

int main(int argc, char** argv) {
  using namespace bsp;
  std::string input, save_ckpt, from_ckpt;
  u64 max_instructions = 1u << 30;
  bool stats = false;
  bool fast = true;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--max" && i + 1 < argc) {
      max_instructions = std::strtoull(argv[++i], nullptr, 0);
    } else if (a == "--stats") {
      stats = true;
    } else if (a == "--no-fast") {
      fast = false;
    } else if (a == "--save-checkpoint" && i + 1 < argc) {
      save_ckpt = argv[++i];
    } else if (a == "--checkpoint" && i + 1 < argc) {
      from_ckpt = argv[++i];
    } else if (a == "-h" || a == "--help") {
      std::cout << "usage: bsp-run program.{s,bspo} [--max N] [--stats]\n"
                << "               [--checkpoint in.bspc] "
                   "[--save-checkpoint out.bspc] [--no-fast]\n"
                << "--no-fast uses the one-instruction step() loop instead "
                   "of the fast interpreter (debugging aid; same results)\n";
      return 0;
    } else if (!a.empty() && a[0] != '-' && input.empty()) {
      input = a;
    } else {
      std::cerr << "bsp-run: unknown argument '" << a << "'\n";
      return 2;
    }
  }
  if (input.empty()) {
    std::cerr << "bsp-run: no input (try --help)\n";
    return 2;
  }

  std::string error;
  const auto program = load_program_file(input, &error);
  if (!program) {
    std::cerr << "bsp-run: " << error << "\n";
    return 1;
  }

  std::optional<Checkpoint> ckpt;
  if (!from_ckpt.empty()) {
    ckpt = load_checkpoint_file(from_ckpt, &error);
    if (!ckpt) {
      std::cerr << "bsp-run: " << error << "\n";
      return 1;
    }
  }
  Emulator emu(*program, ckpt ? &*ckpt : nullptr);
  StepResult final;
  if (fast)
    emu.run_fast(max_instructions, &final);
  else
    emu.run(max_instructions, &final);
  std::cout << emu.output();
  if (final.kind == StepResult::Kind::Fault) {
    std::cerr << "\nbsp-run: fault at pc 0x" << std::hex << emu.pc()
              << std::dec << ": " << final.fault << "\n";
    return 1;
  }
  if (!save_ckpt.empty()) {
    if (!save_checkpoint_file(capture_checkpoint(emu), save_ckpt)) {
      std::cerr << "bsp-run: cannot write " << save_ckpt << "\n";
      return 1;
    }
    std::cerr << "[checkpoint after " << emu.instructions_retired()
              << " instructions -> " << save_ckpt << "]\n";
  }
  if (stats) {
    std::cerr << "\n[" << emu.instructions_retired() << " instructions, "
              << (emu.exited() ? "exited" : "instruction limit reached")
              << ", exit code " << emu.exit_code() << ", "
              << emu.memory().pages_allocated() << " memory pages]\n";
  }
  return emu.exit_code();
}
