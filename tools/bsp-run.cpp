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
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace bsp;
  std::string input, save_ckpt, from_ckpt;
  u64 max_instructions = 1u << 30;
  bool stats = false;
  bool fast = true;

  ArgParser parser(
      "bsp-run: execute a program on the functional emulator\n\n"
      "usage: bsp-run program.{s,bspo} [options]");
  parser.set_positional([&](const std::string& a) {
    if (!input.empty()) {
      std::cerr << "bsp-run: unexpected argument '" << a << "'\n";
      std::exit(2);
    }
    input = a;
  });
  parser.add_value("--max", "N", "stop after N instructions (default 2^30)",
                   &max_instructions);
  parser.add_flag("--stats", "print retirement counters to stderr", &stats);
  parser.add_value("--checkpoint", "IN.bspc",
                   "start from a saved checkpoint instead of reset",
                   &from_ckpt);
  parser.add_value("--save-checkpoint", "OUT.bspc",
                   "save a checkpoint of the final state", &save_ckpt);
  parser.add_flag("--no-fast",
                  "use the one-instruction step() loop instead of the fast "
                  "interpreter (debugging aid; same results)",
                  [&] { fast = false; });
  parser.parse(argc, argv);
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
