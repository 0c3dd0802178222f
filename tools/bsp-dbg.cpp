// bsp-dbg: interactive debugger over the functional emulator.
//
//   bsp-dbg program.{s,bspo}
//
// Reads commands from stdin (scriptable: `echo "s 10\np all\nq" | bsp-dbg
// prog.s`). Run `h` inside for the command list.
#include <iostream>

#include "asm/objfile.hpp"
#include "emu/debugger.hpp"

int main(int argc, char** argv) {
  using namespace bsp;
  if (argc != 2 || std::string(argv[1]) == "-h" ||
      std::string(argv[1]) == "--help") {
    std::cout << "usage: bsp-dbg program.{s,bspo}\n";
    return argc == 2 ? 0 : 2;
  }
  const std::string path = argv[1];

  std::string error;
  const auto program = load_program_file(path, &error);
  if (!program) {
    std::cerr << "bsp-dbg: " << error << "\n";
    return 1;
  }

  std::cout << path << ": " << program->text.size()
            << " instructions, entry 0x" << std::hex << program->entry
            << std::dec << " (h for help)\n";
  Debugger dbg(*program, std::cout);
  dbg.repl(std::cin, "(bsp-dbg) ");
  return 0;
}
