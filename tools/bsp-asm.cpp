// bsp-asm: assemble a BSP-32 source file into a BSPO object file.
//
//   bsp-asm input.s [-o output.bspo] [--list]
//
// --list prints the assembled instructions with addresses (a listing).
#include <fstream>
#include <iostream>
#include <sstream>

#include "asm/assembler.hpp"
#include "asm/objfile.hpp"
#include "isa/isa.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace bsp;
  std::string input, output;
  bool list = false;

  ArgParser parser(
      "bsp-asm: assemble a BSP-32 source file into a BSPO object file\n\n"
      "usage: bsp-asm input.s [options]");
  parser.set_positional([&](const std::string& a) {
    if (!input.empty()) {
      std::cerr << "bsp-asm: unexpected argument '" << a << "'\n";
      std::exit(2);
    }
    input = a;
  });
  parser.add_value("-o", "OUTPUT.bspo",
                   "object file to write (default: input with .bspo)",
                   &output);
  parser.add_flag("--list", "print the assembled instructions with addresses",
                  &list);
  parser.parse(argc, argv);
  if (input.empty()) {
    std::cerr << "bsp-asm: no input file (try --help)\n";
    return 2;
  }
  if (output.empty()) {
    output = input;
    if (const auto dot = output.rfind('.'); dot != std::string::npos)
      output.resize(dot);
    output += ".bspo";
  }

  std::ifstream in(input);
  if (!in) {
    std::cerr << "bsp-asm: cannot open " << input << "\n";
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();

  const AsmResult r = assemble(ss.str());
  if (!r.ok()) {
    std::cerr << input << ":\n" << r.error_text();
    return 1;
  }

  if (list) {
    for (std::size_t i = 0; i < r.program.text.size(); ++i) {
      const u32 pc = r.program.text_base + static_cast<u32>(i) * 4;
      const auto d = decode(r.program.text[i]);
      std::printf("%08x:  %08x  %s\n", pc, r.program.text[i],
                  d ? disassemble(*d, pc).c_str() : "<illegal>");
    }
  }

  if (!save_object_file(r.program, output)) {
    std::cerr << "bsp-asm: cannot write " << output << "\n";
    return 1;
  }
  std::cout << output << ": " << r.program.text.size() << " instructions, "
            << r.program.data.size() << " data bytes, "
            << r.program.symbols.size() << " symbols\n";
  return 0;
}
