// Pipeview: watch the bit-sliced pipeline execute, cycle by cycle.
//
// Runs a five-instruction dependence chain — the paper's Figure 1 program
// shape (add -> addi -> lw -> beq, plus an independent sub) — on the
// slice-by-2 machine with all techniques, and prints every dispatch,
// slice-op selection, memory event, branch resolution and commit. The trace
// makes the paper's central claim visible: dependent instructions overlap
// slice by slice instead of waiting for each other's full results.
#include <iostream>

#include "asm/assembler.hpp"
#include "core/simulator.hpp"
#include "obs/sinks.hpp"

int main() {
  using namespace bsp;

  // Figure 1's example sequence, adapted to assemble standalone.
  const char* source = R"(
.text
main:
  la $t0, data          # ($2 in the figure)
  li $t1, 40            # ($1)
loop:
  addu $t3, $t0, $t1    # add  R3,R2,R1
  addiu $t3, $t3, 4     # addi R3,R3,4
  lw $t4, 0($t3)        # lw   R4,0(R3)
  beq $t5, $t4, skip    # beq  R5,R4,t
  subu $t5, $t5, $t1    # sub  R5,R5,R1
skip:
  addiu $t1, $t1, -8
  bgtz $t1, loop
  li $v0, 10
  li $a0, 0
  syscall
.data
data: .space 256
)";
  const AsmResult assembled = assemble(source);
  if (!assembled.ok()) {
    std::cerr << assembled.error_text();
    return 1;
  }

  std::cout << "slice-by-2 machine, all partial-operand techniques.\n"
            << "D=dispatch  X=slice-op executes  M=memory event  "
               "B=branch resolution  C=commit\n\n";
  Simulator sim(bitsliced_machine(2, kAllTechniques), assembled.program);
  obs::PipeTextSink trace(std::cout, 0, 400);
  sim.add_trace_sink(&trace);
  const SimResult r = sim.run(10'000);
  if (!r.ok()) {
    std::cerr << r.error << "\n";
    return 1;
  }
  std::cout << "\n(" << r.stats.committed << " instructions in "
            << r.stats.cycles << " cycles; trace window 400 cycles)\n";
  return 0;
}
