// Assembly generators for the 11 synthetic SPEC-like kernels.
//
// Shared register conventions across kernels:
//   $s7  outer-loop countdown (iterations)
//   $t9  xorshift32 PRNG state (where the kernel uses one)
//   $gp  data segment base (set by the emulator/loader)
//   $k0/$k1/$at  scratch
// Every kernel ends with the SYS_EXIT syscall so programs terminate cleanly
// when run unbounded.
#include "workloads/kernels.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace bsp::kernels {

namespace {

// Emits the data block `label`: the label, then its words as `.word` lines
// in chunks of eight lowercase hex values, or, with `binary`, a `.space` of
// the same size, handing the words to *binary. Text is formatted with
// to_chars into one buffer: a data-heavy kernel emits ~10^5 words.
void data_block(std::ostringstream& os, DataBlocks* binary, const char* label,
                std::vector<u32> words) {
  os << label << ":\n";
  if (binary) {
    os << "  .space " << words.size() * 4 << "\n";
    binary->push_back({label, std::move(words)});
    return;
  }
  std::string text;
  // "  .word " + 8 x "0x" and up to 8 digits + 7 x ", " + "\n" per line.
  text.reserve((words.size() / 8 + 1) * 104);
  char digits[8];
  for (std::size_t i = 0; i < words.size(); i += 8) {
    text += "  .word ";
    for (std::size_t j = i; j < std::min(i + 8, words.size()); ++j) {
      if (j != i) text += ", ";
      text += "0x";
      const auto end = std::to_chars(digits, digits + sizeof digits,
                                     words[j], 16).ptr;
      text.append(digits, end);
    }
    text += '\n';
  }
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

// Standard prologue: countdown in $s7, PRNG seed in $t9.
void prologue(std::ostringstream& os, u64 iterations, u64 seed) {
  os << ".text\n"
     << "main:\n"
     << "  li $s7, " << iterations << "\n"
     << "  li $t9, " << ((seed & 0xffffffffu) | 1u) << "\n";
}

// Standard epilogue: decrement $s7, loop to `loop_label`, then exit. Uses a
// sign-test branch, as compiler-generated countdown loops do — keeping the
// suite's beq/bne share near the paper's 61 % of dynamic branches.
void epilogue(std::ostringstream& os, const std::string& loop_label) {
  os << "  addiu $s7, $s7, -1\n"
     << "  bgtz $s7, " << loop_label << "\n"
     << "  li $v0, 10\n"
     << "  li $a0, 0\n"
     << "  syscall\n";
}

// xorshift32 step on $t9 (uses $at): exercises shift slice chains.
void xorshift(std::ostringstream& os) {
  os << "  sll $at, $t9, 13\n"
     << "  xor $t9, $t9, $at\n"
     << "  srl $at, $t9, 17\n"
     << "  xor $t9, $t9, $at\n"
     << "  sll $at, $t9, 5\n"
     << "  xor $t9, $t9, $at\n";
}

}  // namespace

// ---------------------------------------------------------------------------
// bzip: block compression. Sequential byte scan over a random block with a
// run-length comparison against the previous byte and a 256-entry frequency
// table update (load-modify-store chains). Cache-friendly, branchy but
// mostly predictable.
// ---------------------------------------------------------------------------
std::string bzip(const WorkloadParams& p, DataBlocks* binary) {
  constexpr u32 kBlockBytes = 32 * 1024;
  Rng rng(p.seed ^ 0xb21b);
  std::vector<u32> block(kBlockBytes / 4);
  for (auto& w : block) {
    // Skewed byte distribution so runs occur, as in compressible data.
    u32 v = 0;
    for (int b = 0; b < 4; ++b) {
      const u32 byte = rng.chance(1, 3) ? 0x41 : (rng.next() & 0x3f);
      v |= byte << (b * 8);
    }
    w = v;
  }

  std::ostringstream os;
  prologue(os, p.iterations, p.seed);
  os << "  la $s0, block\n"
     << "  la $s1, counts\n"
     << "  li $s2, " << kBlockBytes << "\n"
     << "outer:\n"
     << "  move $t0, $0\n"          // position
     << "  move $t1, $0\n"          // previous byte
     << "  move $t2, $0\n"          // run length
     << "scan:\n"
     << "  addu $t3, $s0, $t0\n"
     << "  lbu $t4, 0($t3)\n"       // current byte
     << "  sll $t5, $t4, 2\n"
     << "  addu $t5, $s1, $t5\n"
     << "  lw $t6, 0($t5)\n"        // counts[byte]++
     << "  addiu $t6, $t6, 1\n"
     << "  sw $t6, 0($t5)\n"
     << "  bne $t4, $t1, newrun\n"  // run continues?
     << "  addiu $t2, $t2, 1\n"
     << "  b cont\n"
     << "newrun:\n"
     << "  move $t1, $t4\n"
     << "  move $t2, $0\n"
     << "cont:\n"
     << "  addiu $t0, $t0, 1\n"
     << "  bne $t0, $s2, scan\n";
  epilogue(os, "outer");
  os << ".data\n";
  data_block(os, binary, "block", std::move(block));
  os << "counts:\n  .space 1024\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// gcc: pointer-chasing tree walk with data-dependent branches. A binary
// search tree of 8192 16-byte nodes (128 KB: spills L1, lives in L2), probed
// with pseudo-random keys; each step is a load -> compare -> branch chain.
// ---------------------------------------------------------------------------
std::string gcc(const WorkloadParams& p, DataBlocks* binary) {
  constexpr u32 kNodes = 8192;
  constexpr u32 kNodeBytes = 16;  // {key, left, right, pad}
  const u32 tree_base = kDefaultDataBase;

  // Build a random-shaped BST in host memory, then emit it as words.
  Rng rng(p.seed ^ 0x9cc);
  struct Node { u32 key = 0; int left = -1; int right = -1; };
  std::vector<Node> nodes(kNodes);
  for (auto& n : nodes) n.key = rng.next();
  int root = 0;
  for (u32 i = 1; i < kNodes; ++i) {
    int cur = root;
    for (;;) {
      int& next = nodes[i].key < nodes[cur].key ? nodes[cur].left
                                                : nodes[cur].right;
      if (next < 0) {
        next = static_cast<int>(i);
        break;
      }
      cur = next;
    }
  }
  const auto addr_of = [&](int idx) -> u32 {
    return idx < 0 ? 0 : tree_base + static_cast<u32>(idx) * kNodeBytes;
  };
  std::vector<u32> words;
  words.reserve(kNodes * 4);
  for (const auto& n : nodes) {
    words.push_back(n.key);
    words.push_back(addr_of(n.left));
    words.push_back(addr_of(n.right));
    words.push_back(0);
  }

  std::ostringstream os;
  prologue(os, p.iterations, p.seed);
  os << "  la $s0, tree\n"
     << "  la $s1, spill\n"      // compiler-style spill area
     << "  move $s2, $0\n"       // spill cursor (wraps within 256 B)
     << "  move $s3, $0\n"       // previously probed key
     << "outer:\n";
  xorshift(os);
  // Probe keys are temporally correlated (3/4 repeat the previous probe),
  // as compiler symbol lookups are; repeated paths keep the walk branches
  // near Table 1's 90 % accuracy.
  os << "  andi $at, $t9, 0x3\n"
     << "  beq $at, $0, fresh\n"
     << "  move $t1, $s3\n"
     << "  b probe_ready\n"
     << "fresh:\n"
     << "  move $t1, $t9\n"
     << "probe_ready:\n"
     << "  move $s3, $t1\n"
     << "  move $t0, $s0\n"      // cursor = root (node 0)
     << "walk:\n"
     << "  lw $t2, 0($t0)\n"     // node.key
     << "  sw $t1, 12($t0)\n"    // annotate the node with the probe key
     << "  addu $t4, $s1, $s2\n" // spill the cursor (store...)
     << "  sw $t0, 0($t4)\n"
     << "  addiu $s2, $s2, 4\n"
     << "  andi $s2, $s2, 0xfc\n"
     << "  subu $t3, $t1, $t2\n" // signed key compare, as gcc emits
     << "  bltz $t3, left\n"
     << "  lw $t0, 8($t0)\n"     // right child
     << "  b check\n"
     << "left:\n"
     << "  lw $t0, 4($t0)\n"     // left child
     << "check:\n"
     << "  bne $t0, $0, walk\n"
     // Leaf: reload the last spilled cursor (store-to-load forwarding) and
     // annotate that node's pad word.
     << "  addiu $t5, $s2, -4\n"
     << "  andi $t5, $t5, 0xfc\n"
     << "  addu $t5, $s1, $t5\n"
     << "  lw $t6, 0($t5)\n"
     << "  sw $t9, 12($t6)\n";
  epilogue(os, "outer");
  os << ".data\n";
  data_block(os, binary, "tree", std::move(words));
  os << "spill:\n  .space 256\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// go: board evaluation with pattern-random control flow. Two genuinely
// unpredictable branches per iteration mixed with predictable bookkeeping
// lands the prediction accuracy near the paper's 84 %.
// ---------------------------------------------------------------------------
std::string go(const WorkloadParams& p, DataBlocks*) {
  std::ostringstream os;
  prologue(os, p.iterations, p.seed);
  os << "  la $s0, board\n"
     << "  move $s1, $0\n"       // score
     << "outer:\n";
  xorshift(os);
  os << "  andi $t0, $t9, 0x3fc\n"   // random board cell (word aligned)
     << "  addu $t1, $s0, $t0\n"
     << "  lw $t2, 0($t1)\n"
     // Pattern branches: taken with p = 1/4 and 3/4 (biased but noisy, like
     // board pattern matches). Bias, not history memorisation, carries the
     // predictability, so trace and timing models agree.
     << "  andi $t3, $t9, 0x3\n"
     << "  beq $t3, $0, skip1\n"      // taken 1/4 of the time
     << "  addu $s1, $s1, $t2\n"
     << "  addiu $t2, $t2, 3\n"
     << "skip1:\n"
     << "  srl $t4, $t9, 9\n"         // pattern branch #2: a flag test, as
     << "  andi $t4, $t4, 0x3\n"      // in the paper's Figure 5 idiom
     << "  bne $t4, $0, skip2\n"      // taken 3/4 of the time
     << "  subu $s1, $s1, $t2\n"
     << "  sw $t2, 0($t1)\n"
     << "skip2:\n"
     << "  addiu $s1, $s1, 1\n"      // predictable bookkeeping
     << "  slt $t5, $s1, $0\n"
     << "  beq $t5, $0, skip3\n"     // almost never taken
     << "  move $s1, $0\n"
     << "skip3:\n";
  epilogue(os, "outer");
  os << ".data\nboard:\n  .space 1024\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// gzip: LZ-style window matching. A rolling 2-byte hash indexes a chain-head
// table; candidate positions are compared byte by byte (the inner match loop
// is the data-dependent part).
// ---------------------------------------------------------------------------
std::string gzip(const WorkloadParams& p, DataBlocks* binary) {
  constexpr u32 kWindowBytes = 16 * 1024;
  Rng rng(p.seed ^ 0x621b);
  std::vector<u32> window(kWindowBytes / 4);
  for (auto& w : window) {
    u32 v = 0;
    for (int b = 0; b < 4; ++b)
      v |= (0x61 + (rng.next() & 0x7)) << (b * 8);  // 8-symbol alphabet
    w = v;
  }

  std::ostringstream os;
  prologue(os, p.iterations, p.seed);
  os << "  la $s0, window\n"
     << "  la $s1, heads\n"
     << "  li $s2, " << (kWindowBytes - 64) << "\n"
     << "  move $s3, $0\n"             // position
     << "outer:\n"
     << "  addu $t0, $s0, $s3\n"
     << "  lbu $t1, 0($t0)\n"          // rolling hash of 2 bytes
     << "  lbu $t2, 1($t0)\n"
     << "  sll $t1, $t1, 5\n"
     << "  xor $t1, $t1, $t2\n"
     << "  andi $t1, $t1, 0x3fc\n"
     << "  addu $t3, $s1, $t1\n"
     << "  lw $t4, 0($t3)\n"           // candidate position
     << "  sw $s3, 0($t3)\n"           // update chain head
     << "  addu $t5, $s0, $t4\n"
     << "  move $t6, $0\n"             // match length
     << "match:\n"
     << "  addu $at, $t0, $t6\n"
     << "  lbu $k0, 0($at)\n"
     << "  addu $at, $t5, $t6\n"
     << "  lbu $k1, 0($at)\n"
     << "  bne $k0, $k1, done\n"
     << "  addiu $t6, $t6, 1\n"
     << "  addiu $at, $t6, -8\n"
     << "  bltz $at, match\n"         // match length < 8 (sign test)
     << "done:\n"
     << "  addiu $s3, $s3, 1\n"
     << "  sltu $at, $s3, $s2\n"
     << "  bne $at, $0, noreset\n"
     << "  move $s3, $0\n"
     << "noreset:\n";
  epilogue(os, "outer");
  os << ".data\n";
  data_block(os, binary, "window", std::move(window));
  os << "heads:\n  .space 4096\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// ijpeg: integer DCT-like butterflies. Long add/sub/shift dependence chains
// over sequential 8-word rows; very few data-dependent branches.
// ---------------------------------------------------------------------------
std::string ijpeg(const WorkloadParams& p, DataBlocks* binary) {
  // 16 KB: comfortably L1-resident — ijpeg is the suite's compute-bound,
  // cache-friendly member.
  constexpr u32 kImageBytes = 16 * 1024;
  Rng rng(p.seed ^ 0x1395);
  std::vector<u32> image(kImageBytes / 4);
  for (auto& w : image) w = rng.next() & 0x00ff00ff;  // pixel-ish samples
  std::ostringstream os;
  prologue(os, p.iterations, p.seed);
  os << "  la $s0, image\n"
     << "  li $s2, " << kImageBytes << "\n"
     << "outer:\n"
     << "  move $s3, $0\n"
     << "row:\n"
     << "  addu $t0, $s0, $s3\n"
     << "  lw $t1, 0($t0)\n"
     << "  lw $t2, 4($t0)\n"
     << "  lw $t3, 8($t0)\n"
     << "  lw $t4, 12($t0)\n"
     // stage 1 butterflies
     << "  addu $t5, $t1, $t4\n"
     << "  subu $t6, $t1, $t4\n"
     << "  addu $t7, $t2, $t3\n"
     << "  subu $t8, $t2, $t3\n"
     // stage 2 with scaling shifts (exercises slice carry + shift chains)
     << "  addu $t1, $t5, $t7\n"
     << "  subu $t2, $t5, $t7\n"
     << "  sll $t3, $t8, 1\n"
     << "  addu $t3, $t3, $t6\n"
     << "  sra $t4, $t6, 2\n"
     << "  subu $t4, $t4, $t8\n"
     // stage 3: normalise, with a rarely-taken saturation check on the
     // accumulating coefficient (keeps branch accuracy near Table 1's 93 %)
     << "  sra $t1, $t1, 1\n"
     << "  sra $t2, $t2, 1\n"
     << "  andi $t7, $t1, 0x7\n"
     << "  bne $t7, $0, nosat\n"
     << "  sra $t1, $t1, 1\n"
     << "nosat:\n"
     << "  sw $t1, 0($t0)\n"
     << "  sw $t2, 4($t0)\n"
     << "  sw $t3, 8($t0)\n"
     << "  sw $t4, 12($t0)\n"
     << "  addiu $s3, $s3, 16\n"
     << "  bne $s3, $s2, row\n";
  epilogue(os, "outer");
  os << ".data\n";
  data_block(os, binary, "image", std::move(image));
  return os.str();
}

// ---------------------------------------------------------------------------
// li: the lisp interpreter's cons-cell mark loop — the paper's Figure 5
// idiom, byte-exact: `lbu $3,1($16); andi $2,$3,0x0001; bne $2,$0,...`.
// Nodes carry a flag byte that the kernel tests, marks, and periodically
// clears, so the flag-test branch stays partially unpredictable.
// ---------------------------------------------------------------------------
std::string li(const WorkloadParams& p, DataBlocks* binary) {
  constexpr u32 kNodes = 4096;
  constexpr u32 kNodeBytes = 8;  // {next, flags}
  const u32 base = kDefaultDataBase;
  Rng rng(p.seed ^ 0x11);

  // Random list threading + pre-seeded flags (mostly clear).
  std::vector<u32> order(kNodes);
  for (u32 i = 0; i < kNodes; ++i) order[i] = i;
  for (u32 i = kNodes - 1; i > 0; --i)
    std::swap(order[i], order[rng.below(i + 1)]);
  std::vector<u32> words(kNodes * 2, 0);
  for (u32 i = 0; i < kNodes; ++i) {
    const u32 next = i + 1 < kNodes ? base + order[i + 1] * kNodeBytes : 0;
    words[order[i] * 2] = next;
    words[order[i] * 2 + 1] = rng.chance(1, 8) ? 1 : 0;  // MARK bit
  }

  std::ostringstream os;
  prologue(os, p.iterations, p.seed);
  os << "  li $s0, " << (base + order[0] * kNodeBytes) << "\n"
     << "outer:\n"
     << "  move $16, $s0\n"            // $16 = list cursor, as in Figure 5
     << "mark_loop:\n"
     << "  lbu $3, 4($16)\n"           // node flag byte
     << "  andi $2, $3, 0x0001\n"
     << "  bne $2, $0, marked\n"       // Figure 5's mispredicting branch
     << "  ori $3, $3, 1\n"            // this->n_flags |= MARK
     << "  sb $3, 4($16)\n"
     << "  b next_node\n"
     << "marked:\n";
  xorshift(os);
  os << "  andi $at, $t9, 0x3\n"       // occasionally clear the mark:
     << "  bne $at, $0, next_node\n"   // another low-bit flag test
     << "  sb $0, 4($16)\n"
     << "next_node:\n"
     << "  lw $16, 0($16)\n"
     << "  bne $16, $0, mark_loop\n";
  epilogue(os, "outer");
  os << ".data\n";
  data_block(os, binary, "nodes", std::move(words));
  return os.str();
}

// ---------------------------------------------------------------------------
// mcf: network-simplex surrogate — dependent loads scattered across a 1 MB
// arc array (far beyond L1 and most of L2's reach), with highly predictable
// control (the paper reports 98 % accuracy and the suite's lowest IPC).
// ---------------------------------------------------------------------------
std::string mcf(const WorkloadParams& p, DataBlocks*) {
  // 2 MB: strictly larger than the whole hierarchy (L2 is 1 MB), so the
  // kernel reaches its memory-bound steady state immediately — the real
  // mcf's working set dwarfs the caches, giving the suite's lowest IPC.
  constexpr u32 kRegionBytes = 2 * 1024 * 1024;
  std::ostringstream os;
  prologue(os, p.iterations, p.seed);
  os << "  la $s0, arcs\n"
     << "  move $s1, $0\n"             // cost accumulator
     << "outer:\n";
  xorshift(os);
  os << "  andi $t0, $t9, 0x1f\n"      // tiny predictable branch (31/32)
     << "  beq $t0, $0, rare\n"
     << "  b pick\n"
     << "rare:\n"
     << "  addiu $s1, $s1, 7\n"
     << "pick:\n"
     // random word-aligned offset in [0, 2 MB): keep 21 bits, clear low 2
     << "  sll $t1, $t9, 11\n"
     << "  srl $t1, $t1, 13\n"
     << "  sll $t1, $t1, 2\n"
     << "  addu $t3, $s0, $t1\n"
     << "  lw $t4, 0($t3)\n"           // first (missing) load
     << "  addu $s1, $s1, $t4\n"
     << "  xor $t5, $t4, $t9\n"        // dependent second address
     << "  sll $t5, $t5, 11\n"
     << "  srl $t5, $t5, 13\n"
     << "  sll $t5, $t5, 2\n"
     << "  addu $t6, $s0, $t5\n"
     << "  lw $t7, 0($t6)\n"           // dependent load
     << "  addu $s1, $s1, $t7\n"
     << "  sw $s1, 0($t3)\n";
  epilogue(os, "outer");
  os << ".data\narcs:\n  .space " << kRegionBytes << "\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// parser: dictionary hash probes. A bucket table indexes short collision
// chains of {hash, next} nodes; the chain-walk compare branch is data
// dependent.
// ---------------------------------------------------------------------------
std::string parser(const WorkloadParams& p, DataBlocks* binary) {
  constexpr u32 kBuckets = 1024;
  constexpr u32 kChainNodes = 4096;
  const u32 base = kDefaultDataBase;  // buckets first, then nodes
  const u32 nodes_base = base + kBuckets * 4;
  Rng rng(p.seed ^ 0xbeef);

  // Chains: distribute nodes over buckets.
  std::vector<u32> bucket_head(kBuckets, 0);
  std::vector<u32> node_words(kChainNodes * 2, 0);
  for (u32 i = 0; i < kChainNodes; ++i) {
    const u32 b = rng.below(kBuckets);
    node_words[i * 2] = rng.next();                 // stored hash value
    node_words[i * 2 + 1] = bucket_head[b];         // next
    bucket_head[b] = nodes_base + i * 8;
  }

  std::ostringstream os;
  prologue(os, p.iterations, p.seed);
  os << "  la $s0, buckets\n"
     << "  la $s2, results\n"
     << "outer:\n";
  xorshift(os);
  os << "  andi $t0, $t9, " << ((kBuckets - 1) * 4) << "\n"
     << "  addu $t1, $s0, $t0\n"
     << "  lw $t2, 0($t1)\n"           // chain head
     << "probe:\n"
     << "  beq $t2, $0, miss\n"
     << "  lw $t3, 0($t2)\n"           // node hash
     << "  beq $t3, $t9, hit\n"        // (almost never equal: full scan)
     << "  lw $t2, 4($t2)\n"           // next
     << "  b probe\n"
     << "hit:\n"
     << "  addiu $s1, $s1, 1\n"
     << "miss:\n"
     // memoise the lookup result, then consult it (store-to-load traffic
     // like the real parser's per-word caches)
     << "  addu $t5, $s2, $t0\n"
     << "  sw $t9, 0($t5)\n"
     << "  lw $t6, 0($t5)\n"
     << "  addu $s1, $s1, $t6\n";
  epilogue(os, "outer");
  os << ".data\n";
  data_block(os, binary, "buckets", std::move(bucket_head));
  data_block(os, binary, "chain_nodes", std::move(node_words));
  os << "results:\n  .space " << (kBuckets * 4) << "\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// twolf: placement/annealing surrogate — random small-record updates
// (load two fields, integer math, compare, store back) over a 128 KB array.
// ---------------------------------------------------------------------------
std::string twolf(const WorkloadParams& p, DataBlocks* binary) {
  constexpr u32 kRecords = 8192;  // 16 B each -> 128 KB
  std::ostringstream os;
  prologue(os, p.iterations, p.seed);
  os << "  la $s0, cells\n"
     << "  move $s1, $0\n"
     << "outer:\n";
  xorshift(os);
  os << "  andi $t0, $t9, " << (kRecords - 1) << "\n"
     << "  sll $t0, $t0, 4\n"          // 16-byte records
     << "  addu $t1, $s0, $t0\n"
     << "  lw $t2, 0($t1)\n"           // cost
     << "  lw $t3, 4($t1)\n"           // penalty
     << "  sll $t4, $t3, 1\n"
     << "  addu $t5, $t2, $t4\n"
     << "  xor $t6, $t5, $t9\n"        // anneal: accept unless cost and
     << "  andi $t6, $t6, 0x7\n"       // temperature bits align (~1/8)
     << "  addiu $t6, $t6, -1\n"
     << "  bltz $t6, reject\n"
     << "  sw $t5, 0($t1)\n"
     << "  andi $t8, $t5, 0x7\n"       // flag test on the new cost bits
     << "  bne $t8, $0, odd_cost\n"
     << "  addiu $s1, $s1, -3\n"
     << "odd_cost:\n"
     << "  b cont\n"
     << "reject:\n"
     << "  addiu $s1, $s1, 5\n"
     << "cont:\n"
     << "  sw $s1, 8($t1)\n";
  epilogue(os, "outer");
  os << ".data\n";
  Rng rng(p.seed ^ 0x201f);
  std::vector<u32> cells(kRecords * 4);
  for (auto& w : cells) w = rng.next() & 0xffff;  // small positive costs
  data_block(os, binary, "cells", std::move(cells));
  return os.str();
}

// ---------------------------------------------------------------------------
// vortex: OO-database record access — the paper's Figure 9 code segment
// (sll / lui / addu / lw address chain) plus store-then-reload field updates
// that exercise store-to-load forwarding in the LSQ.
// ---------------------------------------------------------------------------
std::string vortex(const WorkloadParams& p, DataBlocks* binary) {
  constexpr u32 kRecords = 2048;  // 32 B records -> 64 KB (straddles L1)
  const u32 base = kDefaultDataBase;
  const u32 records_base = base + kRecords * 8;  // past the pointer table
  Rng rng(p.seed ^ 0xf0f);
  std::vector<u32> table(kRecords);
  for (u32 i = 0; i < kRecords; ++i)
    table[i] = records_base + rng.below(kRecords) * 32;

  std::ostringstream os;
  prologue(os, p.iterations, p.seed);
  os << "outer:\n";
  xorshift(os);
  os << "  andi $17, $t9, " << (kRecords - 1) << "\n"
     // Figure 9's address generation chain, verbatim shape:
     << "  sll $16, $17, 3\n"
     << "  lui $2, %hi(rectable)\n"
     << "  addu $2, $2, $16\n"
     << "  lw $2, %lo(rectable)($2)\n"  // record pointer
     << "  lw $t0, 0($2)\n"             // field A
     << "  lw $t1, 4($2)\n"             // field B
     << "  addu $t2, $t0, $t1\n"
     << "  sw $t2, 8($2)\n"             // write field C...
     << "  lw $t3, 8($2)\n"             // ...and read it right back (forward)
     << "  andi $t4, $t3, 0x7\n"        // attribute flag test on the field
     << "  bne $t4, $0, store_back\n"   // just forwarded (1/8 special)
     << "special:\n"
     << "  subu $t3, $0, $t3\n"
     << "store_back:\n"
     << "  sw $t3, 12($2)\n";
  epilogue(os, "outer");
  os << ".data\n";
  // Note: the sll-by-3 chain indexes 8-byte strides; keep the table dense.
  std::vector<u32> dense(kRecords * 2);
  for (u32 i = 0; i < kRecords; ++i) {
    dense[i * 2] = table[i];
    dense[i * 2 + 1] = table[(i + 1) % kRecords];
  }
  data_block(os, binary, "rectable", std::move(dense));
  std::vector<u32> record_words(kRecords * 8);
  for (auto& w : record_words) w = rng.next() & 0x7fff;
  data_block(os, binary, "records", std::move(record_words));
  return os.str();
}

// ---------------------------------------------------------------------------
// vpr: routing surrogate — a random walk over a 256x256 cost grid with
// bounds-check branches that are rarely taken (96 % accuracy).
// ---------------------------------------------------------------------------
std::string vpr(const WorkloadParams& p, DataBlocks*) {
  constexpr u32 kDim = 256;
  std::ostringstream os;
  prologue(os, p.iterations, p.seed);
  os << "  la $s0, grid\n"
     << "  li $s1, 128\n"              // x
     << "  li $s2, 128\n"              // y
     << "  move $s3, $0\n"             // accumulated cost
     << "outer:\n";
  xorshift(os);
  // Routing sweeps are directional: the walker turns vertically only 1/16
  // of the time, keeping the direction branch (and the suite's 96 %
  // accuracy target) predictable.
  os << "  andi $t0, $t9, 0xf\n"
     << "  addiu $t1, $t0, -14\n"
     << "  bgez $t1, vertical\n"       // vertical turn 1/8 of steps
     << "  andi $t2, $t0, 0x1\n"
     << "  sll $t2, $t2, 1\n"
     << "  addiu $t2, $t2, -1\n"       // -1 or +1
     << "  addu $s1, $s1, $t2\n"
     << "  b clamp\n"
     << "vertical:\n"
     << "  andi $t2, $t0, 0x1\n"
     << "  sll $t2, $t2, 1\n"
     << "  addiu $t2, $t2, -1\n"       // -1 or +1
     << "  addu $s2, $s2, $t2\n"
     << "clamp:\n"
     << "  andi $s1, $s1, " << (kDim - 1) << "\n"
     << "  andi $s2, $s2, " << (kDim - 1) << "\n"
     << "  sll $t3, $s2, 8\n"
     << "  addu $t3, $t3, $s1\n"
     << "  sll $t3, $t3, 2\n"
     << "  addu $t4, $s0, $t3\n"
     << "  lw $t5, 0($t4)\n"           // cell cost
     << "  addiu $t7, $t5, 1\n"        // congestion update (store per step)
     << "  sw $t7, 0($t4)\n"
     << "  addu $s3, $s3, $t5\n"
     << "  addiu $s3, $s3, 9\n"        // wire cost of the step itself
     << "  slti $t6, $s3, 0x4000\n"    // rarely-taken overflow check
     << "  bne $t6, $0, nofold\n"
     << "  sra $s3, $s3, 4\n"
     << "  sw $s3, 0($t4)\n"
     << "nofold:\n";
  epilogue(os, "outer");
  os << ".data\ngrid:\n  .space " << (kDim * kDim * 4) << "\n";
  return os.str();
}

// fp_saxpy (not in the suite): the §6 corner case. FP loads, mul/add
// chains, an FP compare and an integer div, all full-collect. Fixed 60000
// iterations; the seed does not enter.
std::string fp_saxpy(const WorkloadParams&, DataBlocks*) {
  return R"(
.text
main:
  li $s7, 60000
  la $s0, x
  la $s1, y
  li $t0, 0x40490fdb     # pi as the scalar
  mtc1 $t0, $f8
loop:
  andi $t1, $s7, 0xfc
  addu $t2, $s0, $t1
  addu $t3, $s1, $t1
  lwc1 $f0, 0($t2)
  lwc1 $f1, 0($t3)
  mul.s $f2, $f0, $f8    # a*x
  add.s $f3, $f2, $f1    # a*x + y
  swc1 $f3, 0($t3)
  c.lt.s $f3, $f8
  bc1f no_norm
  add.s $f4, $f4, $f3    # accumulate small values
no_norm:
  li $t4, 97
  divu $s7, $t4          # integer div in the mix (20-cycle collect)
  mfhi $t5
  addu $t6, $t6, $t5
  addiu $s7, $s7, -1
  bgtz $s7, loop
  li $v0, 10
  li $a0, 0
  syscall
.data
x: .space 256
y: .space 256
)";
}

}  // namespace bsp::kernels
