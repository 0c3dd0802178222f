#include "asm/assembler.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "isa/isa.hpp"

namespace bsp {

std::string AsmResult::error_text() const {
  std::string out;
  for (const auto& e : errors) {
    out += "line " + std::to_string(e.line) + ": " + e.message + "\n";
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Tokenizer: splits one source line into label / mnemonic / operand tokens.
// ---------------------------------------------------------------------------

// Every token is a view: of the source text, or of a compacted operand in
// the Assembler's spill storage. Both outlive the Lines.
struct Line {
  unsigned number = 0;
  std::string_view label;                  // without ':'
  std::string_view mnemonic;               // instruction or directive
  std::vector<std::string_view> operands;  // "imm(reg)" kept whole
};

// The "C" locale's isspace/isalnum, inlined: the tokenizer tests every
// source character, and the library calls were a large share of assembling
// a data-heavy kernel. The process never changes locale.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '$' ||
         c == '%';
}

// Steps the string-literal state over text[i]: a '"' opens a literal, and
// closes it unless escaped by the character before it.
bool quote_state_after(std::string_view text, std::size_t i, bool in_quote) {
  if (text[i] != '"') return in_quote;
  return !in_quote || (i > 0 && text[i - 1] == '\\');
}

// One comma-separated operand field with the whitespace outside string
// literals removed. Nearly always that is a trim, and the result is a view
// of `field`; an operand with whitespace inside it ("4 ( $sp )") is
// compacted into a string `spill` owns.
std::string_view operand(std::string_view field,
                         std::deque<std::string>* spill) {
  std::size_t b = 0, e = field.size();
  while (b < e && is_space(field[b])) ++b;
  while (e > b && is_space(field[e - 1])) --e;
  field = field.substr(b, e - b);
  bool in_quote = false, gap = false;
  for (std::size_t i = 0; i < field.size() && !gap; ++i) {
    gap = !in_quote && is_space(field[i]);
    in_quote = quote_state_after(field, i, in_quote);
  }
  if (!gap) return field;
  std::string& out = spill->emplace_back();
  in_quote = false;
  for (std::size_t i = 0; i < field.size(); ++i) {
    if (in_quote || !is_space(field[i])) out += field[i];
    in_quote = quote_state_after(field, i, in_quote);
  }
  return out;
}

std::optional<Line> tokenize(std::string_view text, unsigned number,
                             std::deque<std::string>* spill,
                             std::string* error) {
  // Strip comment.
  if (const auto hash = text.find('#'); hash != std::string_view::npos)
    text = text.substr(0, hash);

  Line line;
  line.number = number;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && is_space(text[i])) ++i;
  };

  skip_ws();
  if (i >= text.size()) return std::nullopt;  // blank line

  // Optional label.
  {
    std::size_t j = i;
    while (j < text.size() && is_ident_char(text[j])) ++j;
    if (j < text.size() && text[j] == ':') {
      line.label = text.substr(i, j - i);
      i = j + 1;
      skip_ws();
    }
  }
  if (i >= text.size()) return line;  // label-only line

  // Mnemonic / directive.
  {
    std::size_t j = i;
    while (j < text.size() && !is_space(text[j])) ++j;
    line.mnemonic = text.substr(i, j - i);
    i = j;
  }

  // Operands: split on commas outside string literals.
  skip_ws();
  line.operands.reserve(static_cast<std::size_t>(
                            std::count(text.begin() + i, text.end(), ',')) +
                        1);
  std::size_t field = i;
  bool in_quote = false;
  for (; i < text.size(); ++i) {
    if (!in_quote && text[i] == ',') {
      line.operands.push_back(operand(text.substr(field, i - field), spill));
      field = i + 1;
    }
    in_quote = quote_state_after(text, i, in_quote);
  }
  if (in_quote) {
    *error = "unterminated string literal";
    return line;
  }
  if (const std::string_view last = operand(text.substr(field), spill);
      !last.empty())
    line.operands.push_back(last);
  for (const auto& o : line.operands) {
    if (o.empty()) {
      *error = "empty operand (stray comma?)";
      break;
    }
  }
  return line;
}

// ---------------------------------------------------------------------------
// Assembler proper
// ---------------------------------------------------------------------------

enum class Section { Text, Data };

class Assembler {
 public:
  explicit Assembler(const AsmOptions& opts) {
    result_.program.text_base = opts.text_base;
    result_.program.data_base = opts.data_base;
    result_.program.entry = opts.text_base;
  }

  AsmResult run(std::string_view source) {
    std::vector<Line> lines = parse_lines(source);
    layout_pass(lines);
    if (result_.ok()) encode_pass(lines);
    if (result_.program.has_symbol("main"))
      result_.program.entry = result_.program.symbol("main");
    return std::move(result_);
  }

 private:
  AsmResult result_;
  std::deque<std::string> spill_;  // compacted operands (see operand())
  Section section_ = Section::Text;
  u32 text_pc_ = 0;   // byte offset within text
  u32 data_pc_ = 0;   // byte offset within data

  void error(unsigned line, std::string msg) {
    result_.errors.push_back({line, std::move(msg)});
  }

  std::vector<Line> parse_lines(std::string_view source) {
    std::vector<Line> lines;
    lines.reserve(static_cast<std::size_t>(
                      std::count(source.begin(), source.end(), '\n')) +
                  1);
    unsigned number = 0;
    std::size_t pos = 0;
    while (pos <= source.size()) {
      const std::size_t nl = source.find('\n', pos);
      const std::string_view raw =
          source.substr(pos, nl == std::string_view::npos ? std::string_view::npos
                                                          : nl - pos);
      ++number;
      std::string err;
      if (auto line = tokenize(raw, number, &spill_, &err)) {
        if (!err.empty()) error(number, err);
        lines.push_back(std::move(*line));
      }
      if (nl == std::string_view::npos) break;
      pos = nl + 1;
    }
    return lines;
  }

  // Number of instruction words a (pseudo-)instruction expands to. Fixed per
  // mnemonic so pass-1 layout is stable.
  static unsigned words_for(std::string_view mnemonic) {
    if (mnemonic == "li" || mnemonic == "la") return 2;
    return 1;
  }

  // --- pass 1: section layout + symbol table --------------------------------

  void layout_pass(const std::vector<Line>& lines) {
    section_ = Section::Text;
    text_pc_ = data_pc_ = 0;
    for (const auto& line : lines) {
      if (!line.label.empty()) define_label(line);
      if (line.mnemonic.empty()) continue;
      if (line.mnemonic[0] == '.') {
        layout_directive(line);
      } else {
        if (section_ != Section::Text) {
          error(line.number, "instruction outside .text section");
          continue;
        }
        text_pc_ += 4 * words_for(line.mnemonic);
      }
    }
  }

  void define_label(const Line& line) {
    auto& syms = result_.program.symbols;
    const u32 addr = section_ == Section::Text
                         ? result_.program.text_base + text_pc_
                         : result_.program.data_base + data_pc_;
    if (!syms.emplace(std::string(line.label), addr).second)
      error(line.number, "duplicate label '" + std::string(line.label) + "'");
  }

  void layout_directive(const Line& line) {
    const std::string_view d = line.mnemonic;
    if (d == ".text") { section_ = Section::Text; return; }
    if (d == ".data") { section_ = Section::Data; return; }
    if (d == ".globl" || d == ".global") return;
    if (section_ != Section::Data) {
      if (d == ".word" || d == ".half" || d == ".byte" || d == ".space" ||
          d == ".align" || d == ".asciiz")
        error(line.number, std::string(d) + " outside .data section");
      else
        error(line.number, "unknown directive '" + std::string(d) + "'");
      return;
    }
    if (d == ".word") { align_data(4); data_pc_ += 4 * count(line); return; }
    if (d == ".half") { align_data(2); data_pc_ += 2 * count(line); return; }
    if (d == ".byte") { data_pc_ += count(line); return; }
    if (d == ".space") {
      if (auto v = parse_plain_int(line.operands.empty() ? "" : line.operands[0]))
        data_pc_ += static_cast<u32>(*v);
      else
        error(line.number, ".space needs a size");
      return;
    }
    if (d == ".align") {
      if (auto v = parse_plain_int(line.operands.empty() ? "" : line.operands[0]))
        align_data(u32{1} << *v);
      else
        error(line.number, ".align needs a power");
      return;
    }
    if (d == ".asciiz") {
      data_pc_ += string_length(line) + 1;
      return;
    }
    error(line.number, "unknown directive '" + std::string(d) + "'");
  }

  void align_data(u32 alignment) {
    data_pc_ = (data_pc_ + alignment - 1) & ~(alignment - 1);
  }

  static unsigned count(const Line& line) {
    return static_cast<unsigned>(line.operands.size());
  }

  u32 string_length(const Line& line) {
    if (line.operands.size() != 1) return 0;
    std::string decoded;
    if (!decode_string(line.operands[0], &decoded)) return 0;
    return static_cast<u32>(decoded.size());
  }

  static bool decode_string(std::string_view tok, std::string* out) {
    if (tok.size() < 2 || tok.front() != '"' || tok.back() != '"') return false;
    for (std::size_t i = 1; i + 1 < tok.size(); ++i) {
      char c = tok[i];
      if (c == '\\' && i + 2 < tok.size()) {
        ++i;
        switch (tok[i]) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '0': c = '\0'; break;
          case '\\': c = '\\'; break;
          case '"': c = '"'; break;
          default: return false;
        }
      }
      out->push_back(c);
    }
    return true;
  }

  // --- value parsing ----------------------------------------------------------

  static std::optional<i64> parse_plain_int(std::string_view s) {
    if (s.empty()) return std::nullopt;
    bool neg = false;
    if (s.front() == '-') { neg = true; s.remove_prefix(1); }
    else if (s.front() == '+') { s.remove_prefix(1); }
    if (s.empty()) return std::nullopt;
    int base = 10;
    if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
      base = 16;
      s.remove_prefix(2);
    }
    u64 v = 0;
    const auto [ptr, ec] =
        std::from_chars(s.data(), s.data() + s.size(), v, base);
    if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
    return neg ? -static_cast<i64>(v) : static_cast<i64>(v);
  }

  // Resolves an operand to a 32-bit value: integer literal, label,
  // label+offset, label-offset, %hi(x), %lo(x).
  std::optional<u32> eval(std::string_view tok, unsigned line) {
    if (tok.starts_with("%hi(") && tok.back() == ')') {
      if (auto v = eval(tok.substr(4, tok.size() - 5), line))
        return (*v >> 16) & 0xffffu;
      return std::nullopt;
    }
    if (tok.starts_with("%lo(") && tok.back() == ')') {
      if (auto v = eval(tok.substr(4, tok.size() - 5), line))
        return *v & 0xffffu;
      return std::nullopt;
    }
    if (auto v = parse_plain_int(tok)) return static_cast<u32>(*v);
    // label[+-]offset
    std::size_t split = tok.npos;
    for (std::size_t i = 1; i < tok.size(); ++i)
      if (tok[i] == '+' || tok[i] == '-') { split = i; break; }
    const std::string_view base = tok.substr(0, split);
    const auto it = result_.program.symbols.find(base);
    if (it == result_.program.symbols.end()) {
      error(line, "unknown symbol '" + std::string(base) + "'");
      return std::nullopt;
    }
    u32 value = it->second;
    if (split != tok.npos) {
      const auto off = parse_plain_int(tok.substr(split));
      if (!off) {
        error(line, "bad offset in '" + std::string(tok) + "'");
        return std::nullopt;
      }
      value += static_cast<u32>(*off);
    }
    return value;
  }

  unsigned reg_operand(const Line& line, std::size_t idx) {
    if (idx >= line.operands.size()) {
      error(line.number, "missing register operand");
      return 0;
    }
    if (auto r = parse_reg(line.operands[idx])) return *r;
    error(line.number,
          "bad register '" + std::string(line.operands[idx]) + "'");
    return 0;
  }

  unsigned fp_reg_operand(const Line& line, std::size_t idx) {
    if (idx >= line.operands.size()) {
      error(line.number, "missing FP register operand");
      return 0;
    }
    if (auto r = parse_fp_reg(line.operands[idx])) return *r;
    error(line.number,
          "bad FP register '" + std::string(line.operands[idx]) + "'");
    return 0;
  }

  // --- pass 2: encoding -------------------------------------------------------

  void encode_pass(const std::vector<Line>& lines) {
    section_ = Section::Text;
    text_pc_ = data_pc_ = 0;
    auto& prog = result_.program;
    for (const auto& line : lines) {
      if (line.mnemonic.empty()) continue;
      if (line.mnemonic[0] == '.') {
        encode_directive(line);
        continue;
      }
      if (section_ != Section::Text) continue;  // error already reported
      encode_instruction(line);
    }
    (void)prog;
  }

  void emit(u32 word) {
    result_.program.text.push_back(word);
    text_pc_ += 4;
  }

  void data_bytes(const void* p, std::size_t n) {
    auto& data = result_.program.data;
    if (data.size() < data_pc_) data.resize(data_pc_, 0);
    const u8* b = static_cast<const u8*>(p);
    data.insert(data.end(), b, b + n);
    data_pc_ += static_cast<u32>(n);
  }

  void data_pad_to(u32 target) {
    auto& data = result_.program.data;
    if (data.size() < target) data.resize(target, 0);
    data_pc_ = target;
  }

  void encode_directive(const Line& line) {
    const std::string_view d = line.mnemonic;
    if (d == ".text") { section_ = Section::Text; return; }
    if (d == ".data") { section_ = Section::Data; return; }
    if (d == ".globl" || d == ".global") return;
    if (section_ != Section::Data) return;
    if (d == ".word") {
      data_pad_to((data_pc_ + 3) & ~3u);
      for (const auto& t : line.operands) {
        const u32 v = eval(t, line.number).value_or(0);
        data_bytes(&v, 4);  // little-endian host == little-endian target
      }
      return;
    }
    if (d == ".half") {
      data_pad_to((data_pc_ + 1) & ~1u);
      for (const auto& t : line.operands) {
        const u16 v = static_cast<u16>(eval(t, line.number).value_or(0));
        data_bytes(&v, 2);
      }
      return;
    }
    if (d == ".byte") {
      for (const auto& t : line.operands) {
        const u8 v = static_cast<u8>(eval(t, line.number).value_or(0));
        data_bytes(&v, 1);
      }
      return;
    }
    if (d == ".space") {
      const auto n = parse_plain_int(line.operands.empty() ? "" : line.operands[0]);
      data_pad_to(data_pc_ + static_cast<u32>(n.value_or(0)));
      return;
    }
    if (d == ".align") {
      const auto p = parse_plain_int(line.operands.empty() ? "" : line.operands[0]);
      const u32 a = u32{1} << p.value_or(0);
      data_pad_to((data_pc_ + a - 1) & ~(a - 1));
      return;
    }
    if (d == ".asciiz") {
      std::string s;
      if (line.operands.size() == 1 && decode_string(line.operands[0], &s)) {
        s.push_back('\0');
        data_bytes(s.data(), s.size());
      } else {
        error(line.number, ".asciiz needs one string literal");
      }
      return;
    }
  }

  // Branch offset (in words) from the *next* instruction to `target`.
  std::optional<i32> branch_offset(u32 target, unsigned line) {
    const u32 pc = result_.program.text_base + text_pc_;
    const i64 delta = static_cast<i64>(target) - static_cast<i64>(pc + 4);
    if (delta % 4 != 0) {
      error(line, "branch target not word-aligned");
      return std::nullopt;
    }
    const i64 words = delta / 4;
    if (words < -32768 || words > 32767) {
      error(line, "branch target out of range");
      return std::nullopt;
    }
    return static_cast<i32>(words);
  }

  bool check_imm16(i64 v, ImmKind kind, unsigned line) {
    const bool ok = kind == ImmKind::Zero ? (v >= 0 && v <= 0xffff)
                                          : (v >= -32768 && v <= 65535);
    if (!ok) error(line, "immediate " + std::to_string(v) + " out of range");
    return ok;
  }

  void encode_instruction(const Line& line) {
    const std::string_view m = line.mnemonic;

    // --- pseudo-instructions (fixed expansion sizes, see words_for) ---
    if (m == "nop") { emit(make_nop().raw); return; }
    if (m == "move") {
      const unsigned rd = reg_operand(line, 0), rs = reg_operand(line, 1);
      emit(make_r3(Op::ADDU, rd, rs, R_ZERO).raw);
      return;
    }
    if (m == "li" || m == "la") {
      const unsigned rt = reg_operand(line, 0);
      const u32 v = line.operands.size() > 1
                        ? eval(line.operands[1], line.number).value_or(0)
                        : (error(line.number,
                                 std::string(m) + " needs a value"),
                           0u);
      emit(make_lui(rt, v >> 16).raw);
      emit(make_iarith(Op::ORI, rt, rt, v & 0xffffu).raw);
      return;
    }
    if (m == "b") {
      const u32 target = line.operands.empty()
                             ? 0
                             : eval(line.operands[0], line.number).value_or(0);
      if (auto off = branch_offset(target, line.number))
        emit(make_br2(Op::BEQ, R_ZERO, R_ZERO, *off).raw);
      return;
    }
    if (m == "beqz" || m == "bnez") {
      const unsigned rs = reg_operand(line, 0);
      const u32 target = line.operands.size() > 1
                             ? eval(line.operands[1], line.number).value_or(0)
                             : 0;
      if (auto off = branch_offset(target, line.number))
        emit(make_br2(m == "beqz" ? Op::BEQ : Op::BNE, rs, R_ZERO, *off).raw);
      return;
    }

    // --- native instructions ---
    const auto op = op_from_mnemonic(m);
    if (!op) {
      error(line.number, "unknown mnemonic '" + std::string(m) + "'");
      return;
    }
    const OpInfo& info = op_info(*op);
    const auto expect = [&](std::size_t n) {
      if (line.operands.size() != n) {
        error(line.number, std::string(m) + " expects " + std::to_string(n) +
                               " operands");
        return false;
      }
      return true;
    };
    switch (info.sig) {
      case OperandSig::R3:
        if (!expect(3)) return;
        emit(make_r3(*op, reg_operand(line, 0), reg_operand(line, 1),
                     reg_operand(line, 2)).raw);
        return;
      case OperandSig::ShiftImm: {
        if (!expect(3)) return;
        const auto sh = parse_plain_int(line.operands[2]);
        if (!sh || *sh < 0 || *sh > 31) {
          error(line.number, "shift amount must be 0..31");
          return;
        }
        emit(make_shift_imm(*op, reg_operand(line, 0), reg_operand(line, 1),
                            static_cast<unsigned>(*sh)).raw);
        return;
      }
      case OperandSig::ShiftVar:
        if (!expect(3)) return;
        emit(make_shift_var(*op, reg_operand(line, 0), reg_operand(line, 1),
                            reg_operand(line, 2)).raw);
        return;
      case OperandSig::RsRt:
        if (!expect(2)) return;
        emit(make_rsrt(*op, reg_operand(line, 0), reg_operand(line, 1)).raw);
        return;
      case OperandSig::Rd:
        if (!expect(1)) return;
        emit(make_rd(*op, reg_operand(line, 0)).raw);
        return;
      case OperandSig::Rs:
        if (!expect(1)) return;
        emit(make_jr(reg_operand(line, 0)).raw);
        return;
      case OperandSig::RdRs:
        if (line.operands.size() == 1) {
          emit(make_jalr(R_RA, reg_operand(line, 0)).raw);
        } else if (expect(2)) {
          emit(make_jalr(reg_operand(line, 0), reg_operand(line, 1)).raw);
        }
        return;
      case OperandSig::NoOps:
        if (!expect(0)) return;
        emit(make_syscall().raw);
        return;
      case OperandSig::IArith: {
        if (!expect(3)) return;
        const auto v = eval(line.operands[2], line.number);
        if (!v) return;
        if (!check_imm16(static_cast<i32>(*v), info.imm, line.number)) return;
        emit(make_iarith(*op, reg_operand(line, 0), reg_operand(line, 1),
                         *v & 0xffffu).raw);
        return;
      }
      case OperandSig::Lui: {
        if (!expect(2)) return;
        const auto v = eval(line.operands[1], line.number);
        if (!v) return;
        emit(make_lui(reg_operand(line, 0), *v & 0xffffu).raw);
        return;
      }
      case OperandSig::Mem: {
        if (!expect(2)) return;
        // "imm(reg)" or "(reg)"; the offset may itself contain parens
        // (%lo(sym)), so the base register starts at the *last* '('.
        const std::string_view a = line.operands[1];
        const auto open = a.rfind('(');
        if (open == a.npos || a.back() != ')') {
          error(line.number, "memory operand must be offset(reg)");
          return;
        }
        i64 off = 0;
        if (open > 0) {
          const auto v = eval(a.substr(0, open), line.number);
          if (!v) return;
          off = static_cast<i32>(*v);
        }
        if (off < -32768 || off > 32767) {
          error(line.number, "memory offset out of range");
          return;
        }
        const auto base = parse_reg(a.substr(open + 1, a.size() - open - 2));
        if (!base) {
          error(line.number,
                "bad base register in '" + std::string(a) + "'");
          return;
        }
        emit(make_mem(*op, reg_operand(line, 0), *base,
                      static_cast<i32>(off)).raw);
        return;
      }
      case OperandSig::Br2: {
        if (!expect(3)) return;
        const auto target = eval(line.operands[2], line.number);
        if (!target) return;
        if (auto off = branch_offset(*target, line.number))
          emit(make_br2(*op, reg_operand(line, 0), reg_operand(line, 1),
                        *off).raw);
        return;
      }
      case OperandSig::Br1: {
        if (!expect(2)) return;
        const auto target = eval(line.operands[1], line.number);
        if (!target) return;
        if (auto off = branch_offset(*target, line.number))
          emit(make_br1(*op, reg_operand(line, 0), *off).raw);
        return;
      }
      case OperandSig::JTarget: {
        if (!expect(1)) return;
        const auto target = eval(line.operands[0], line.number);
        if (!target) return;
        emit(make_jump(*op, *target).raw);
        return;
      }
      case OperandSig::FpR3:
        if (!expect(3)) return;
        emit(make_fp3(*op, fp_reg_operand(line, 0), fp_reg_operand(line, 1),
                      fp_reg_operand(line, 2)).raw);
        return;
      case OperandSig::FpR2:
        if (!expect(2)) return;
        emit(make_fp2(*op, fp_reg_operand(line, 0),
                      fp_reg_operand(line, 1)).raw);
        return;
      case OperandSig::FpCmp:
        if (!expect(2)) return;
        emit(make_fpcmp(*op, fp_reg_operand(line, 0),
                        fp_reg_operand(line, 1)).raw);
        return;
      case OperandSig::Mfc1:
        if (!expect(2)) return;
        emit(make_mfc1(reg_operand(line, 0), fp_reg_operand(line, 1)).raw);
        return;
      case OperandSig::Mtc1:
        if (!expect(2)) return;
        emit(make_mtc1(reg_operand(line, 0), fp_reg_operand(line, 1)).raw);
        return;
      case OperandSig::FpMem: {
        if (!expect(2)) return;
        const std::string_view a = line.operands[1];
        const auto open = a.rfind('(');
        if (open == a.npos || a.back() != ')') {
          error(line.number, "memory operand must be offset(reg)");
          return;
        }
        i64 off = 0;
        if (open > 0) {
          const auto v = eval(a.substr(0, open), line.number);
          if (!v) return;
          off = static_cast<i32>(*v);
        }
        if (off < -32768 || off > 32767) {
          error(line.number, "memory offset out of range");
          return;
        }
        const auto base = parse_reg(a.substr(open + 1, a.size() - open - 2));
        if (!base) {
          error(line.number,
                "bad base register in '" + std::string(a) + "'");
          return;
        }
        emit(make_fpmem(*op, fp_reg_operand(line, 0), *base,
                        static_cast<i32>(off)).raw);
        return;
      }
      case OperandSig::FpBr: {
        if (!expect(1)) return;
        const auto target = eval(line.operands[0], line.number);
        if (!target) return;
        if (auto off = branch_offset(*target, line.number))
          emit(make_fpbr(*op, *off).raw);
        return;
      }
    }
  }
};

}  // namespace

AsmResult assemble(std::string_view source, const AsmOptions& opts) {
  return Assembler(opts).run(source);
}

}  // namespace bsp
