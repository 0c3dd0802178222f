#include "asm/objfile.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "asm/assembler.hpp"

namespace bsp {

namespace {

constexpr u32 kMagic = 0x4f505342;  // "BSPO"
constexpr u32 kVersion = 1;

// Guards against absurd allocations from corrupt headers.
constexpr u32 kMaxTextWords = 1u << 24;
constexpr u32 kMaxDataBytes = 1u << 28;
constexpr u32 kMaxSymbols = 1u << 20;
constexpr u32 kMaxNameLen = 4096;

void put_u32(std::ostream& os, u32 v) {
  const char bytes[4] = {
      static_cast<char>(v), static_cast<char>(v >> 8),
      static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  os.write(bytes, 4);
}

bool get_u32(std::istream& is, u32* v) {
  unsigned char bytes[4];
  if (!is.read(reinterpret_cast<char*>(bytes), 4)) return false;
  *v = u32{bytes[0]} | (u32{bytes[1]} << 8) | (u32{bytes[2]} << 16) |
       (u32{bytes[3]} << 24);
  return true;
}

std::optional<Program> fail(std::string* error, const char* why) {
  if (error) *error = why;
  return std::nullopt;
}

}  // namespace

bool save_object(const Program& program, std::ostream& os) {
  put_u32(os, kMagic);
  put_u32(os, kVersion);
  put_u32(os, program.entry);
  put_u32(os, program.text_base);
  put_u32(os, static_cast<u32>(program.text.size()));
  put_u32(os, program.data_base);
  put_u32(os, static_cast<u32>(program.data.size()));
  put_u32(os, static_cast<u32>(program.symbols.size()));
  for (const u32 w : program.text) put_u32(os, w);
  if (!program.data.empty())
    os.write(reinterpret_cast<const char*>(program.data.data()),
             static_cast<std::streamsize>(program.data.size()));
  for (const auto& [name, addr] : program.symbols) {
    put_u32(os, static_cast<u32>(name.size()));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    put_u32(os, addr);
  }
  return static_cast<bool>(os);
}

std::optional<Program> load_object(std::istream& is, std::string* error) {
  u32 magic = 0, version = 0;
  if (!get_u32(is, &magic) || magic != kMagic)
    return fail(error, "not a BSPO object file");
  if (!get_u32(is, &version) || version != kVersion)
    return fail(error, "unsupported BSPO version");

  Program p;
  u32 text_words = 0, data_bytes = 0, symbol_count = 0;
  if (!get_u32(is, &p.entry) || !get_u32(is, &p.text_base) ||
      !get_u32(is, &text_words) || !get_u32(is, &p.data_base) ||
      !get_u32(is, &data_bytes) || !get_u32(is, &symbol_count))
    return fail(error, "truncated header");
  if (text_words > kMaxTextWords || data_bytes > kMaxDataBytes ||
      symbol_count > kMaxSymbols)
    return fail(error, "implausible section sizes");

  p.text.resize(text_words);
  for (u32& w : p.text)
    if (!get_u32(is, &w)) return fail(error, "truncated text section");
  p.data.resize(data_bytes);
  if (data_bytes &&
      !is.read(reinterpret_cast<char*>(p.data.data()), data_bytes))
    return fail(error, "truncated data section");

  for (u32 i = 0; i < symbol_count; ++i) {
    u32 len = 0, addr = 0;
    if (!get_u32(is, &len) || len > kMaxNameLen)
      return fail(error, "bad symbol record");
    std::string name(len, '\0');
    if (len && !is.read(name.data(), len))
      return fail(error, "truncated symbol name");
    if (!get_u32(is, &addr)) return fail(error, "truncated symbol address");
    p.symbols.emplace(std::move(name), addr);
  }
  return p;
}

bool save_object_file(const Program& program, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  return os && save_object(program, os);
}

std::optional<Program> load_object_file(const std::string& path,
                                        std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  return load_object(is, error);
}

std::optional<Program> load_program_file(const std::string& path,
                                         std::string* error) {
  if (path.size() > 5 && path.compare(path.size() - 5, 5, ".bspo") == 0)
    return load_object_file(path, error);
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  AsmResult r = assemble(ss.str());
  if (!r.ok()) {
    if (error) {
      *error = path + ":\n" + r.error_text();
      error->pop_back();  // error_text() ends every line with '\n'
    }
    return std::nullopt;
  }
  return std::move(r.program);
}

}  // namespace bsp
