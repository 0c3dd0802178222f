// A loaded/assembled program image: text + data segments, entry point, and
// the symbol table. Shared between the assembler, the emulator loader, the
// workload generators and the tests.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/bitops.hpp"

namespace bsp {

inline constexpr u32 kDefaultTextBase = 0x00400000;
inline constexpr u32 kDefaultDataBase = 0x10000000;
inline constexpr u32 kDefaultStackTop = 0x7fffc000;

struct Program {
  u32 text_base = kDefaultTextBase;
  std::vector<u32> text;  // one encoded instruction per word

  u32 data_base = kDefaultDataBase;
  std::vector<u8> data;

  u32 entry = kDefaultTextBase;
  std::map<std::string, u32, std::less<>> symbols;  // string_view lookups

  u32 text_end() const {
    return text_base + static_cast<u32>(text.size()) * 4;
  }
  u32 data_end() const {
    return data_base + static_cast<u32>(data.size());
  }
  // Address of a symbol; asserts it exists (tests use the throwing lookup).
  u32 symbol(const std::string& name) const {
    const auto it = symbols.find(name);
    return it == symbols.end() ? 0 : it->second;
  }
  bool has_symbol(const std::string& name) const {
    return symbols.count(name) != 0;
  }
};

}  // namespace bsp
