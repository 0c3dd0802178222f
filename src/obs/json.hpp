// Minimal recursive-descent JSON parser: the tree's one JSON reader. It reads
// campaign-store records, the remote SPEC/HELLO/TASK/RECORD frames, and the
// observability layer's own output (Chrome trace JSON, interval-stats JSONL)
// without an external dependency. Numbers are doubles, so a reader of
// integers goes through JsonValue::as_uint. \uXXXX escapes decode to UTF-8,
// surrogate pairs included; a lone surrogate is a syntax error. Nesting
// deeper than 64 is rejected, so a peer's frame cannot exhaust the stack.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/bitops.hpp"

namespace bsp::obs {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;

  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;  // ordered: deterministic dumps

  bool is_object() const { return kind == Kind::Object; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }

  // The number as an integer in [0, max]; nullopt when this is not a
  // number or is negative, fractional or above `max` — the guard every
  // reader of outside input needs before casting a double to an integer.
  std::optional<u64> as_uint(u64 max) const;

  // Object member access; nullptr when absent or not an object.
  const JsonValue* get(const std::string& key) const {
    if (kind != Kind::Object) return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

// Parses one complete JSON document (trailing whitespace allowed, trailing
// garbage rejected). Returns nullopt on any syntax error.
std::optional<JsonValue> parse_json(const std::string& text);

// Appends `cp` (a Unicode scalar value, <= U+10FFFF) to `out` as UTF-8: the
// parser's \uXXXX decoder.
void append_utf8(char32_t cp, std::string& out);

// `s` escaped for use inside a JSON string literal: quote, backslash and
// every control character below 0x20 are escaped, other bytes (UTF-8
// included) pass through. The one escaper every JSON writer in the tree
// uses, so parse_json of the quoted result gives `s` back.
std::string json_escape(const std::string& s);

// `v` with exactly six decimals ("%.6f"): the one format the JSON writers
// use for non-integral numbers (seconds, rates, IPC), so their bytes stay
// stable.
std::string fixed6(double v);

}  // namespace bsp::obs
