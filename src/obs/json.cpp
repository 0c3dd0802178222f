#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace bsp::obs {

void append_utf8(char32_t cp, std::string& out) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fixed6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::optional<u64> JsonValue::as_uint(u64 max) const {
  // 2^64 is exact as a double; every smaller non-negative integral double
  // converts to u64 without overflow.
  if (!is_number() || !(number >= 0) || number >= 18446744073709551616.0 ||
      std::floor(number) != number)
    return std::nullopt;
  const u64 v = static_cast<u64>(number);
  if (v > max) return std::nullopt;
  return v;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  std::optional<JsonValue> parse() {
    skip_ws();
    JsonValue v;
    if (!value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool lit(const char* word, JsonValue& out, JsonValue::Kind kind, bool b) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    out.kind = kind;
    out.boolean = b;
    return true;
  }

  // Reads exactly four hex digits at pos_ into `cp`.
  bool hex4(char32_t& cp) {
    if (pos_ + 4 > s_.size()) return false;
    cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_ + static_cast<std::size_t>(i)];
      cp <<= 4;
      if (c >= '0' && c <= '9')
        cp |= static_cast<char32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        cp |= static_cast<char32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        cp |= static_cast<char32_t>(c - 'A' + 10);
      else
        return false;
    }
    pos_ += 4;
    return true;
  }

  bool string(std::string& out) {
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            char32_t cp;
            if (!hex4(cp)) return false;
            if (cp >= 0xDC00 && cp <= 0xDFFF) return false;  // lone low
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: must be chased by \uDC00..\uDFFF; the pair
              // combines into one supplementary-plane code point.
              if (pos_ + 2 > s_.size() || s_[pos_] != '\\' ||
                  s_[pos_ + 1] != 'u')
                return false;
              pos_ += 2;
              char32_t lo;
              if (!hex4(lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF) return false;
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            }
            append_utf8(cp, out);
            break;
          }
          default: return false;
        }
      } else {
        out += c;
      }
    }
    return false;  // unterminated
  }

  bool value(JsonValue& out) {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      // Bounded recursion: a deeper document is rejected, not a crash.
      if (depth_ == kMaxDepth) return false;
      ++depth_;
      const bool ok = c == '{' ? object(out) : array(out);
      --depth_;
      return ok;
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::String;
      return string(out.str);
    }
    if (c == 't') return lit("true", out, JsonValue::Kind::Bool, true);
    if (c == 'f') return lit("false", out, JsonValue::Kind::Bool, false);
    if (c == 'n') return lit("null", out, JsonValue::Kind::Null, false);
    return number(out);
  }

  bool number(JsonValue& out) {
    const char* start = s_.c_str() + pos_;
    // JSON numbers only: strtod alone would also take "+1", hex, "inf" and
    // "nan".
    if (*start != '-' && !std::isdigit(static_cast<unsigned char>(*start)))
      return false;
    char* end = nullptr;
    out.number = std::strtod(start, &end);
    const auto len = static_cast<std::size_t>(end - start);
    if (len == 0 || std::strspn(start, "0123456789+-.eE") < len) return false;
    pos_ += len;
    out.kind = JsonValue::Kind::Number;
    return true;
  }

  bool array(JsonValue& out) {
    out.kind = JsonValue::Kind::Array;
    if (!eat('[')) return false;
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      JsonValue v;
      skip_ws();
      if (!value(v)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  bool object(JsonValue& out) {
    out.kind = JsonValue::Kind::Object;
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      JsonValue v;
      if (!value(v)) return false;
      out.object.emplace(std::move(key), std::move(v));
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  // Records and frames nest three deep; the bound only has to stop a
  // hostile peer from exhausting the stack.
  static constexpr int kMaxDepth = 64;

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<JsonValue> parse_json(const std::string& text) {
  return Parser(text).parse();
}

}  // namespace bsp::obs
