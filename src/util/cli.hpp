// Minimal declarative CLI parser shared by the tools (bsp-sim, bsp-sweep,
// bsp-report, bsp-study), replacing hand-rolled strcmp chains. Supports
// long and short aliases, typed value options, repeatable options, flags
// with optional trailing values, hidden (internal) options, and a
// generated --help. Matches the historical bench behaviour:
// exits 0 on --help, exits 2 on an unknown option, a missing value, or —
// via the typed overloads and the parse_cli_* helpers — a malformed
// numeric value (trailing junk, overflow, or a negative where an unsigned
// is expected all reject; they no longer silently parse as 0).
#pragma once

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "util/bitops.hpp"

namespace bsp {

// Strict CLI numeric parsing. `what` names the option for the complaint
// (e.g. "--instructions"); any malformed value prints it and exits 2, the
// same contract as an unknown option. Base 0, so hex ("0x5eed") works.
inline u64 parse_cli_u64(const std::string& what, const std::string& v) {
  const char* s = v.c_str();
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(s, &end, 0);
  // strtoull silently wraps negatives into huge values; reject the sign
  // explicitly along with empty/partial parses and overflow.
  if (v.empty() || v.find('-') != std::string::npos || end == s ||
      *end != '\0' || errno == ERANGE) {
    std::cerr << what << ": invalid numeric value '" << v << "'\n";
    std::exit(2);
  }
  return static_cast<u64>(x);
}

inline unsigned parse_cli_unsigned(const std::string& what,
                                   const std::string& v) {
  const u64 x = parse_cli_u64(what, v);
  if (x > UINT_MAX) {
    std::cerr << what << ": value '" << v << "' out of range\n";
    std::exit(2);
  }
  return static_cast<unsigned>(x);
}

inline double parse_cli_double(const std::string& what,
                               const std::string& v) {
  const char* s = v.c_str();
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(s, &end);
  if (v.empty() || end == s || *end != '\0' || errno == ERANGE) {
    std::cerr << what << ": invalid numeric value '" << v << "'\n";
    std::exit(2);
  }
  return x;
}

class ArgParser {
 public:
  explicit ArgParser(std::string description)
      : description_(std::move(description)) {}

  // `names` is a comma-separated alias list, e.g. "-n, --instructions".
  // Aliases match exactly; the whole list is shown in --help.
  void add_flag(const std::string& names, const std::string& help,
                bool* out) {
    add_flag(names, help, [out] { *out = true; });
  }
  void add_flag(const std::string& names, const std::string& help,
                std::function<void()> fn) {
    add_optional_values(
        names, "", help, 0,
        [fn = std::move(fn)](const std::vector<std::string>&) { fn(); });
  }

  // A flag that may be followed by exactly `count` values, e.g.
  // "--trace [START END]": they are consumed only when the next `count`
  // arguments all exist and none starts with '-'. `fn` gets them, or an
  // empty vector when the flag stands alone.
  void add_optional_values(
      const std::string& names, const std::string& placeholder,
      const std::string& help, std::size_t count,
      std::function<void(const std::vector<std::string>&)> fn) {
    Option& o = add_option(names, placeholder, help);
    o.optional_values = count;
    o.apply_flag = std::move(fn);
  }

  // Value options; the typed conveniences parse strictly via parse_cli_*
  // (base 0, so hex "0x5eed" and decimal both work) and exit 2 on garbage
  // instead of silently yielding 0, naming the alias that was typed.
  void add_value(const std::string& names, const std::string& placeholder,
                 const std::string& help,
                 std::function<void(const std::string&)> fn) {
    add_option(names, placeholder, help).apply_value =
        [fn = std::move(fn)](const std::string&, const std::string& v) {
          fn(v);
        };
  }
  void add_value(const std::string& names, const std::string& placeholder,
                 const std::string& help, u64* out) {
    add_option(names, placeholder, help).apply_value =
        [out](const std::string& name, const std::string& v) {
          *out = parse_cli_u64(name, v);
        };
  }
  void add_value(const std::string& names, const std::string& placeholder,
                 const std::string& help, unsigned* out) {
    add_option(names, placeholder, help).apply_value =
        [out](const std::string& name, const std::string& v) {
          *out = parse_cli_unsigned(name, v);
        };
  }
  void add_value(const std::string& names, const std::string& placeholder,
                 const std::string& help, double* out) {
    add_option(names, placeholder, help).apply_value =
        [out](const std::string& name, const std::string& v) {
          *out = parse_cli_double(name, v);
        };
  }
  void add_value(const std::string& names, const std::string& placeholder,
                 const std::string& help, std::string* out) {
    add_value(names, placeholder, help,
              [out](const std::string& v) { *out = v; });
  }
  // Repeatable: every occurrence appends.
  void add_value(const std::string& names, const std::string& placeholder,
                 const std::string& help, std::vector<std::string>* out) {
    add_value(names, placeholder, help,
              [out](const std::string& v) { out->push_back(v); });
  }
  void add_value(const std::string& names, const std::string& placeholder,
                 const std::string& help, std::vector<u64>* out) {
    add_option(names, placeholder, help).apply_value =
        [out](const std::string& name, const std::string& v) {
          out->push_back(parse_cli_u64(name, v));
        };
  }

  // Internal plumbing options (e.g. bsp-sweep's --worker-json): parsed like
  // any value option but left out of --help.
  void add_hidden_value(const std::string& names,
                        const std::string& placeholder,
                        const std::string& help,
                        std::function<void(const std::string&)> fn) {
    add_value(names, placeholder, help, std::move(fn));
    options_.back().hidden = true;
  }
  void add_hidden_value(const std::string& names,
                        const std::string& placeholder,
                        const std::string& help, std::string* out) {
    add_hidden_value(names, placeholder, help,
                     [out](const std::string& v) { *out = v; });
  }

  // Bare (non-dash) arguments go to `fn` instead of being rejected.
  void set_positional(std::function<void(const std::string&)> fn) {
    positional_ = std::move(fn);
  }

  // Parses argv[1..]; on --help/-h prints usage and exits 0, on an unknown
  // option or missing value prints a complaint and exits 2.
  void parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--help" || a == "-h") {
        print_help(std::cout);
        std::exit(0);
      }
      if (positional_ && !a.empty() && a[0] != '-') {
        positional_(a);
        continue;
      }
      const Option* opt = find(a);
      if (!opt) {
        std::cerr << "unknown option " << a << " (try --help)\n";
        std::exit(2);
      }
      if (opt->apply_value) {
        if (i + 1 >= argc) {
          std::cerr << a << " needs a value\n";
          std::exit(2);
        }
        opt->apply_value(a, argv[++i]);
        continue;
      }
      const std::size_t n = opt->optional_values;
      std::vector<std::string> values;
      if (n > 0 && i + n < static_cast<std::size_t>(argc) &&
          std::all_of(argv + i + 1, argv + i + 1 + n,
                      [](const char* v) { return v[0] != '-'; })) {
        values.assign(argv + i + 1, argv + i + 1 + n);
        i += static_cast<int>(n);
      }
      opt->apply_flag(values);
    }
  }

  void print_help(std::ostream& os) const {
    os << description_ << "\n\nOptions:\n";
    std::vector<std::pair<std::string, std::string>> lines;
    std::size_t width = 0;
    for (const auto& o : options_) {
      if (o.hidden) continue;
      std::string left;
      for (std::size_t i = 0; i < o.names.size(); ++i) {
        if (i) left += ", ";
        left += o.names[i];
      }
      if (!o.placeholder.empty()) left += " " + o.placeholder;
      width = std::max(width, left.size());
      lines.emplace_back(std::move(left), o.help);
    }
    lines.emplace_back("-h, --help", "show this help");
    width = std::max(width, lines.back().first.size());
    for (const auto& [left, help] : lines)
      os << "  " << left << std::string(width - left.size() + 3, ' ') << help
         << "\n";
  }

 private:
  struct Option {
    std::vector<std::string> names;
    std::string placeholder;
    std::string help;
    // Value options get (the alias typed, its value); flags get their
    // optional trailing values.
    std::function<void(const std::string&, const std::string&)> apply_value;
    std::function<void(const std::vector<std::string>&)> apply_flag;
    std::size_t optional_values = 0;
    bool hidden = false;
  };

  Option& add_option(const std::string& names, const std::string& placeholder,
                     const std::string& help) {
    options_.emplace_back();
    Option& o = options_.back();
    o.names = split(names);
    o.placeholder = placeholder;
    o.help = help;
    return o;
  }

  static std::vector<std::string> split(const std::string& names) {
    std::vector<std::string> out;
    std::string cur;
    for (const char c : names) {
      if (c == ',') {
        if (!cur.empty()) out.push_back(cur);
        cur.clear();
      } else if (c != ' ') {
        cur += c;
      }
    }
    if (!cur.empty()) out.push_back(cur);
    return out;
  }

  const Option* find(const std::string& name) const {
    for (const auto& o : options_)
      for (const auto& n : o.names)
        if (n == name) return &o;
    return nullptr;
  }

  std::string description_;
  std::vector<Option> options_;
  std::function<void(const std::string&)> positional_;
};

}  // namespace bsp
