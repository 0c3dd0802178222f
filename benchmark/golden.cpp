#include "golden.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/interval.hpp"
#include "obs/json.hpp"

namespace bench {
namespace {

constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;
constexpr u64 kFnvPrime = 0x100000001b3ull;

void fnv_u64(u64& h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

std::string hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

Fingerprint fingerprint(const bsp::SimStats& stats) {
  Fingerprint f;
  f.cycles = stats.cycles;
  f.committed = stats.committed;
  f.hash = f.hash_nocpi = kFnvOffset;
  for (const bsp::obs::CounterDesc& c : bsp::obs::simstats_counters()) {
    const u64 v = stats.*c.field;
    fnv_u64(f.hash, v);
    if (std::string(c.name).rfind("cpi_", 0) != 0) fnv_u64(f.hash_nocpi, v);
  }
  return f;
}

bool load_golden(const std::string& path, Golden* out, std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream text;
  text << f.rdbuf();
  const auto doc = bsp::obs::parse_json(text.str());
  if (!doc || !doc->is_object()) {
    *error = path + " is not a JSON object";
    return false;
  }
  out->clear();
  for (const auto& [section, runs] : doc->object) {
    if (!runs.is_object()) {
      *error = path + ": section " + section + " is not an object";
      return false;
    }
    Prints& prints = (*out)[section];
    for (const auto& [key, v] : runs.object) {
      const auto* cycles = v.get("cycles");
      const auto* committed = v.get("committed");
      const auto* hash = v.get("hash");
      if (!cycles || !cycles->is_number() || !committed ||
          !committed->is_number() || !hash || !hash->is_string()) {
        *error = path + ": malformed entry " + section + "/" + key;
        return false;
      }
      Fingerprint& p = prints[key];
      p.cycles = static_cast<u64>(cycles->number);
      p.committed = static_cast<u64>(committed->number);
      p.hash = std::strtoull(hash->str.c_str(), nullptr, 16);
    }
  }
  return true;
}

bool save_golden(const std::string& path, const Golden& golden) {
  std::string out = "{\n";
  bool first_section = true;
  for (const auto& [section, prints] : golden) {
    if (!first_section) out += ",\n";
    first_section = false;
    out += "\"" + section + "\": {\n";
    bool first = true;
    for (const auto& [key, p] : prints) {
      if (!first) out += ",\n";
      first = false;
      out += "  \"" + key + "\": {\"cycles\": " + std::to_string(p.cycles) +
             ", \"committed\": " + std::to_string(p.committed) +
             ", \"hash\": \"" + hex(p.hash) + "\"}";
    }
    out += "\n}";
  }
  out += "\n}\n";
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << out;
  return static_cast<bool>(f.flush());
}

void compare_prints(const Prints& want, const Prints& got,
                    const std::string& what, bool nocpi,
                    std::vector<std::string>* errors) {
  for (const auto& [key, w] : want) {
    const auto it = got.find(key);
    if (it == got.end()) {
      errors->push_back(what + ": " + key + " missing");
      continue;
    }
    const Fingerprint& g = it->second;
    const u64 wh = nocpi ? w.hash_nocpi : w.hash;
    const u64 gh = nocpi ? g.hash_nocpi : g.hash;
    if (g.cycles != w.cycles || g.committed != w.committed || gh != wh)
      errors->push_back(what + ": " + key + " differs (cycles " +
                        std::to_string(w.cycles) + " vs " +
                        std::to_string(g.cycles) + ", committed " +
                        std::to_string(w.committed) + " vs " +
                        std::to_string(g.committed) + ", counter hash " +
                        hex(wh) + " vs " + hex(gh) + ")");
  }
  for (const auto& [key, g] : got)
    if (!want.count(key)) errors->push_back(what + ": unexpected " + key);
}

}  // namespace bench
