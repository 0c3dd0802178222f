// Output checks: a fingerprint of each simulated run's statistics, and the
// committed golden file those fingerprints are compared against.
//
// Golden file (benchmark/golden/<seed>.json), written by --write-golden:
//   {"<section>": {"<run key>": {"cycles": C, "committed": N,
//                                "hash": "<16 hex digits>"}, ...}, ...}
// Sections are "detail" (its instrumented check round under "obs/<run key>"),
// "sampled-k8" and "sweep" (shared by the sweep workloads, which must agree
// task by task).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hpp"

namespace bench {

using bsp::u64;

struct Fingerprint {
  u64 cycles = 0;
  u64 committed = 0;
  u64 hash = 0;        // FNV-1a of every registered counter, registry order
  u64 hash_nocpi = 0;  // the same without the cpi_* leaves
};

Fingerprint fingerprint(const bsp::SimStats& stats);

// Run key ("gzip/x2", "bzip/i3", a campaign task id) -> fingerprint.
using Prints = std::map<std::string, Fingerprint>;
using Golden = std::map<std::string, Prints>;  // section -> prints

// Reads a golden file; false (with *error set) when it is missing or
// malformed.
bool load_golden(const std::string& path, Golden* out, std::string* error);
bool save_golden(const std::string& path, const Golden& golden);

// Appends one line to *errors per key missing from either side or whose
// fingerprints differ. With `nocpi`, only cycles, committed and hash_nocpi
// are compared (instruments add cpi_* counts and nothing else).
void compare_prints(const Prints& want, const Prints& got,
                    const std::string& what, bool nocpi,
                    std::vector<std::string>* errors);

}  // namespace bench
