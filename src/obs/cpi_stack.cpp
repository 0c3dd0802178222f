#include "obs/cpi_stack.hpp"

#include <cstdio>
#include <sstream>

namespace bsp::obs {

const std::vector<CpiLeafDesc>& cpi_leaves() {
  static const std::vector<CpiLeafDesc> kLeaves = {
      {CpiCause::Base, "cpi_base", "base",
       "commit slots that retired an instruction", &SimStats::cpi_base},
      {CpiCause::FeIcache, "cpi_fe_icache", "frontend",
       "I-cache fetch stalls", &SimStats::cpi_fe_icache},
      {CpiCause::FeFill, "cpi_fe_fill", "frontend",
       "front-end pipeline fill", &SimStats::cpi_fe_fill},
      {CpiCause::BrSquash, "cpi_br_squash", "frontend",
       "post-misprediction squash refill", &SimStats::cpi_br_squash},
      {CpiCause::RuuFull, "cpi_ruu_full", "backend",
       "window full behind an executing head", &SimStats::cpi_ruu_full},
      {CpiCause::SliceLow, "cpi_slice_low", "backend",
       "waiting for low-slice operands", &SimStats::cpi_slice_low},
      {CpiCause::SliceChain, "cpi_slice_chain", "backend",
       "cross-slice carry chain", &SimStats::cpi_slice_chain},
      {CpiCause::ExecUnit, "cpi_exec_unit", "backend",
       "execution latency of a selected op", &SimStats::cpi_exec_unit},
      {CpiCause::BrResolve, "cpi_br_resolve", "backend",
       "branch resolution outstanding", &SimStats::cpi_br_resolve},
      {CpiCause::LsqDisambig, "cpi_lsq_disambig", "memory",
       "LSQ address disambiguation", &SimStats::cpi_lsq_disambig},
      {CpiCause::Dcache, "cpi_dcache", "memory",
       "D-cache load data", &SimStats::cpi_dcache},
      {CpiCause::PartialTag, "cpi_partial_tag", "speculation",
       "partial-tag way verification", &SimStats::cpi_partial_tag},
      {CpiCause::StoreData, "cpi_store_data", "memory",
       "store address/data ops", &SimStats::cpi_store_data},
      {CpiCause::Drain, "cpi_drain", "drain",
       "exit drain / end-of-measurement", &SimStats::cpi_drain},
      {CpiCause::Other, "cpi_other", "other",
       "unattributed", &SimStats::cpi_other},
  };
  return kLeaves;
}

const char* cpi_cause_name(CpiCause cause) {
  return cpi_leaves()[static_cast<unsigned>(cause)].name;
}

u64 cpi_slot_total(const SimStats& s) {
  u64 total = 0;
  for (const CpiLeafDesc& leaf : cpi_leaves()) total += s.*leaf.field;
  return total;
}

bool cpi_enabled(const SimStats& s) {
  return s.cycles == 0 || cpi_slot_total(s) != 0;
}

bool cpi_identity_holds(const SimStats& s, unsigned commit_width,
                        std::string* why) {
  const u64 total = cpi_slot_total(s);
  const u64 expect = s.cycles * commit_width;
  if (total == expect) return true;
  if (why) {
    std::ostringstream os;
    os << "cpi identity violated: leaves sum to " << total << ", expected "
       << s.cycles << " cycles * " << commit_width << " wide = " << expect;
    *why = os.str();
  }
  return false;
}

namespace {
std::string pct(u64 part, u64 whole) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%5.1f%%",
                whole ? 100.0 * static_cast<double>(part) /
                            static_cast<double>(whole)
                      : 0.0);
  return buf;
}
}  // namespace

double cpi_contribution(u64 slots, u64 committed, unsigned commit_width) {
  const double denom =
      static_cast<double>(committed) * static_cast<double>(commit_width);
  return denom > 0 ? static_cast<double>(slots) / denom : 0.0;
}

std::string format_cpi_stack(const SimStats& s, unsigned commit_width) {
  std::ostringstream os;
  const u64 total = cpi_slot_total(s);
  os << "CPI stack (" << total << " slots = " << s.cycles << " cycles x "
     << commit_width << " wide):\n";
  for (const CpiLeafDesc& leaf : cpi_leaves()) {
    const u64 slots = s.*leaf.field;
    if (!slots) continue;
    char line[160];
    std::snprintf(line, sizeof line, "  %-16s %12llu  %s  cpi %.4f  (%s)\n",
                  leaf.name, static_cast<unsigned long long>(slots),
                  pct(slots, total).c_str(),
                  cpi_contribution(slots, s.committed, commit_width),
                  leaf.desc);
    os << line;
  }
  std::string why;
  if (cpi_identity_holds(s, commit_width, &why))
    os << "  identity: ok (" << total << " == " << s.cycles << " * "
       << commit_width << ")\n";
  else
    os << "  " << why << "\n";
  return os.str();
}

std::string cpi_stack_json(const SimStats& s, unsigned commit_width) {
  std::ostringstream os;
  os << "{";
  for (const CpiLeafDesc& leaf : cpi_leaves())
    os << "\"" << leaf.name << "\":" << s.*leaf.field << ",";
  os << "\"cycles\":" << s.cycles << ",\"committed\":" << s.committed
     << ",\"commit_width\":" << commit_width << "}";
  return os.str();
}

}  // namespace bsp::obs
