#include "obs/interval.hpp"

#include <cassert>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace bsp::obs {

const std::vector<CounterDesc>& simstats_counters() {
  static const std::vector<CounterDesc> kCounters = {
      {"cycles", "cycles", "simulated cycles elapsed", &SimStats::cycles},
      {"committed", "insts", "instructions retired", &SimStats::committed},
      {"dispatched", "insts", "correct-path instructions dispatched",
       &SimStats::dispatched},
      {"bogus_dispatched", "insts", "wrong-path instructions dispatched",
       &SimStats::bogus_dispatched},
      {"branches", "insts", "committed conditional branches",
       &SimStats::branches},
      {"branch_mispredicts", "events", "branch direction/target mispredicts",
       &SimStats::branch_mispredicts},
      {"early_resolved_branches", "events",
       "mispredicts signalled before the last slice completed",
       &SimStats::early_resolved_branches},
      {"loads", "insts", "committed loads", &SimStats::loads},
      {"stores", "insts", "committed stores", &SimStats::stores},
      {"load_forwards", "events", "loads satisfied by store forwarding",
       &SimStats::load_forwards},
      {"loads_issued_partial_lsq", "events",
       "loads issued on a partial-address LSQ compare",
       &SimStats::loads_issued_partial_lsq},
      {"partial_tag_accesses", "accesses",
       "D-cache probes made with a partial tag",
       &SimStats::partial_tag_accesses},
      {"way_mispredicts", "events", "partial-tag way-prediction replays",
       &SimStats::way_mispredicts},
      {"early_miss_detects", "events",
       "misses proven early by the partial tag", &SimStats::early_miss_detects},
      {"load_replays", "events", "load-latency mis-speculation replays",
       &SimStats::load_replays},
      {"op_replays", "events", "slice-ops squashed by selective replay",
       &SimStats::op_replays},
      // Reserved: speculative forwarding was removed and nothing writes
      // these two or cpi_spec_forward. Store records, interval JSONL
      // (descriptions included) and the benchmark's golden fingerprints
      // cover every entry, so they stay in place, always 0.
      {"spec_forwards", "events",
       "speculative partial-match store forwards tried",
       &SimStats::spec_forwards},
      {"spec_forward_misses", "events",
       "speculative forwards refuted by verification",
       &SimStats::spec_forward_misses},
      {"narrow_operands", "events",
       "results eligible for narrow-width early release",
       &SimStats::narrow_operands},
      {"l1d_hits", "accesses", "L1 D-cache hits", &SimStats::l1d_hits},
      {"l1d_misses", "accesses", "L1 D-cache misses", &SimStats::l1d_misses},
      {"idle_cycles_skipped", "cycles",
       "simulated cycles fast-forwarded by the idle-skip optimisation",
       &SimStats::idle_cycles_skipped},
      // CPI-stack leaves (obs/cpi_stack.hpp), appended after the first
      // stores were written and therefore optional for the store parser.
      // Keep this block in CpiCause enum order.
      {"cpi_base", "slots", "commit slots that retired an instruction",
       &SimStats::cpi_base, true},
      {"cpi_fe_icache", "slots", "slots lost to I-cache fetch stalls",
       &SimStats::cpi_fe_icache, true},
      {"cpi_fe_fill", "slots", "slots lost to front-end pipeline fill",
       &SimStats::cpi_fe_fill, true},
      {"cpi_br_squash", "slots",
       "slots lost refilling after a branch misprediction squash",
       &SimStats::cpi_br_squash, true},
      {"cpi_ruu_full", "slots",
       "slots lost with the head executing and the RUU full",
       &SimStats::cpi_ruu_full, true},
      {"cpi_slice_low", "slots",
       "slots lost waiting for the head's low-slice operands",
       &SimStats::cpi_slice_low, true},
      {"cpi_slice_chain", "slots",
       "slots lost in the head's cross-slice carry chain",
       &SimStats::cpi_slice_chain, true},
      {"cpi_exec_unit", "slots",
       "slots lost to execution latency of a selected head op",
       &SimStats::cpi_exec_unit, true},
      {"cpi_br_resolve", "slots",
       "slots lost waiting for the head branch to resolve",
       &SimStats::cpi_br_resolve, true},
      {"cpi_lsq_disambig", "slots",
       "slots lost to LSQ address disambiguation",
       &SimStats::cpi_lsq_disambig, true},
      {"cpi_dcache", "slots", "slots lost waiting on D-cache load data",
       &SimStats::cpi_dcache, true},
      {"cpi_partial_tag", "slots",
       "slots lost verifying partial-tag way speculation",
       &SimStats::cpi_partial_tag, true},
      // Reserved, never charged: see spec_forwards above.
      {"cpi_spec_forward", "slots",
       "slots lost verifying speculative partial-match forwards",
       &SimStats::cpi_spec_forward, true},
      {"cpi_store_data", "slots",
       "slots lost waiting for the head store's address/data",
       &SimStats::cpi_store_data, true},
      {"cpi_drain", "slots",
       "slots lost to exit drain or end-of-measurement clamp",
       &SimStats::cpi_drain, true},
      {"cpi_other", "slots", "slots the taxonomy could not attribute",
       &SimStats::cpi_other, true},
  };
  return kCounters;
}

int counter_index(const std::string& name) {
  const auto& regs = simstats_counters();
  for (std::size_t i = 0; i < regs.size(); ++i)
    if (name == regs[i].name) return static_cast<int>(i);
  return -1;
}

const std::vector<DerivedDesc>& derived_metrics() {
  static const std::vector<DerivedDesc> kDerived = {
      {"ipc", "committed / cycles over the interval"},
      {"replay_rate", "(load_replays + op_replays) / committed"},
      {"l1d_miss_rate", "l1d_misses / (l1d_hits + l1d_misses)"},
  };
  return kDerived;
}

namespace {
// Registry indices the derived rates read from a row's delta vector.
struct DerivedIndices {
  int cycles = counter_index("cycles");
  int committed = counter_index("committed");
  int load_replays = counter_index("load_replays");
  int op_replays = counter_index("op_replays");
  int l1d_hits = counter_index("l1d_hits");
  int l1d_misses = counter_index("l1d_misses");
};
const DerivedIndices& idx() {
  static const DerivedIndices k{};
  return k;
}
}  // namespace

double IntervalRow::ipc() const {
  const u64 dc = delta[idx().cycles], dm = delta[idx().committed];
  return dc ? static_cast<double>(dm) / static_cast<double>(dc) : 0.0;
}

double IntervalRow::replay_rate() const {
  const u64 dm = delta[idx().committed];
  const u64 r = delta[idx().load_replays] + delta[idx().op_replays];
  return dm ? static_cast<double>(r) / static_cast<double>(dm) : 0.0;
}

double IntervalRow::l1d_miss_rate() const {
  const u64 acc = delta[idx().l1d_hits] + delta[idx().l1d_misses];
  return acc ? static_cast<double>(delta[idx().l1d_misses]) /
                   static_cast<double>(acc)
             : 0.0;
}

IntervalSampler::IntervalSampler(u64 every, std::ostream* os)
    : every_(every ? every : 1), next_at_(every_), os_(os) {}

std::string IntervalSampler::header_line(u64 every,
                                         const std::string& config) {
  std::ostringstream os;
  os << "{\"type\":\"header\",\"version\":1,\"interval\":" << every
     << ",\"config\":\"" << json_escape(config) << "\",\"columns\":[";
  bool first = true;
  for (const CounterDesc& c : simstats_counters()) {
    os << (first ? "" : ",") << "{\"name\":\"" << c.name << "\",\"unit\":\""
       << c.unit << "\",\"desc\":\"" << json_escape(c.desc) << "\"}";
    first = false;
  }
  os << "],\"derived\":[";
  first = true;
  for (const DerivedDesc& d : derived_metrics()) {
    os << (first ? "" : ",") << "{\"name\":\"" << d.name << "\",\"desc\":\""
       << json_escape(d.desc) << "\"}";
    first = false;
  }
  os << "]}";
  return os.str();
}

std::string IntervalSampler::row_line(const IntervalRow& row) {
  assert(row.delta.size() == simstats_counters().size());
  std::ostringstream os;
  os << "{\"type\":\"sample\",\"cycle\":" << row.cycle
     << ",\"committed\":" << row.committed << ",\"delta\":{";
  const auto& regs = simstats_counters();
  for (std::size_t i = 0; i < regs.size(); ++i)
    os << (i ? ",\"" : "\"") << regs[i].name << "\":" << row.delta[i];
  os << "},\"ipc\":" << fixed6(row.ipc())
     << ",\"replay_rate\":" << fixed6(row.replay_rate())
     << ",\"l1d_miss_rate\":" << fixed6(row.l1d_miss_rate()) << "}";
  return os.str();
}

void IntervalSampler::begin(const std::string& config) {
  if (os_) *os_ << header_line(every_, config) << "\n";
}

void IntervalSampler::rebase(const SimStats& s) {
  base_ = s;
  rows_.clear();
  next_at_ = s.committed + every_;
}

void IntervalSampler::record(const SimStats& s) {
  IntervalRow row;
  row.cycle = s.cycles;
  row.committed = s.committed;
  const auto& regs = simstats_counters();
  row.delta.reserve(regs.size());
  for (const CounterDesc& c : regs)
    row.delta.push_back(s.*(c.field) - base_.*(c.field));
  if (os_) *os_ << row_line(row) << "\n";
  rows_.push_back(std::move(row));
  base_ = s;
}

void IntervalSampler::sample(const SimStats& s) {
  record(s);
  next_at_ = s.committed + every_;
}

void IntervalSampler::finish(const SimStats& s) {
  if (s.committed > base_.committed) record(s);
  if (os_) os_->flush();
}

}  // namespace bsp::obs
