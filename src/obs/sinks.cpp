#include "obs/sinks.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "obs/cpi_stack.hpp"
#include "obs/json.hpp"

namespace bsp::obs {
namespace {

std::string hex_pc(u32 pc) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", pc);
  return buf;
}

const char* lsq_decision_name(u64 decision) {
  return decision == 1 ? "forward" : "issue";
}

const char* verify_outcome_name(u64 outcome) {
  switch (outcome) {
    case 1: return "hit-speculated miss";
    case 2: return "way mispredict";
    case 3: return "miss";
    default: return "confirmed";
  }
}

// Squash/IdleSkip `b` payload: 1 + CpiCause (trace.hpp). nullptr when the
// producer predates the taxonomy (b == 0) or the value is out of range.
const char* stall_cause_name(u64 b) {
  if (b == 0 || b > kNumCpiCauses) return nullptr;
  return cpi_cause_name(static_cast<CpiCause>(b - 1));
}

}  // namespace

// ---------------------------------------------------------------------------
// PipeTextSink — byte-identical to the core's original inline trace.

void PipeTextSink::event(const TraceEvent& ev) {
  if (ev.cycle < start_ || ev.cycle >= end_) return;
  std::ostream& os = *os_;
  switch (ev.kind) {
    case EventKind::Dispatch:
      os << "cyc " << ev.cycle << ": "
         << "D    #" << ev.seq << " pc=0x" << std::hex << ev.pc << std::dec
         << "  " << (ev.text ? ev.text : "")
         << ((ev.flags & kFlagBogus) ? "  [wrong-path]" : "")
         << ((ev.flags & kFlagMispredicted) ? "  [mispredicted]" : "")
         << "\n";
      break;
    case EventKind::OpSelect:
      os << "cyc " << ev.cycle << ": "
         << "X    #" << ev.seq
         << ((ev.flags & kFlagMultiOp) ? ".slice" : ".op") << ev.op_idx
         << "  done@" << ev.a << "\n";
      break;
    case EventKind::CacheAccess:
      os << "cyc " << ev.cycle << ": "
         << "M    #" << ev.seq << " D$ access ("
         << (ev.b < 32 ? "partial tag" : "full address")
         << ((ev.flags & kFlagEarly) ? ", early miss" : "") << ") data@"
         << ev.a << "\n";
      break;
    case EventKind::BranchResolve:
      os << "cyc " << ev.cycle << ": "
         << "B    #" << ev.seq << " resolved@" << ev.a
         << ((ev.flags & kFlagEarly) ? " [early]" : "")
         << ((ev.flags & kFlagMispredicted) ? " MISPREDICT -> recover"
                                            : " ok")
         << "\n";
      break;
    case EventKind::Commit:
      os << "cyc " << ev.cycle << ": "
         << "C    #" << ev.seq << " pc=0x" << std::hex << ev.pc << std::dec
         << "\n";
      break;
    default:
      break;  // kinds the classic text trace never showed
  }
}

// ---------------------------------------------------------------------------
// ChromeTraceSink

void ChromeTraceSink::emit_meta(int tid, const std::string& name) {
  std::ostream& os = *os_;
  os << (first_ ? "\n" : ",\n") << "{\"name\":\"thread_name\",\"ph\":\"M\","
     << "\"pid\":0,\"tid\":" << tid << ",\"args\":{\"name\":\""
     << json_escape(name) << "\"}}";
  first_ = false;
}

void ChromeTraceSink::emit(int tid, const char* ph, const std::string& name,
                           u64 ts, u64 dur, const std::string& args_json) {
  std::ostream& os = *os_;
  os << (first_ ? "\n" : ",\n") << "{\"name\":\"" << json_escape(name)
     << "\",\"ph\":\"" << ph << "\",\"ts\":" << ts;
  if (ph[0] == 'X') os << ",\"dur\":" << dur;
  if (ph[0] == 'i') os << ",\"s\":\"t\"";
  os << ",\"pid\":0,\"tid\":" << tid;
  if (!args_json.empty()) os << ",\"args\":{" << args_json << "}";
  os << "}";
  first_ = false;
}

void ChromeTraceSink::begin(const TraceMeta& meta) {
  std::ostream& os = *os_;
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"config\":\""
     << json_escape(meta.config) << "\"},\"traceEvents\":[";
  first_ = true;
  os << (first_ ? "\n" : ",\n")
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
     << "\"args\":{\"name\":\"bsp-sim\"}}";
  first_ = false;
  emit_meta(kTidFrontend, "frontend/dispatch");
  for (unsigned s = 0; s < meta.slices; ++s)
    emit_meta(kTidSlice0 + static_cast<int>(s),
              std::string("slice lane ") + std::to_string(s));
  emit_meta(kTidLsq, "lsq disambiguation");
  emit_meta(kTidDcache, "d-cache");
  emit_meta(kTidBranch, "branch resolve");
  emit_meta(kTidReplay, "replay/squash");
  emit_meta(kTidCommit, "in-flight (dispatch to commit)");
  emit_meta(kTidIdle, "idle skip");
}

void ChromeTraceSink::event(const TraceEvent& ev) {
  std::string tag = "#";
  tag += std::to_string(ev.seq);
  switch (ev.kind) {
    case EventKind::Dispatch: {
      std::string args = "\"pc\":\"" + hex_pc(ev.pc) + "\"";
      if (ev.text)
        args += ",\"disasm\":\"" + json_escape(ev.text) + "\"";
      if (ev.flags & kFlagBogus) args += ",\"wrong_path\":true";
      if (ev.flags & kFlagMispredicted) args += ",\"mispredicted\":true";
      emit(kTidFrontend, "i", tag + " dispatch", ev.cycle, 0, args);
      break;
    }
    case EventKind::OpSelect: {
      const int lane = kTidSlice0 + static_cast<int>(ev.op_idx);
      const u64 dur = ev.a > ev.cycle ? ev.a - ev.cycle : 1;
      const char* unit = (ev.flags & kFlagMultiOp) ? ".slice" : ".op";
      emit(lane, "X", tag + unit + std::to_string(ev.op_idx), ev.cycle, dur,
           "\"done\":" + std::to_string(ev.a));
      break;
    }
    case EventKind::OpReplay:
      emit(kTidReplay, "i",
           tag + ".op" + std::to_string(ev.op_idx) + " replay", ev.cycle, 0,
           "");
      break;
    case EventKind::LsqDecision:
      emit(kTidLsq, "i",
           tag + " lsq " + lsq_decision_name(ev.b), ev.cycle, 0,
           "\"addr_bits\":" + std::to_string(ev.a));
      break;
    case EventKind::CacheAccess: {
      const u64 dur = ev.a > ev.cycle ? ev.a - ev.cycle : 1;
      std::string name = tag + " D$";
      if (ev.flags & kFlagPartial) name += " partial-tag";
      if (ev.flags & kFlagEarly) name += " early-miss";
      emit(kTidDcache, "X", name, ev.cycle, dur,
           "\"tag_bits\":" + std::to_string(ev.b) +
               ",\"data\":" + std::to_string(ev.a));
      break;
    }
    case EventKind::CacheVerify:
      emit(kTidDcache, "i",
           tag + " verify: " + verify_outcome_name(ev.b), ev.cycle, 0,
           "\"data\":" + std::to_string(ev.a));
      break;
    case EventKind::BranchResolve: {
      std::string name = tag + " resolve";
      if (ev.flags & kFlagEarly) name += " [early]";
      if (ev.flags & kFlagMispredicted) name += " MISPREDICT";
      emit(kTidBranch, "i", name, ev.cycle, 0, "");
      break;
    }
    case EventKind::Squash: {
      std::string args;
      if (const char* cause = stall_cause_name(ev.b))
        args = "\"cause\":\"" + std::string(cause) + "\"";
      emit(kTidReplay, "i", tag + " squash", ev.cycle, 0, args);
      break;
    }
    case EventKind::Commit:
      // In-flight window: dispatch cycle (a) → commit cycle.
      emit(kTidCommit, "X", tag, ev.a,
           ev.cycle > ev.a ? ev.cycle - ev.a : 1,
           "\"pc\":\"" + hex_pc(ev.pc) + "\"");
      break;
    case EventKind::IdleSkip: {
      std::string args;
      if (const char* cause = stall_cause_name(ev.b))
        args = "\"cause\":\"" + std::string(cause) + "\"";
      emit(kTidIdle, "X", "idle", ev.cycle, ev.a ? ev.a : 1, args);
      break;
    }
  }
}

void ChromeTraceSink::end() {
  *os_ << "\n]}\n";
  os_->flush();
}

// ---------------------------------------------------------------------------
// KonataSink

namespace {
constexpr u32 kMemLane = kMaxSlices;  // dedicated lane for the cache stage

std::string lane_stage(u32 lane) {
  if (lane == kMemLane) return "M";
  std::string s = "X";  // (not `"X" + ...`: gcc-12 -Wrestrict false positive)
  s += std::to_string(lane);
  return s;
}
}  // namespace

void KonataSink::begin(const TraceMeta&) {
  *os_ << "Kanata\t0004\n";
  started_ = false;
  cur_cycle_ = 0;
}

void KonataSink::advance_to(u64 cycle) {
  if (!started_) {
    *os_ << "C=\t" << cycle << "\n";
    cur_cycle_ = cycle;
    started_ = true;
    return;
  }
  if (cycle > cur_cycle_) {
    *os_ << "C\t" << (cycle - cur_cycle_) << "\n";
    cur_cycle_ = cycle;
  }
}

KonataSink::InstState* KonataSink::find(u64 seq) {
  const auto it = live_.find(seq);
  return it == live_.end() ? nullptr : &it->second;
}

void KonataSink::drain_until(u64 cycle) {
  while (!pending_.empty() && pending_.top().cycle <= cycle) {
    const PendingEnd p = pending_.top();
    pending_.pop();
    InstState* st = find(p.seq);
    if (!st || st->gen[p.lane] != p.gen) continue;  // replay cancelled it
    advance_to(p.cycle);
    close_lane(*st, p.lane);
  }
}

// Starts the lane's stage at the current cycle and (when it ends in the
// future) schedules the matching E, cancellable by a generation bump.
void KonataSink::open_lane(InstState& st, u64 seq, u32 lane, u64 end_cycle) {
  *os_ << "S\t" << st.fid << "\t" << lane << "\t" << lane_stage(lane) << "\n";
  st.open[lane] = true;
  if (end_cycle > cur_cycle_) {
    pending_.push(
        {end_cycle, next_order_++, seq, lane, st.gen[lane], lane_stage(lane)});
  } else {
    close_lane(st, lane);  // zero-length stage: close immediately
  }
}

void KonataSink::close_lane(InstState& st, u32 lane) {
  *os_ << "E\t" << st.fid << "\t" << lane << "\t" << lane_stage(lane) << "\n";
  st.open[lane] = false;
  ++st.gen[lane];  // any scheduled end for this segment is now stale
}

void KonataSink::retire(u64 seq, InstState& st, u64 cycle, int type) {
  advance_to(cycle);
  // Close anything still open so the viewer doesn't draw dangling stages.
  if (st.ds_open) {
    *os_ << "E\t" << st.fid << "\t0\tDs\n";
    st.ds_open = false;
  }
  for (u32 lane = 0; lane < kNumLanes; ++lane)
    if (st.open[lane]) close_lane(st, lane);
  *os_ << "R\t" << st.fid << "\t" << next_rid_++ << "\t" << type << "\n";
  live_.erase(seq);
}

void KonataSink::event(const TraceEvent& ev) {
  drain_until(ev.cycle);
  advance_to(ev.cycle);
  std::ostream& os = *os_;
  switch (ev.kind) {
    case EventKind::Dispatch: {
      InstState st;
      st.fid = next_fid_++;
      os << "I\t" << st.fid << "\t" << st.fid << "\t0\n";
      std::string label = "#";
      label += std::to_string(ev.seq);
      label += ' ';
      label += hex_pc(ev.pc);
      label += ": ";
      label += ev.text ? ev.text : "";
      if (ev.flags & kFlagBogus) label += " [wrong-path]";
      os << "L\t" << st.fid << "\t0\t" << label << "\n";
      os << "S\t" << st.fid << "\t0\tDs\n";
      st.ds_open = true;
      live_.emplace(ev.seq, st);
      break;
    }
    case EventKind::OpSelect: {
      InstState* st = find(ev.seq);
      if (!st) break;
      if (st->ds_open) {
        os << "E\t" << st->fid << "\t0\tDs\n";
        st->ds_open = false;
      }
      if (st->open[ev.op_idx]) close_lane(*st, ev.op_idx);  // re-select
      open_lane(*st, ev.seq, ev.op_idx, ev.a);
      break;
    }
    case EventKind::OpReplay: {
      // Selective replay reverted this select: abort the stage now (its
      // scheduled end is cancelled by the generation bump in close_lane).
      InstState* st = find(ev.seq);
      if (st && st->open[ev.op_idx]) close_lane(*st, ev.op_idx);
      break;
    }
    case EventKind::CacheAccess: {
      InstState* st = find(ev.seq);
      if (!st) break;
      if (st->open[kMemLane]) close_lane(*st, kMemLane);  // re-timed access
      open_lane(*st, ev.seq, kMemLane, ev.a);
      break;
    }
    case EventKind::CacheVerify: {
      InstState* st = find(ev.seq);
      if (!st) break;
      if (ev.flags & kFlagReplay) {
        // Verification re-timed the data: restart the M stage so it spans
        // to the final data cycle.
        if (st->open[kMemLane]) close_lane(*st, kMemLane);
        if (ev.a > ev.cycle) open_lane(*st, ev.seq, kMemLane, ev.a);
      }
      break;
    }
    case EventKind::BranchResolve:
    case EventKind::LsqDecision:
    case EventKind::IdleSkip:
      break;  // cycle advance is all Konata needs for these
    case EventKind::Squash: {
      InstState* st = find(ev.seq);
      if (st) {
        // Stage-end reason (type-1 label: Konata hover text) so the viewer
        // shows the same cause the CPI stack charges.
        if (const char* cause = stall_cause_name(ev.b))
          os << "L\t" << st->fid << "\t1\tsquash: " << cause << "\n";
        retire(ev.seq, *st, ev.cycle, 1);
      }
      break;
    }
    case EventKind::Commit: {
      InstState* st = find(ev.seq);
      if (st) retire(ev.seq, *st, ev.cycle, 0);
      break;
    }
  }
}

void KonataSink::end() {
  drain_until(~0ull);
  // Flush-retire anything still live (run ended mid-flight), in dispatch
  // order for determinism.
  std::vector<std::pair<u64, u64>> rest;  // (fid, seq)
  rest.reserve(live_.size());
  for (const auto& [seq, st] : live_) rest.emplace_back(st.fid, seq);
  std::sort(rest.begin(), rest.end());
  for (const auto& [fid, seq] : rest) {
    InstState* st = find(seq);
    if (st) retire(seq, *st, cur_cycle_, 1);
  }
  os_->flush();
}

}  // namespace bsp::obs
