#include "spans.h"

#include <cstring>
#include <fstream>

#include "obs/trace_export.h"

namespace perfbench {

namespace obs = llmib::obs;

namespace {

enum Layer { kPrefill, kDecode, kAttn, kPlan, kNone };

Layer layer_of(const char* name) {
  if (std::strcmp(name, "engine.prefill") == 0) return kPrefill;
  if (std::strcmp(name, "engine.decode") == 0) return kDecode;
  if (std::strcmp(name, "attn.scores") == 0 || std::strcmp(name, "attn.av") == 0)
    return kAttn;
  if (std::strcmp(name, "sched.plan") == 0) return kPlan;
  return kNone;
}

}  // namespace

SpanShares span_shares(const std::vector<obs::SpanEvent>& events, const char* base) {
  // obs::TraceBuffer::events() sorts by (track, start, longest first), so a
  // stack of open spans per track recovers the nesting.
  struct Open {
    double end_us;
    Layer layer;
  };
  double self_us[kNone] = {};
  double base_us = 0.0;
  std::vector<Open> stack;
  std::uint32_t tid = 0;
  for (const obs::SpanEvent& ev : events) {
    if (ev.simulated || ev.instant) continue;
    if (ev.tid != tid) {
      stack.clear();
      tid = ev.tid;
    }
    constexpr double kEps = 1e-3;  // us; float rounding of nested bounds
    while (!stack.empty() && stack.back().end_us <= ev.ts_us + kEps) stack.pop_back();
    if (std::strcmp(ev.name, base) == 0) base_us += ev.dur_us;
    const Layer layer = layer_of(ev.name);
    if (layer != kNone) {
      self_us[layer] += ev.dur_us;
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->layer != kNone) {
          self_us[it->layer] -= ev.dur_us;
          break;
        }
      }
    }
    stack.push_back({ev.ts_us + ev.dur_us, layer});
  }
  SpanShares s;
  s.base_s = base_us * 1e-6;
  if (base_us > 0) {
    s.engine_prefill_pct = 100.0 * self_us[kPrefill] / base_us;
    s.engine_decode_pct = 100.0 * self_us[kDecode] / base_us;
    s.attn_pct = 100.0 * self_us[kAttn] / base_us;
    s.sched_plan_pct = 100.0 * self_us[kPlan] / base_us;
  }
  return s;
}

TraceScope::TraceScope() {
  obs::TraceBuffer::global().set_capacity_per_thread(kTraceRingEvents);
  obs::set_tracing(true);
}

TraceScope::~TraceScope() {
  obs::set_tracing(false);
  obs::TraceBuffer::global().clear();
}

void record_trace(const char* base, const std::string& path, RunResult* r) {
  const auto& buf = obs::TraceBuffer::global();
  const auto events = buf.events();
  const SpanShares s = span_shares(events, base);
  if (s.base_s <= 0) r->problems.push_back(std::string("no ") + base + " spans in the trace");
  auto& m = r->per_layer;
  m["trace.engine.prefill_pct"] = s.engine_prefill_pct;
  m["trace.engine.decode_pct"] = s.engine_decode_pct;
  m["trace.attn_pct"] = s.attn_pct;
  m["trace.sched.plan_pct"] = s.sched_plan_pct;
  m["trace.dropped"] = static_cast<double>(buf.dropped());
  if (buf.dropped() != 0)
    r->problems.push_back("trace ring dropped " + std::to_string(buf.dropped()) + " events");
  const std::string json = obs::chrome_trace_json(events);
  const obs::TraceCheck check = obs::validate_chrome_trace(json);
  if (!check.ok()) r->problems.push_back("Chrome trace invalid: " + check.error);
  std::ofstream out(path, std::ios::binary);
  out << json;
  out.close();
  if (!out) r->problems.push_back("cannot write Chrome trace " + path);
  r->note("trace: " + std::to_string(events.size()) + " events -> " + path);
}

}  // namespace perfbench
