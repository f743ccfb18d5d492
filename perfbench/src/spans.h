#pragma once

// Reading the program's existing wall-clock spans after a traced run.

#include <string>
#include <vector>

#include "obs/span.h"
#include "report.h"

namespace perfbench {

/// Self time of the layer spans the program already emits, as a percentage
/// of the summed duration of the `base` spans (engine.step for the engine,
/// the benchmark's bench.run_trace for the simulators). A layer span's self
/// time is its duration minus the layer spans nested inside it; spans that
/// are not a layer of their own (engine.layer, engine.admit) are
/// transparent.
struct SpanShares {
  double engine_prefill_pct = 0.0;  ///< engine.prefill
  double engine_decode_pct = 0.0;   ///< engine.decode
  double attn_pct = 0.0;            ///< attn.scores + attn.av
  double sched_plan_pct = 0.0;      ///< sched.plan
  double base_s = 0.0;              ///< summed duration of the base spans
};

SpanShares span_shares(const std::vector<llmib::obs::SpanEvent>& events,
                       const char* base);

/// Tracing switched on for one scope, on a ring large enough for the
/// traced passes, and switched off (ring cleared) again at scope exit.
class TraceScope {
 public:
  TraceScope();
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
};

/// Events kept per thread during a traced pass; the traced passes are sized
/// to stay below it, and trace.dropped reports any overflow.
inline constexpr std::size_t kTraceRingEvents = std::size_t{1} << 21;

/// After a traced pass: the span shares over `base` spans and the ring's
/// drop count into `r`'s per-layer metrics, and the events as a Chrome
/// trace at `path`, validated with obs::validate_chrome_trace. A drop or an
/// invalid trace is a failed check.
void record_trace(const char* base, const std::string& path, RunResult* r);

}  // namespace perfbench
