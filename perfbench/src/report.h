#pragma once

// Shared plumbing of the repo benchmark: the metric tables (the names
// BENCHMARK.json lists), the percentile rule, the run result and its JSON
// line, peak RSS and the host fingerprint.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Spin until `deadline_s` (now_s() timebase): open-loop submissions land
/// on time and the core stays with this process between requests.
void wait_until(double deadline_s);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: printed with tracing off, every one on every workload.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics: printed by the traced run, every one on every workload
/// (0 where a layer does not take part in the workload).
const std::vector<MetricSpec>& per_layer_metrics();

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}` — the benchmark's metric-name grammar.
bool valid_metric_name(const std::string& name);

/// Thrown when a named percentile lacks the samples to support it.
class InsufficientSamples : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Samples needed beyond a reported percentile.
inline constexpr std::size_t kSamplesBeyond = 10;

/// Whether `n` samples leave at least kSamplesBeyond above quantile `q`.
bool percentile_supported(std::size_t n, double q);

/// Linear-interpolated quantile `q` in [0, 1] of `samples`. Throws
/// InsufficientSamples (naming `what`) unless percentile_supported().
double percentile(std::vector<double> samples, double q, const std::string& what);

/// Median of repeated measurements (set-up repetitions, replays, rounds).
/// Not a named latency percentile, so no sample rule; throws when empty.
double median(std::vector<double> values);

/// The fastest of repeated measurements where lower is better (times of
/// identical work, p50s of short stretches of one pass): their minimum.
/// Noise on the host only ever slows a repetition down, and its fast spells
/// are short, so the fastest of many short repetitions follows the
/// program's speed where a median follows how much of the run the host
/// spent slow. Throws when empty.
double fastest(const std::vector<double>& values);

/// Wall time of one call of `fn`, in seconds.
template <typename Fn>
double wall_s(Fn fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

/// setup_s: a workload sets up `reps` times from scratch, half of them
/// before its timed region and half after it (into a spare fixture), so a
/// single spell of the host does not decide the median.
struct SetupTimes {
  std::vector<double> s;
  template <typename Fn>
  void time(Fn fn) { s.push_back(wall_s(fn)); }
  double median_s() const { return median(s); }
};

/// Outcome of one workload run.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Output checks that did not hold, one line each; empty => correct.
  std::vector<std::string> problems;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Human-readable lines printed before the JSON result (request counts,
  /// sample counts behind each percentile, ...).
  std::vector<std::string> notes;

  bool correct() const { return problems.empty(); }
  void note(const std::string& line) { notes.push_back(line); }
};

/// Peak resident set size of this process, MB (2^20 bytes).
double peak_rss_mb();

/// One line identifying the machine and build the numbers come from.
std::string host_fingerprint(const std::string& source_rev);

/// Shortest round-trip decimal form of `v` ("null" when not finite).
std::string format_number(double v);

/// The result line: {"correct","attempted","failed","metrics"} with every
/// metric of `table` taken from `values`. Throws std::logic_error when a
/// metric of the table was not produced (a benchmark bug).
std::string result_json(const RunResult& r, const std::vector<MetricSpec>& table,
                        const std::map<std::string, double>& values);

}  // namespace perfbench
