#include "report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "engine/kernels/kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

void wait_until(double deadline_s) {
  // Spin, never sleep: a halted vCPU lets the hypervisor run another guest
  // on the core, and its cache traffic then lands on the next engine step.
  while (now_s() < deadline_s) {
  }
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> table = {
      {"output_tok_s", "tok/s"}, {"ttft_p50_ms", "ms"}, {"itl_p50_ms", "ms"},
      {"sim_req_per_s", "req/s"}, {"setup_s", "s"},     {"peak_rss_mb", "MB"},
  };
  return table;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> table = {
      // end-to-end tails: too seed- and host-sensitive here for a bound
      {"tail.ttft_p95_ms", "ms"},
      {"tail.itl_p99_ms", "ms"},
      // engine
      {"engine.steps", "count"},
      {"engine.decode_step_ms_p50", "ms"},
      {"engine.prefill_step_ms_p50", "ms"},
      {"engine.decode_us_per_seq", "us"},
      {"engine.decode_us_per_seq.b01-04", "us"},
      {"engine.decode_us_per_seq.b05-08", "us"},
      {"engine.decode_us_per_seq.b09-12", "us"},
      {"engine.decode_us_per_seq.b13-16", "us"},
      {"engine.batch_mean", "seq"},
      {"engine.prefill_tok_s", "tok/s"},
      {"engine.submit_us_p50", "us"},
      {"engine.weight_gbps", "GB/s"},
      {"engine.kv_read_gbps", "GB/s"},
      // kv
      {"kv.prefix_lookups", "count"},
      {"kv.prefix_hits", "count"},
      {"kv.prefix_evictions", "count"},
      {"kv.forked_blocks", "count"},
      {"kv.prefix_hit_token_ratio", "ratio"},
      {"kv.reserved_peak_ratio", "ratio"},
      // sched
      {"sched.queue_wait_ms_p50", "ms"},
      {"sched.queue_wait_ms_p95", "ms"},
      {"sched.waiting_peak", "count"},
      // load generator
      {"gen.lag_ms_p95", "ms"},
      {"gen.lag_ms_max", "ms"},
      // sim
      {"sim.run_s", "s"},
      {"sim.us_per_step", "us"},
      {"sim.trace_gen_s", "s"},
      {"sim.steps", "count"},
      {"sim.completed", "count"},
      {"sim.prefix_hit_tokens", "count"},
      {"sim.makespan_s", "s"},
      {"cluster.one_replica_cost_ratio", "ratio"},
      // cluster
      {"cluster.iterations", "count"},
      {"cluster.us_per_iteration", "us"},
      {"cluster.rerouted", "count"},
      {"cluster.failovers", "count"},
      {"cluster.health_detections", "count"},
      // fault
      {"fault.device_failures", "count"},
      {"fault.retries", "count"},
      {"fault.evictions", "count"},
      {"fault.cost_ratio", "ratio"},
      // existing spans, read from the traced run
      {"trace.engine.prefill_pct", "%"},
      {"trace.engine.decode_pct", "%"},
      {"trace.attn_pct", "%"},
      {"trace.sched.plan_pct", "%"},
      // obs
      {"trace.overhead_pct", "%"},
      {"trace.dropped", "count"},
  };
  return table;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
           c == '-';
  });
}

bool percentile_supported(std::size_t n, double q) {
  const double beyond = std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9);
  return beyond >= static_cast<double>(kSamplesBeyond);
}

double percentile(std::vector<double> samples, double q, const std::string& what) {
  if (!percentile_supported(samples.size(), q)) {
    std::ostringstream os;
    os << what << ": " << samples.size() << " samples leave fewer than "
       << kSamplesBeyond << " beyond the " << q * 100 << "th percentile";
    throw InsufficientSamples(os.str());
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double fastest(const std::vector<double>& values) {
  if (values.empty()) throw std::logic_error("fastest of no values");
  return *std::min_element(values.begin(), values.end());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

std::string host_fingerprint(const std::string& source_rev) {
  namespace kernels = llmib::engine::kernels;
  std::ostringstream os;
  os << "cpu=\"" << cpu_model() << "\" nproc=" << usable_cpus()
#if defined(__clang__)
     << " compiler=\"clang " << __clang_version__ << "\""
#elif defined(__GNUC__)
     << " compiler=\"gcc " << __VERSION__ << "\""
#endif
     << " build=" << PERFBENCH_BUILD_TYPE
     << " kernel_backend=" << kernels::backend_name(kernels::detect_backend())
     << " source=" << (source_rev.empty() ? "unknown" : source_rev);
  return os.str();
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string result_json(const RunResult& r, const std::vector<MetricSpec>& table,
                        const std::map<std::string, double>& values) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct() ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : table) {
    const auto it = values.find(m.name);
    if (it == values.end())
      throw std::logic_error(std::string("metric not produced: ") + m.name);
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << format_number(it->second) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
