// The repo benchmark's entry point: one process, one thread.
//
//   perfbench --workload <engine_chat|engine_batch|sim_serve|sim_cluster|all>
//             --seed N --seconds S --trace 0|1 [--trace-dir DIR] [--source-rev REV]
//
// Prints the host fingerprint, what ran, a metric table, and as its last
// line one JSON object: end-to-end metrics with --trace 0, per-layer
// metrics (from a separate traced pass) with --trace 1. perfbench/README.md
// describes the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  RunResult (*run)(const Options&);
};

const Workload kWorkloads[] = {
    {"engine_chat", run_engine_chat},
    {"engine_batch", run_engine_batch},
    {"sim_serve", run_sim_serve},
    {"sim_cluster", run_sim_cluster},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "<engine_chat|engine_batch|sim_serve|sim_cluster|all> --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR] [--source-rev REV]\n",
               why.c_str());
  std::exit(2);
}

/// Whole-string numeric parse; anything else is a usage error.
double parse_number(const char* flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size())
    usage(std::string(flag) + " needs a number, got '" + text + "'");
  return v;
}

void print_table(const char* workload, const std::vector<MetricSpec>& table,
                 const std::map<std::string, double>& values) {
  for (const MetricSpec& m : table)
    std::printf("  %-14s %-34s %16s %s\n", workload, m.name,
                format_number(values.at(m.name)).c_str(), m.unit);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string source_rev;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string val = argv[++i];
    if (flag == "--workload") {
      opt.workload = val;
    } else if (flag == "--seed") {
      const double s = parse_number("--seed", val);
      if (s < 0 || s != static_cast<double>(static_cast<std::uint64_t>(s)))
        usage("--seed must be a non-negative integer");
      opt.seed = static_cast<std::uint64_t>(s);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = parse_number("--seconds", val);
      if (!(opt.seconds > 0 && opt.seconds <= 600)) usage("--seconds must be in (0, 600]");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      opt.trace = val == "1";
      have_trace = true;
    } else if (flag == "--trace-dir") {
      opt.trace_dir = val;
    } else if (flag == "--source-rev") {
      source_rev = val;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opt.workload.empty())
    usage("--workload, --seed, --seconds and --trace are required");

  std::vector<const Workload*> chosen;
  for (const Workload& w : kWorkloads)
    if (opt.workload == "all" || opt.workload == w.name) chosen.push_back(&w);
  if (chosen.empty()) usage("unknown workload '" + opt.workload + "'");

  std::printf("host: %s\n", host_fingerprint(source_rev).c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  const auto& table = opt.trace ? per_layer_metrics() : end_to_end_metrics();

  RunResult total;
  std::map<std::string, double> total_values;
  std::vector<MetricSpec> total_table;
  std::vector<std::string> total_names;  // storage behind total_table's names
  total_names.reserve(chosen.size() * table.size());
  try {
    for (const Workload* w : chosen) {
      Options o = opt;
      o.workload = w->name;
      RunResult r = w->run(o);
      // A per-layer metric of a layer the workload does not run prints 0.
      if (opt.trace)
        for (const MetricSpec& m : per_layer_metrics()) r.per_layer.try_emplace(m.name, 0.0);
      for (const std::string& line : r.notes) std::printf("%s: %s\n", w->name, line.c_str());
      for (const std::string& p : r.problems)
        std::printf("%s: CHECK FAILED: %s\n", w->name, p.c_str());
      const auto& values = opt.trace ? r.per_layer : r.end_to_end;
      print_table(w->name, table, values);
      if (chosen.size() == 1) {
        std::cout << result_json(r, table, values) << std::endl;
        return 0;
      }
      total.attempted += r.attempted;
      total.failed += r.failed;
      for (const std::string& p : r.problems) total.problems.push_back(w->name + (": " + p));
      for (const MetricSpec& m : table) {
        total_names.push_back(std::string(w->name) + "." + m.name);
        total_table.push_back({total_names.back().c_str(), m.unit});
        total_values[total_names.back()] = values.at(m.name);
      }
    }
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::cout << result_json(total, total_table, total_values) << std::endl;
  return 0;
}
