// sim_serve and sim_cluster: the simulator's own speed, timed around many
// short run_trace replays of a few seeded traces.

#include <cmath>
#include <memory>
#include <numeric>
#include <sstream>

#include "cluster/cluster.h"
#include "obs/obs.h"
#include "sim/serving.h"
#include "spans.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace sim = llmib::sim;
namespace cluster = llmib::cluster;
namespace obs = llmib::obs;
using llmib::util::Rng;

namespace {

/// LLaMA-3-8B on one A100 with vLLM behind a 64-token shared system prompt
/// (prefix caching on) and a 0.5 s TTFT SLO: the `llmib serve` default path.
struct SimShape {
  /// Requests per trace: one replay takes 0.05–0.1 s, so a run holds a few
  /// hundred of them (see fastest()).
  std::int64_t requests = 2000;
  double rate_rps = 8.0;  ///< below the ~11 req/s this point saturates at
  std::int64_t prompt_min = 64, prompt_max = 512;
  std::int64_t output_min = 32, output_max = 256;
  std::int64_t shared_prefix = 64;
  double slo_ttft_s = 0.5;
};

/// Traces per run, each drawn from its own seed: a short trace's simulated
/// work depends on its draw by several percent, their sum much less.
constexpr std::size_t kTraces = 8;
/// Set-ups before the timed region and after it (see SetupTimes).
constexpr int kSetupRepsEach = 3;
/// Alternations behind each per-layer ratio of two replay kinds.
constexpr int kRatioReps = 5;

sim::SimConfig sim_config() {
  sim::SimConfig c;
  c.model = "LLaMA-3-8B";
  c.accelerator = "A100";
  c.framework = "vLLM";
  c.max_concurrent = 32;
  c.prefix_caching = true;
  return c;
}

/// Poisson arrivals; prompt and output lengths uniform over their ranges as
/// a shuffled evenly spaced multiset, so every seed simulates the same
/// tokens. Trace `k` of a run with seed `seed` is drawn from its own seed.
std::uint64_t trace_seed(std::uint64_t seed, std::size_t k) { return seed * kTraces + k; }

std::vector<sim::TraceRequest> make_trace(const SimShape& s, std::uint64_t seed) {
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(s.requests);
  const auto prompt = shuffled_lengths(s.prompt_min, s.prompt_max, n, rng);
  const auto output = shuffled_lengths(s.output_min, s.output_max, n, rng);
  std::vector<sim::TraceRequest> reqs(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.exponential(s.rate_rps);
    reqs[i].arrival_s = t;
    reqs[i].prompt_tokens = prompt[i];
    reqs[i].output_tokens = output[i];
  }
  return reqs;
}

/// The simulators borrow the InferenceSimulator, so it lives beside them.
struct SimFixture {
  std::unique_ptr<sim::InferenceSimulator> inference;
  std::unique_ptr<sim::ServingSimulator> serving;
  std::unique_ptr<cluster::ClusterSimulator> cluster;
  std::vector<std::vector<sim::TraceRequest>> traces;
  double trace_gen_s = 0.0;
};

void release(SimFixture& f) {
  f.cluster.reset();
  f.serving.reset();
  f.inference.reset();
  f.traces.clear();
}

SimFixture make_fixture(const SimShape& shape, std::uint64_t seed) {
  SimFixture f;
  f.inference = std::make_unique<sim::InferenceSimulator>();
  f.serving = std::make_unique<sim::ServingSimulator>(*f.inference);
  f.cluster = std::make_unique<cluster::ClusterSimulator>(*f.inference);
  const double t0 = now_s();
  for (std::size_t k = 0; k < kTraces; ++k)
    f.traces.push_back(make_trace(shape, trace_seed(seed, k)));
  f.trace_gen_s = now_s() - t0;
  return f;
}

/// One replay's outcome as the benchmark reads it.
struct Replay {
  double wall_s = 0.0;
  sim::ServingMetrics metrics;
  cluster::ClusterMetrics cluster;
};

/// Checks every replay must pass: every request resolved exactly once, the
/// reported metrics are finite with availability in [0, 1], and a cluster's
/// replicas account for all its completions. Returns the requests that did
/// not complete.
std::int64_t check_replay(const Replay& rep, std::size_t sent, RunResult* r) {
  const auto& m = rep.metrics;
  const auto n = static_cast<std::int64_t>(sent);
  const std::int64_t completed = std::llround(m.availability * static_cast<double>(n));
  const std::int64_t resolved =
      completed + m.shed_requests + m.timed_out_requests + m.failed_requests;
  if (resolved != n)
    r->problems.push_back("replay resolved " + std::to_string(resolved) + " of " +
                          std::to_string(n) + " requests");
  if (!(m.availability >= 0.0 && m.availability <= 1.0))
    r->problems.push_back("availability outside [0, 1]");
  for (double v : {m.makespan_s, m.achieved_rps, m.throughput_tps, m.ttft_p50_s,
                   m.ttft_p95_s, m.ttft_p99_s, m.itl_p50_s, m.itl_p99_s, m.e2e_p99_s,
                   m.slo_goodput, m.availability}) {
    if (!std::isfinite(v)) {
      r->problems.push_back("non-finite serving metric");
      break;
    }
  }
  if (!rep.cluster.replicas.empty()) {
    std::int64_t per_replica = 0;
    for (const auto& rs : rep.cluster.replicas) per_replica += rs.completed;
    if (per_replica != completed)
      r->problems.push_back("replicas completed " + std::to_string(per_replica) +
                            " but the cluster reports " + std::to_string(completed));
  }
  return n - completed;
}

/// A simulator run is a pure function of its inputs: every replay of the
/// same trace must produce the same simulated outcome.
bool same_outcome(const Replay& a, const Replay& b) {
  return a.metrics.phases.iterations == b.metrics.phases.iterations &&
         a.metrics.makespan_s == b.metrics.makespan_s &&
         a.metrics.availability == b.metrics.availability &&
         a.metrics.prefix_hit_tokens == b.metrics.prefix_hit_tokens &&
         a.metrics.device_failures == b.metrics.device_failures;
}

/// `a` and `b` run alternately kRatioReps times each, so host drift hits
/// both alike; the fastest wall time of each, in seconds.
template <typename A, typename B>
std::pair<double, double> fastest_pair(A a, B b) {
  std::vector<double> ta, tb;
  for (int i = 0; i < kRatioReps; ++i) {
    const double t0 = now_s();
    a();
    const double t1 = now_s();
    b();
    ta.push_back(t1 - t0);
    tb.push_back(now_s() - t1);
  }
  return {fastest(ta), fastest(tb)};
}

/// Shared body of both simulator workloads. `replay_fn(fx, k)` runs one
/// run_trace over trace `k` and returns its outcome (wall_s is filled
/// here); the traced run then calls `extra_fn(fx, first, &result)`, where
/// `first` holds each trace's first replay, for the workload's own
/// per-layer metrics.
template <typename ReplayFn, typename ExtraFn>
RunResult run_sim(const char* workload, const Options& opt, const SimShape& shape,
                  ReplayFn replay_fn, ExtraFn extra_fn) {
  RunResult r;
  std::vector<double> gen_times;
  const auto set_up = [&](SimFixture& f) {
    release(f);
    f = make_fixture(shape, opt.seed);
    gen_times.push_back(f.trace_gen_s);
    replay_fn(f, 0);
  };
  SimFixture fx;
  SetupTimes setup;
  for (int i = 0; i < kSetupRepsEach; ++i) setup.time([&] { set_up(fx); });
  const auto timed = [&](std::size_t k) {
    Replay rep;
    const double t0 = now_s();
    {
      obs::Span span("bench.run_trace", obs::Cat::kBench);
      rep = replay_fn(fx, k);
    }
    rep.wall_s = now_s() - t0;
    return rep;
  };

  // Whole replays, the traces in turn, until the time is up. Every replay
  // is checked; each must give the same simulated outcome as the first of
  // its trace.
  std::vector<Replay> first;
  std::vector<std::vector<double>> wall(kTraces);
  std::size_t replays = 0;
  const double t0 = now_s();
  while (replays < 2 * kTraces || now_s() - t0 < opt.seconds) {
    const std::size_t k = replays++ % kTraces;
    Replay rep = timed(k);
    r.attempted += static_cast<std::int64_t>(fx.traces[k].size());
    r.failed += check_replay(rep, fx.traces[k].size(), &r);
    if (first.size() == k) first.push_back(rep);
    if (!same_outcome(rep, first[k]))
      r.problems.push_back("replays of one trace disagree on the simulated outcome");
    wall[k].push_back(rep.wall_s);
  }

  // Every replay of a trace does identical work: the fastest replay of each
  // trace, summed over the traces, sets every end-to-end figure.
  double run_s = 0, n = 0, out_tokens = 0;
  std::vector<double> median_s;
  for (std::size_t k = 0; k < kTraces; ++k) {
    run_s += fastest(wall[k]);
    median_s.push_back(median(wall[k]));
    n += static_cast<double>(fx.traces[k].size());
    for (const auto& q : fx.traces[k]) out_tokens += static_cast<double>(q.output_tokens);
  }
  auto& e = r.end_to_end;
  e["sim_req_per_s"] = n / run_s;
  e["output_tok_s"] = out_tokens / run_s;
  // A replay is timed as a whole, so the simulator has no per-request
  // latency distribution: its latency metrics are host time per simulated
  // request (ttft_p50_ms) and per simulated output token (itl_p50_ms).
  e["ttft_p50_ms"] = 1e3 * run_s / n;
  e["itl_p50_ms"] = 1e3 * run_s / out_tokens;
  e["peak_rss_mb"] = peak_rss_mb();
  {
    SimFixture spare;
    for (int i = 0; i < kSetupRepsEach; ++i) setup.time([&] { set_up(spare); });
    release(spare);
  }
  e["setup_s"] = setup.median_s();

  // The simulated outcome of one pass over the traces.
  double steps = 0, completed = 0, hit_tokens = 0, makespan = 0, failures = 0,
         retries = 0, evictions = 0;
  for (std::size_t k = 0; k < kTraces; ++k) {
    const auto& m = first[k].metrics;
    steps += static_cast<double>(m.phases.iterations);
    completed += std::round(m.availability * static_cast<double>(fx.traces[k].size()));
    hit_tokens += static_cast<double>(m.prefix_hit_tokens);
    makespan += m.makespan_s;
    failures += static_cast<double>(m.device_failures);
    retries += static_cast<double>(m.retries);
    evictions += static_cast<double>(m.fault_evictions);
  }
  {
    std::ostringstream os;
    os << "requests: sent=" << r.attempted << " succeeded=" << r.attempted - r.failed
       << " failed=" << r.failed << " (" << replays << " replays of " << kTraces
       << " traces of " << shape.requests << ")";
    r.note(os.str());
    os.str("");
    os << "one pass over the traces: fastest_s=" << run_s << " median_s="
       << std::accumulate(median_s.begin(), median_s.end(), 0.0) << " steps=" << steps
       << " device_failures=" << failures << " completed=" << completed;
    r.note(os.str());
  }
  if (!opt.trace) return r;

  auto& m = r.per_layer;
  m["sim.run_s"] = run_s;
  m["sim.us_per_step"] = steps > 0 ? run_s / steps * 1e6 : 0.0;
  m["sim.trace_gen_s"] = median(gen_times);
  m["sim.steps"] = steps;
  m["sim.completed"] = completed;
  m["sim.prefix_hit_tokens"] = hit_tokens;
  m["sim.makespan_s"] = makespan;
  m["fault.device_failures"] = failures;
  m["fault.retries"] = retries;
  m["fault.evictions"] = evictions;

  // Tracing overhead and span shares, on the first trace. Untraced and
  // traced replays alternate, so host drift hits both sides alike; the
  // last traced replay is the one recorded.
  std::vector<double> plain, traced;
  for (int i = 0; i < kRatioReps; ++i) {
    plain.push_back(timed(0).wall_s);
    TraceScope scope;
    traced.push_back(timed(0).wall_s);
    if (i == kRatioReps - 1)
      record_trace("bench.run_trace", opt.trace_dir + "/" + workload + ".trace.json", &r);
  }
  m["trace.overhead_pct"] = 100.0 * (fastest(traced) / fastest(plain) - 1.0);
  extra_fn(fx, first, &r);
  return r;
}

}  // namespace

RunResult run_sim_serve(const Options& opt) {
  const SimShape shape;
  sim::TraceOptions topts;
  topts.shared_prefix = shape.shared_prefix;
  topts.slo_ttft_s = shape.slo_ttft_s;
  const sim::SimConfig cfg = sim_config();
  const auto replay = [&](SimFixture& fx, std::size_t k) {
    const auto res = fx.serving->run_trace(cfg, fx.traces[k], topts);
    if (!res.ok()) throw std::runtime_error("run_trace: " + res.status_detail);
    Replay rep;
    rep.metrics = res.metrics;
    return rep;
  };
  const auto extra = [&](SimFixture& fx, const std::vector<Replay>&, RunResult* r) {
    // The single-engine loop run as a 1-replica cluster on the same trace
    // (ROADMAP item 1 makes the two one loop).
    const auto& trace = fx.traces[0];
    const auto [cluster_s, serving_s] = fastest_pair(
        [&] { fx.cluster->run_trace(cfg, trace, topts, cluster::ClusterOptions{}); },
        [&] { fx.serving->run_trace(cfg, trace, topts); });
    r->per_layer["cluster.one_replica_cost_ratio"] = cluster_s / serving_s;
    r->per_layer["fault.cost_ratio"] = 1.0;  // the fault profile is empty
  };
  return run_sim("sim_serve", opt, shape, replay, extra);
}

RunResult run_sim_cluster(const Options& opt) {
  SimShape shape;
  shape.rate_rps *= 4.0;  // four replicas, each loaded like sim_serve's one
  sim::TraceOptions fault_free;
  fault_free.shared_prefix = shape.shared_prefix;
  fault_free.slo_ttft_s = shape.slo_ttft_s;
  // Device failures far apart relative to the 2 s restart, as on real
  // fleets, yet a few in every trace; a killed request retries up to three
  // times. Each trace has its own failure timeline.
  const auto faulted = [&](std::size_t k) {
    sim::TraceOptions o = fault_free;
    o.faults.seed = trace_seed(opt.seed, k) ^ 0x5eedfa17ULL;
    o.faults.device_mtbf_s = 60.0;
    o.resilience.retry.max_retries = 3;
    return o;
  };
  cluster::ClusterOptions copts;
  copts.replicas = 4;
  copts.router = cluster::RouterPolicy::kLeastLoaded;
  const sim::SimConfig cfg = sim_config();

  const auto run_cluster = [&](SimFixture& fx, std::size_t k, const sim::TraceOptions& o) {
    const auto res = fx.cluster->run_trace(cfg, fx.traces[k], o, copts);
    if (!res.ok()) throw std::runtime_error("run_trace: " + res.status_detail);
    Replay rep;
    rep.metrics = res.metrics;
    rep.cluster = res.cluster;
    return rep;
  };
  const auto replay = [&](SimFixture& fx, std::size_t k) {
    return run_cluster(fx, k, faulted(k));
  };
  const auto extra = [&](SimFixture& fx, const std::vector<Replay>& first, RunResult* r) {
    auto& m = r->per_layer;
    double iterations = 0, rerouted = 0, failovers = 0, detections = 0;
    for (const Replay& rep : first) {
      iterations += static_cast<double>(rep.metrics.phases.iterations);
      rerouted += static_cast<double>(rep.cluster.rerouted_requests);
      failovers += static_cast<double>(rep.cluster.failovers);
      detections += static_cast<double>(rep.cluster.health_detections);
    }
    m["cluster.iterations"] = iterations;
    m["cluster.us_per_iteration"] = iterations > 0 ? m["sim.run_s"] / iterations * 1e6 : 0.0;
    m["cluster.rerouted"] = rerouted;
    m["cluster.failovers"] = failovers;
    m["cluster.health_detections"] = detections;
    const auto [faulted_s, free_s] =
        fastest_pair([&] { run_cluster(fx, 0, faulted(0)); },
                     [&] { run_cluster(fx, 0, fault_free); });
    m["fault.cost_ratio"] = faulted_s / free_s;
  };
  return run_sim("sim_cluster", opt, shape, replay, extra);
}

}  // namespace perfbench
