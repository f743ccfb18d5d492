// Self-tests of the benchmark's own machinery:
//   python3 perfbench/run.py --selftest
// Exit code 0 when every check holds.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <regex>
#include <set>
#include <string>

#include "report.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace engine = llmib::engine;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

bool same(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!near(got[i], want[i])) return false;
  return true;
}

llmib::models::ModelConfig tiny_model() {
  llmib::models::ModelConfig c;
  c.name = "selftest-tiny";
  c.n_layers = 1;
  c.hidden_size = 16;
  c.attention = llmib::models::AttentionKind::kGQA;
  c.n_heads = 2;
  c.n_kv_heads = 1;
  c.ffn_intermediate = 32;
  c.max_seq_len = 64;
  c.vocab_size = 32;
  return c;
}

engine::ServingEngine::Config tiny_engine_config() {
  engine::ServingEngine::Config c;
  c.pool_blocks = 64;
  c.block_size = 4;
  c.max_batch = 2;
  c.batched_decode = true;
  return c;
}

/// Hand-checked schedule, on a clock the test supplies:
///   A (3 tokens) due 0.0, submitted 0.0; step [0.0, 1.0] admits A -> token 1
///   B (2 tokens) due 0.5, submitted 1.5
///   step [2.0, 3.0] admits B -> B token 1; A token 2
///   step [3.0, 4.5] A token 3 (done), B token 2 (done)
void test_latency_bookkeeping() {
  const auto weights = engine::TransformerWeights::random(tiny_model(), 7);
  const engine::MiniTransformer model(weights);
  engine::ServingEngine eng(model, tiny_engine_config());
  LatencyBook book;

  const auto a = eng.submit({1, 2, 3, 4, 5}, 3);
  book.submitted(a, 0.0, 0.0, 3);
  eng.step();
  const auto done1 = book.after_step(eng, 0.0, 1.0);
  const auto b = eng.submit({6, 7, 8}, 2);
  book.submitted(b, 0.5, 1.5, 2);
  eng.step();
  const auto done2 = book.after_step(eng, 2.0, 3.0);
  eng.step();
  const auto done3 = book.after_step(eng, 3.0, 4.5);

  check(done1.empty() && done2.empty() && done3.size() == 2, "requests finish in the third step");
  check(same(book.ttft_s, {1.0, 2.5}), "TTFT runs from the due time to the end of the first-token step");
  check(same(book.itl_s, {2.0, 1.5, 1.5}), "token gaps run between step ends of one request");
  check(same(book.queue_wait_s, {0.0, 1.5}),
        "queue wait runs from the due time to the start of the admitting step");
  check(same(book.lag_s, {0.0, 1.0}), "lag is submit time minus due time");
  check(book.completed == 2 && book.output_tokens == 5 && book.wrong_length == 0,
        "completions and token counts");
  check(book.in_flight() == 0 && book.live_ids().empty(), "nothing left in flight");
}

void test_percentile_rule() {
  const auto ramp = [](std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
    return v;
  };
  const auto refuses = [&](std::size_t n, double q) {
    try {
      percentile(ramp(n), q, "test");
    } catch (const InsufficientSamples&) {
      return true;
    }
    return false;
  };
  check(refuses(19, 0.5) && !refuses(20, 0.5), "p50 needs 20 samples (10 beyond)");
  check(refuses(199, 0.95) && !refuses(200, 0.95), "p95 needs 200 samples");
  check(refuses(999, 0.99) && !refuses(1000, 0.99), "p99 needs 1000 samples");
  check(near(percentile(ramp(20), 0.5, "test"), 10.5), "p50 interpolates between ranks");
  check(near(median({3.0, 1.0, 2.0}), 2.0) && near(median({4.0, 1.0, 2.0, 3.0}), 2.5),
        "median of repetitions");
  check(near(fastest({4.0, 1.0, 3.0, 2.0}), 1.0) && near(fastest({5.0}), 5.0),
        "fastest of repetitions");
}

void test_shuffled_lengths() {
  llmib::util::Rng a(1), b(2);
  auto x = shuffled_lengths(10, 20, 6, a);
  auto y = shuffled_lengths(10, 20, 6, b);
  const bool reordered = x != y;
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  check(reordered && x == y && x == std::vector<std::int64_t>{10, 12, 14, 16, 18, 20},
        "seeds reorder the same evenly spaced lengths");
}

void test_rebuild_round() {
  // Two rounds share a schedule (two first tokens in step 1, then two and
  // one gaps); a third differs and is left out.
  const RoundSteps a{{0.001, 0.003, 0.002}, {2, 0, 0}, {0, 2, 1}};
  const RoundSteps b{{0.002, 0.001, 0.0025}, {2, 0, 0}, {0, 2, 1}};
  const RoundSteps c{{0.0001, 0.0001, 0.0001}, {1, 1, 0}, {0, 1, 1}};
  const RebuiltRound rr = rebuild_round({a, b, c});
  check(near(rr.wall_s, 0.004) && rr.mismatched == std::vector<std::size_t>{2},
        "a rebuilt round sums each step's fastest time, skipping other schedules");
  check(same(rr.ttft_ms, {1.0, 1.0}) && same(rr.itl_ms, {1.0, 1.0, 2.0}),
        "a rebuilt round's TTFTs end at their step, its gaps are step times");
}

void test_output_check() {
  const auto weights = engine::TransformerWeights::random(tiny_model(), 11);
  const engine::MiniTransformer model(weights);
  engine::ServingEngine eng(model, tiny_engine_config());
  const std::vector<engine::TokenId> prompt = {3, 1, 4, 1, 5, 9, 2, 6};
  const auto id = eng.submit(prompt, 6);
  eng.run_to_completion();
  FinishedRequest f{id, prompt, eng.output(id)};
  std::vector<std::string> problems;
  check(check_outputs(model, {f}, &problems) == 0 && problems.empty(),
        "an untouched engine output matches serial generate");
  f.output[2] = (f.output[2] + 1) % 32;
  check(check_outputs(model, {f}, &problems) == 1 && problems.size() == 1 &&
            problems[0].find("token 2") != std::string::npos,
        "an altered token is flagged at its position");
}

void test_metric_names() {
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    std::set<std::string> seen;
    bool names_ok = true, units_ok = true;
    for (const MetricSpec& m : *table) {
      names_ok = names_ok && valid_metric_name(m.name) && seen.insert(m.name).second;
      units_ok = units_ok && std::regex_match(m.unit, unit_re);
    }
    check(names_ok, "metric names match [A-Za-z0-9_.-]+ and are unique");
    check(units_ok, "every metric carries a unit");
  }
  check(!valid_metric_name("bad name") && !valid_metric_name(".x") && valid_metric_name("a.b-c_1"),
        "the name grammar rejects spaces and leading punctuation");
  RunResult r;
  bool threw = false;
  try {
    result_json(r, end_to_end_metrics(), {});
  } catch (const std::logic_error&) {
    threw = true;
  }
  check(threw, "a result missing a metric is refused");
}

/// engine.step [0,100] holds sched.plan [0,10], engine.prefill [10,60] (an
/// engine.layer [15,55] around attn.scores [20,30]) and engine.decode
/// [60,100] around attn.av [70,80].
void test_span_shares() {
  using llmib::obs::SpanEvent;
  const auto ev = [](const char* name, double ts, double dur) {
    SpanEvent e;
    e.name = name;
    e.ts_us = ts;
    e.dur_us = dur;
    return e;
  };
  const std::vector<SpanEvent> events = {
      ev("engine.step", 0, 100),   ev("sched.plan", 0, 10), ev("engine.prefill", 10, 50),
      ev("engine.layer", 15, 40),  ev("attn.scores", 20, 10), ev("engine.decode", 60, 40),
      ev("attn.av", 70, 10)};
  const SpanShares s = span_shares(events, "engine.step");
  check(near(s.sched_plan_pct, 10) && near(s.engine_prefill_pct, 40) &&
            near(s.engine_decode_pct, 30) && near(s.attn_pct, 20) && near(s.base_s, 100e-6),
        "span self times exclude nested layer spans only");
}

}  // namespace

int main() {
  test_latency_bookkeeping();
  test_percentile_rule();
  test_shuffled_lengths();
  test_rebuild_round();
  test_output_check();
  test_metric_names();
  test_span_shares();
  std::printf("%s: %d failed\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
