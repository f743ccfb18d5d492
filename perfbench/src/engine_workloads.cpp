// engine_chat and engine_batch: the real ServingEngine driven from one
// single-threaded process, timed only through its public calls.

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "obs/obs.h"
#include "spans.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace engine = llmib::engine;
namespace models = llmib::models;
namespace obs = llmib::obs;
using engine::TokenId;
using llmib::sched::RequestId;
using llmib::util::Rng;

models::ModelConfig bench_model_config() {
  models::ModelConfig c;
  c.name = "perfbench-gqa";
  c.n_layers = 4;
  c.hidden_size = 128;
  c.attention = models::AttentionKind::kGQA;
  c.n_heads = 4;
  c.n_kv_heads = 2;
  c.ffn = models::FfnKind::kDense;
  c.ffn_intermediate = 512;
  c.max_seq_len = 2048;
  c.vocab_size = 2048;
  return c;
}

std::vector<std::int64_t> shuffled_lengths(std::int64_t lo, std::int64_t hi, std::size_t n,
                                           Rng& rng) {
  const auto order = rng.permutation(n);
  const auto last = static_cast<std::int64_t>(std::max<std::size_t>(n, 2) - 1);
  std::vector<std::int64_t> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = lo + (hi - lo) * static_cast<std::int64_t>(order[i]) / last;
  return out;
}

// ---- LatencyBook ------------------------------------------------------------

void LatencyBook::submitted(RequestId id, double due_s, double submit_s,
                            std::int64_t max_new_tokens) {
  Open r;
  r.due_s = due_s;
  r.max_new = max_new_tokens;
  open_.emplace(id, r);
  lag_s.push_back(submit_s - due_s);
}

std::vector<RequestId> LatencyBook::after_step(const engine::ServingEngine& eng,
                                               double t0, double t1) {
  std::vector<RequestId> done;
  const auto& sched = eng.scheduler();
  for (auto it = open_.begin(); it != open_.end();) {
    const RequestId id = it->first;
    Open& r = it->second;
    const bool finished = eng.finished(id);
    if (!finished && !sched.is_live(id)) {  // still waiting
      ++it;
      continue;
    }
    if (!r.admitted) {
      r.admitted = true;
      queue_wait_s.push_back(t0 - r.due_s);
    }
    const std::int64_t n = finished
                               ? static_cast<std::int64_t>(eng.output(id).size())
                               : sched.generated_tokens(id);
    for (; r.seen < n; ++r.seen) {
      if (r.seen == 0)
        ttft_s.push_back(t1 - r.due_s);
      else
        itl_s.push_back(t1 - r.last_token_s);
      r.last_token_s = t1;
    }
    if (!finished) {
      ++it;
      continue;
    }
    ++completed;
    output_tokens += n;
    if (n != r.max_new) ++wrong_length;
    done.push_back(id);
    it = open_.erase(it);
  }
  return done;
}

std::vector<RequestId> LatencyBook::live_ids() const {
  std::vector<RequestId> ids;
  for (const auto& [id, r] : open_)
    if (r.admitted) ids.push_back(id);
  return ids;
}

// ---- Output check -------------------------------------------------------------

std::int64_t check_outputs(const engine::MiniTransformer& model,
                           const std::vector<FinishedRequest>& sample,
                           std::vector<std::string>* problems) {
  std::int64_t bad = 0;
  for (const FinishedRequest& f : sample) {
    engine::GenerateOptions go;
    go.max_new_tokens = static_cast<std::int64_t>(f.output.size());
    go.temperature = 0.0;
    const auto ref = f.output.empty() ? engine::GenerateResult{}
                                      : engine::generate(model, f.prompt, go);
    if (ref.tokens == f.output) continue;
    ++bad;
    std::size_t pos = 0;
    while (pos < f.output.size() && pos < ref.tokens.size() &&
           f.output[pos] == ref.tokens[pos])
      ++pos;
    std::ostringstream os;
    os << "request " << f.id << ": engine output differs from serial generate at token "
       << pos;
    problems->push_back(os.str());
  }
  return bad;
}

// ---- Rebuilt engine_batch round ------------------------------------------------

RebuiltRound rebuild_round(const std::vector<RoundSteps>& rounds) {
  RebuiltRound out;
  if (rounds.empty()) return out;
  const RoundSteps& first = rounds.front();
  std::vector<double> step_s = first.dt_s;
  for (std::size_t k = 1; k < rounds.size(); ++k) {
    const RoundSteps& rd = rounds[k];
    if (rd.firsts != first.firsts || rd.gaps != first.gaps) {
      out.mismatched.push_back(k);
      continue;
    }
    for (std::size_t i = 0; i < step_s.size(); ++i) step_s[i] = std::min(step_s[i], rd.dt_s[i]);
  }
  for (std::size_t i = 0; i < step_s.size(); ++i) {
    out.wall_s += step_s[i];
    out.ttft_ms.insert(out.ttft_ms.end(), first.firsts[i], out.wall_s * 1e3);
    out.itl_ms.insert(out.itl_ms.end(), first.gaps[i], step_s[i] * 1e3);
  }
  return out;
}

namespace {

// ---- Fixture: weights, model, engine ------------------------------------------

engine::ServingEngine::Config bench_engine_config() {
  engine::ServingEngine::Config c;
  c.pool_blocks = 1024;
  c.block_size = 16;
  c.max_batch = 16;
  c.batched_decode = true;
  c.prefix_caching = true;
  c.allow_preemption = false;
  return c;
}

struct Fixture {
  std::unique_ptr<engine::TransformerWeights> weights;
  std::unique_ptr<engine::MiniTransformer> model;
  std::unique_ptr<engine::ServingEngine> engine;
};

/// Drop the engine before the model and the model before the weights it
/// borrows.
void release(Fixture& f) {
  f.engine.reset();
  f.model.reset();
  f.weights.reset();
}

Fixture make_fixture(std::uint64_t seed) {
  Fixture f;
  f.weights = std::make_unique<engine::TransformerWeights>(
      engine::TransformerWeights::random(bench_model_config(), seed));
  f.model = std::make_unique<engine::MiniTransformer>(*f.weights);
  f.engine = std::make_unique<engine::ServingEngine>(*f.model, bench_engine_config());
  return f;
}

std::vector<TokenId> random_tokens(Rng& rng, std::int64_t n) {
  const std::int64_t vocab = bench_model_config().vocab_size;
  std::vector<TokenId> t(static_cast<std::size_t>(n));
  for (auto& x : t) x = static_cast<TokenId>(rng.uniform_int(0, vocab - 1));
  return t;
}

/// Short requests run to completion before timing, so lazy set-up (RoPE
/// tables, scratch buffers, first-touch of pool pages) is not timed. Each
/// prompt starts with `head`, so a chat warm-up leaves the system prompt in
/// the radix cache as a running server would have it.
void warm_up(engine::ServingEngine& eng, const std::vector<TokenId>& head, Rng& rng) {
  for (int i = 0; i < 8; ++i) {
    std::vector<TokenId> p = head;
    const auto tail = random_tokens(rng, 64);
    p.insert(p.end(), tail.begin(), tail.end());
    eng.submit(std::move(p), 8);
  }
  eng.run_to_completion();
}

/// Set-ups before the timed region and after it (see SetupTimes).
constexpr int kSetupRepsEach = 2;

// ---- One pass of requests through the engine -----------------------------------

struct StepRecord {
  double dt_s = 0.0;
  std::int64_t admitted = 0;    ///< requests the step's plan admitted
  std::int64_t batch = 0;       ///< live sequences the step decoded
  std::int64_t ctx_tokens = 0;  ///< their summed context (KV rows attention reads)
};

class EnginePass {
 public:
  explicit EnginePass(engine::ServingEngine& eng)
      : eng_(eng), prefix_before_(eng.prefix_stats()) {}

  RequestId submit(std::vector<TokenId> prompt, std::int64_t max_new, double due_s) {
    prompt_tokens_ += static_cast<std::int64_t>(prompt.size());
    const std::vector<TokenId> copy = prompt;
    const double t0 = now_s();
    RequestId id;
    {
      obs::Span span("bench.submit", obs::Cat::kBench);
      id = eng_.submit(std::move(prompt), max_new);
    }
    const double t1 = now_s();
    submit_s_.push_back(t1 - t0);
    book.submitted(id, due_s, t0, max_new);
    prompts_.emplace(id, copy);
    ++attempted;
    return id;
  }

  bool busy() const { return !eng_.scheduler().all_done(); }

  /// One step(); returns the requests that finished in it and its end time.
  std::vector<RequestId> step(double* t_end) {
    const auto& sched = eng_.scheduler();
    const std::int64_t waiting = sched.waiting_requests();
    waiting_peak_ = std::max(waiting_peak_, waiting);
    StepRecord rec;
    for (RequestId id : book.live_ids()) {
      rec.ctx_tokens += sched.context_length(id);
      ++rec.batch;
    }
    const double t0 = now_s();
    bool stepped;
    {
      obs::Span span("bench.step", obs::Cat::kBench);
      stepped = eng_.step();
    }
    const double t1 = now_s();
    if (!stepped) throw std::runtime_error("engine stalled: requests pending, step() idle");
    rec.dt_s = t1 - t0;
    rec.admitted = waiting - sched.waiting_requests();
    steps_.push_back(rec);
    const double held = static_cast<double>(sched.reserved_kv_tokens() +
                                            sched.external_reserved_tokens());
    reserved_peak_ratio_ = std::max(
        reserved_peak_ratio_,
        held / static_cast<double>(sched.effective_kv_capacity_tokens()));
    *t_end = t1;
    return book.after_step(eng_, t0, t1);
  }

  /// A seeded sample of finished requests for the output check.
  std::vector<FinishedRequest> sample(std::size_t k, std::uint64_t seed) const {
    std::vector<RequestId> ids;
    for (const auto& [id, p] : prompts_)
      if (eng_.finished(id)) ids.push_back(id);
    Rng rng(seed);
    const auto order = rng.permutation(ids.size());
    std::vector<FinishedRequest> out;
    for (std::size_t i = 0; i < std::min(k, ids.size()); ++i) {
      const RequestId id = ids[order[i]];
      out.push_back({id, prompts_.at(id), eng_.output(id)});
    }
    return out;
  }

  void layer_metrics(const engine::MiniTransformer& model, RunResult* r) const;

  LatencyBook book;
  std::int64_t attempted = 0;

 private:
  engine::ServingEngine& eng_;
  engine::ServingEngine::PrefixStats prefix_before_;
  std::map<RequestId, std::vector<TokenId>> prompts_;
  std::vector<StepRecord> steps_;
  std::vector<double> submit_s_;
  std::int64_t prompt_tokens_ = 0;
  std::int64_t waiting_peak_ = 0;
  double reserved_peak_ratio_ = 0.0;
};

/// Bytes of weights one decode step streams (tensor sizes, not measured):
/// every layer's projections and norms, the final norm and the LM head.
double weight_bytes_per_step(const engine::TransformerWeights& w) {
  std::size_t floats = w.final_norm.size() + w.lm_head.size();
  for (const auto& l : w.layers) {
    floats += l.attn_norm.size() + l.wq.size() + l.wk.size() + l.wv.size() +
              l.wo.size() + l.ffn_norm.size();
    for (std::size_t e = 0; e < l.w_gate.size(); ++e)
      floats += l.w_gate[e].size() + l.w_up[e].size() + l.w_down[e].size();
  }
  return 4.0 * static_cast<double>(floats);
}

/// K and V bytes one context token holds across all layers (fp32 KV).
double kv_bytes_per_token(const engine::MiniTransformer& model) {
  std::size_t width = 0;
  for (std::size_t d : model.kv_dims()) width += d;
  return 2.0 * 4.0 * static_cast<double>(width);
}

void EnginePass::layer_metrics(const engine::MiniTransformer& model,
                               RunResult* r) const {
  auto& m = r->per_layer;
  std::vector<double> decode_ms, prefill_ms;
  double decode_s = 0, prefill_s = 0, decode_seqs = 0, decode_ctx = 0;
  double bucket_s[4] = {}, bucket_seqs[4] = {};
  for (const StepRecord& s : steps_) {
    if (s.admitted > 0) {
      prefill_ms.push_back(s.dt_s * 1e3);
      prefill_s += s.dt_s;
    } else if (s.batch > 0) {
      decode_ms.push_back(s.dt_s * 1e3);
      decode_s += s.dt_s;
      decode_seqs += static_cast<double>(s.batch);
      decode_ctx += static_cast<double>(s.ctx_tokens);
      const auto b = static_cast<std::size_t>(std::min<std::int64_t>(s.batch - 1, 15) / 4);
      bucket_s[b] += s.dt_s;
      bucket_seqs[b] += static_cast<double>(s.batch);
    }
  }
  const auto per_seq_us = [](double s, double seqs) { return seqs > 0 ? s / seqs * 1e6 : 0.0; };
  m["engine.steps"] = static_cast<double>(steps_.size());
  m["engine.decode_step_ms_p50"] = percentile(decode_ms, 0.5, "engine.decode_step_ms_p50");
  m["engine.prefill_step_ms_p50"] =
      percentile(prefill_ms, 0.5, "engine.prefill_step_ms_p50");
  m["engine.decode_us_per_seq"] = per_seq_us(decode_s, decode_seqs);
  const char* names[4] = {"engine.decode_us_per_seq.b01-04", "engine.decode_us_per_seq.b05-08",
                          "engine.decode_us_per_seq.b09-12", "engine.decode_us_per_seq.b13-16"};
  for (int b = 0; b < 4; ++b) m[names[b]] = per_seq_us(bucket_s[b], bucket_seqs[b]);
  m["engine.batch_mean"] =
      decode_ms.empty() ? 0.0 : decode_seqs / static_cast<double>(decode_ms.size());

  const auto after = eng_.prefix_stats();
  const double hit_tokens = static_cast<double>(after.hit_tokens - prefix_before_.hit_tokens);
  const double uncached = static_cast<double>(prompt_tokens_) - hit_tokens;
  m["engine.prefill_tok_s"] = prefill_s > 0 ? uncached / prefill_s : 0.0;
  std::vector<double> submit_us;
  for (double s : submit_s_) submit_us.push_back(s * 1e6);
  m["engine.submit_us_p50"] = percentile(submit_us, 0.5, "engine.submit_us_p50");
  m["engine.weight_gbps"] =
      decode_s > 0 ? weight_bytes_per_step(model.weights()) *
                         static_cast<double>(decode_ms.size()) / decode_s / 1e9
                   : 0.0;
  m["engine.kv_read_gbps"] =
      decode_s > 0 ? decode_ctx * kv_bytes_per_token(model) / decode_s / 1e9 : 0.0;

  m["kv.prefix_lookups"] = static_cast<double>(after.lookups - prefix_before_.lookups);
  m["kv.prefix_hits"] = static_cast<double>(after.hits - prefix_before_.hits);
  m["kv.prefix_evictions"] = static_cast<double>(after.evictions - prefix_before_.evictions);
  m["kv.forked_blocks"] =
      static_cast<double>(after.forked_blocks - prefix_before_.forked_blocks);
  m["kv.prefix_hit_token_ratio"] =
      prompt_tokens_ > 0 ? hit_tokens / static_cast<double>(prompt_tokens_) : 0.0;
  m["kv.reserved_peak_ratio"] = reserved_peak_ratio_;

  std::vector<double> wait_ms, lag_ms;
  for (double s : book.queue_wait_s) wait_ms.push_back(s * 1e3);
  for (double s : book.lag_s) lag_ms.push_back(s * 1e3);
  m["sched.queue_wait_ms_p50"] = percentile(wait_ms, 0.5, "sched.queue_wait_ms_p50");
  m["sched.queue_wait_ms_p95"] = percentile(wait_ms, 0.95, "sched.queue_wait_ms_p95");
  m["sched.waiting_peak"] = static_cast<double>(waiting_peak_);
  m["gen.lag_ms_p95"] = percentile(lag_ms, 0.95, "gen.lag_ms_p95");
  m["gen.lag_ms_max"] = *std::max_element(lag_ms.begin(), lag_ms.end());

  std::ostringstream os;
  os << "engine samples: steps=" << steps_.size() << " decode_steps=" << decode_ms.size()
     << " admitting_steps=" << prefill_ms.size() << " submits=" << submit_s_.size()
     << " queue_waits=" << wait_ms.size();
  r->note(os.str());
}

/// The pass's tails (per-layer: not gated) and the sample counts behind
/// every latency percentile.
void latency_tails(const LatencyBook& book, RunResult* r) {
  std::vector<double> ttft_ms, itl_ms;
  for (double s : book.ttft_s) ttft_ms.push_back(s * 1e3);
  for (double s : book.itl_s) itl_ms.push_back(s * 1e3);
  r->per_layer["tail.ttft_p95_ms"] = percentile(ttft_ms, 0.95, "tail.ttft_p95_ms");
  r->per_layer["tail.itl_p99_ms"] = percentile(itl_ms, 0.99, "tail.itl_p99_ms");
  std::ostringstream os;
  os << "latency samples: ttft=" << ttft_ms.size() << " itl=" << itl_ms.size();
  r->note(os.str());
}

/// p50 in ms of samples[from, to) (seconds).
double p50_ms(const std::vector<double>& samples, std::size_t from, std::size_t to) {
  return 1e3 * percentile({samples.begin() + static_cast<std::ptrdiff_t>(from),
                           samples.begin() + static_cast<std::ptrdiff_t>(to)},
                          0.5, "p50 of one stretch");
}

/// The samples, in the order they were taken, cut into consecutive
/// stretches of `size` (the remainder joins the last one); the fastest
/// stretch's p50. Short stretches catch the host's short fast spells.
double fastest_stretch_p50_ms(const std::vector<double>& samples, std::size_t size) {
  const std::size_t stretches = std::max<std::size_t>(1, samples.size() / size);
  std::vector<double> p50s;
  for (std::size_t k = 0; k < stretches; ++k)
    p50s.push_back(p50_ms(samples, k * size,
                          k + 1 == stretches ? samples.size() : (k + 1) * size));
  return fastest(p50s);
}

/// Samples per stretch: TTFT stretches are as short as a p50 may be (10
/// samples beyond it); token gaps come about seven times as often.
constexpr std::size_t kTtftStretch = 20;
constexpr std::size_t kItlStretch = 50;

/// Output checks shared by both engine workloads: every finished request
/// has its requested length, and a seeded sample matches serial generate.
void check_engine_outputs(const EnginePass& pass, const engine::MiniTransformer& model,
                          std::size_t sample, std::uint64_t seed, RunResult* r) {
  r->attempted = pass.attempted;
  const std::int64_t unfinished = pass.attempted - pass.book.completed;
  if (unfinished != 0)
    r->problems.push_back(std::to_string(unfinished) + " requests never finished");
  if (pass.book.wrong_length != 0)
    r->problems.push_back(std::to_string(pass.book.wrong_length) +
                          " requests returned the wrong number of tokens");
  const std::int64_t mismatched = check_outputs(model, pass.sample(sample, seed), &r->problems);
  r->failed = unfinished + pass.book.wrong_length + mismatched;
  std::ostringstream os;
  os << "requests: sent=" << pass.attempted << " succeeded=" << pass.attempted - r->failed
     << " failed=" << r->failed << " (output check: " << std::min<std::size_t>(sample, pass.book.completed)
     << " sampled, " << mismatched << " mismatched)";
  r->note(os.str());
}

// ---- engine_chat ----------------------------------------------------------------

struct ChatShape {
  std::int64_t system_tokens = 256;
  std::int64_t turns = 4;
  std::int64_t user_min = 8, user_max = 16;
  std::int64_t reply_tokens = 8;
  /// Think time is uniform in this range: random pauses keep turns of
  /// different conversations from locking into step with each other.
  double think_min_s = 0.25, think_max_s = 0.55;
  double start_rate = 10.0;  ///< conversation starts per second (Poisson)
  /// 240 turns: enough for tail.ttft_p95_ms and for p50s of 8 stretches.
  std::int64_t min_conversations = 60;
};

struct ChatPlan {
  struct Conversation {
    double start_s = 0.0;
    std::vector<std::vector<TokenId>> user;  ///< one fresh message per turn
    std::vector<double> think_s;             ///< [k]: pause before turn k >= 1
  };
  std::vector<TokenId> system;
  std::vector<Conversation> conversations;
};

/// As many conversations as start in the first part of the run at the
/// configured rate (so the last ones finish within about `seconds`), but
/// never fewer than min_conversations. Their starts are a Poisson process
/// conditioned on that count: independent uniform times over the window,
/// so the offered load does not depend on the seed.
ChatPlan make_chat_plan(const ChatShape& shape, std::uint64_t seed, double seconds) {
  Rng rng(seed);
  ChatPlan plan;
  plan.system = random_tokens(rng, shape.system_tokens);
  const double lifetime =
      static_cast<double>(shape.turns) * (0.5 * (shape.think_min_s + shape.think_max_s) + 0.05);
  const auto count = std::max<std::int64_t>(
      shape.min_conversations,
      static_cast<std::int64_t>(shape.start_rate * (seconds - lifetime)));
  const double window = static_cast<double>(count) / shape.start_rate;
  std::vector<double> starts;
  for (std::int64_t i = 0; i < count; ++i) starts.push_back(rng.uniform(0.0, window));
  std::sort(starts.begin(), starts.end());
  for (double t : starts) {
    ChatPlan::Conversation c;
    c.start_s = t;
    for (std::int64_t k = 0; k < shape.turns; ++k) {
      c.user.push_back(random_tokens(rng, rng.uniform_int(shape.user_min, shape.user_max)));
      c.think_s.push_back(rng.uniform(shape.think_min_s, shape.think_max_s));
    }
    plan.conversations.push_back(std::move(c));
  }
  return plan;
}

/// Open loop over conversations, closed loop within one: turn k+1 is due one
/// think time after turn k's reply completes. Returns the pass wall time.
double drive_chat(engine::ServingEngine& eng, const ChatPlan& plan,
                  const ChatShape& shape, EnginePass* pass) {
  using Due = std::pair<double, std::size_t>;  // (due time, conversation)
  std::priority_queue<Due, std::vector<Due>, std::greater<Due>> due;
  const double t0 = now_s();
  for (std::size_t c = 0; c < plan.conversations.size(); ++c)
    due.push({t0 + plan.conversations[c].start_s, c});
  struct State {
    std::vector<TokenId> history;
    std::size_t turn = 0;
  };
  std::vector<State> state(plan.conversations.size(), State{plan.system, 0});
  std::map<RequestId, std::size_t> owner;
  double t_end = t0;
  while (!due.empty() || pass->busy()) {
    const double now = now_s();
    while (!due.empty() && due.top().first <= now) {
      const auto [due_s, c] = due.top();
      due.pop();
      State& s = state[c];
      const auto& msg = plan.conversations[c].user[s.turn];
      s.history.insert(s.history.end(), msg.begin(), msg.end());
      owner[pass->submit(s.history, shape.reply_tokens, due_s)] = c;
    }
    if (pass->busy()) {
      for (RequestId id : pass->step(&t_end)) {
        const std::size_t c = owner.at(id);
        State& s = state[c];
        const auto& reply = eng.output(id);
        s.history.insert(s.history.end(), reply.begin(), reply.end());
        if (++s.turn < static_cast<std::size_t>(shape.turns))
          due.push({t_end + plan.conversations[c].think_s[s.turn], c});
      }
    } else if (!due.empty()) {
      wait_until(due.top().first);
    }
  }
  return t_end - t0;
}

// ---- engine_batch ---------------------------------------------------------------

/// A round is two waves at max_batch 16 with the 20 TTFT samples a p50
/// needs.
struct BatchShape {
  std::int64_t requests = 32;
  std::int64_t prompt_min = 128, prompt_max = 224;
  std::int64_t output_min = 32, output_max = 64;
  std::int64_t min_rounds = 8;  ///< 256 requests: enough for tail.ttft_p95_ms
};

/// The prompt and output length of each request of a round, in the order
/// they are submitted: evenly spaced over their ranges, shuffled by the seed
/// once per run, so every round of a run does identical work.
struct BatchPlan {
  std::vector<std::int64_t> prompt_len, output_len;
};

BatchPlan make_batch_plan(const BatchShape& shape, Rng& rng) {
  const auto n = static_cast<std::size_t>(shape.requests);
  BatchPlan plan;
  plan.prompt_len = shuffled_lengths(shape.prompt_min, shape.prompt_max, n, rng);
  plan.output_len = shuffled_lengths(shape.output_min, shape.output_max, n, rng);
  return plan;
}

struct Round {
  double wall_s = 0.0;
  std::int64_t output_tokens = 0;
  std::int64_t requests = 0;
  RoundSteps steps;
};

/// One round: every request of the plan due at once. Tokens are fresh and
/// random, so no prompt shares a prefix with any earlier one.
Round drive_batch_round(const BatchPlan& plan, Rng& rng, EnginePass* pass) {
  const std::size_t n = plan.prompt_len.size();
  std::vector<std::vector<TokenId>> prompts;
  for (std::size_t i = 0; i < n; ++i) prompts.push_back(random_tokens(rng, plan.prompt_len[i]));

  Round r;
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i)
    pass->submit(std::move(prompts[i]), plan.output_len[i], t0);
  double t_end = t0;
  while (pass->busy()) {
    const double prev = t_end;
    const std::size_t firsts = pass->book.ttft_s.size(), gaps = pass->book.itl_s.size();
    pass->step(&t_end);
    r.steps.dt_s.push_back(t_end - prev);
    r.steps.firsts.push_back(pass->book.ttft_s.size() - firsts);
    r.steps.gaps.push_back(pass->book.itl_s.size() - gaps);
  }
  r.wall_s = t_end - t0;
  r.requests = static_cast<std::int64_t>(n);
  for (std::int64_t o : plan.output_len) r.output_tokens += o;
  return r;
}

}  // namespace

RunResult run_engine_chat(const Options& opt) {
  RunResult r;
  const ChatShape shape;
  const auto set_up = [&](Fixture& f, ChatPlan& p) {
    release(f);
    f = make_fixture(opt.seed);
    p = make_chat_plan(shape, opt.seed, opt.seconds);
    Rng warm(opt.seed + 1);
    warm_up(*f.engine, p.system, warm);
  };
  Fixture fx;
  ChatPlan plan;
  SetupTimes setup;
  for (int i = 0; i < kSetupRepsEach; ++i) setup.time([&] { set_up(fx, plan); });

  EnginePass pass(*fx.engine);
  const double wall = drive_chat(*fx.engine, plan, shape, &pass);
  auto& m = r.end_to_end;
  latency_tails(pass.book, &r);
  m["ttft_p50_ms"] = fastest_stretch_p50_ms(pass.book.ttft_s, kTtftStretch);
  m["itl_p50_ms"] = fastest_stretch_p50_ms(pass.book.itl_s, kItlStretch);
  m["output_tok_s"] = static_cast<double>(pass.book.output_tokens) / wall;
  m["sim_req_per_s"] = static_cast<double>(pass.book.completed) / wall;
  m["peak_rss_mb"] = peak_rss_mb();
  {
    Fixture spare;
    ChatPlan spare_plan;
    for (int i = 0; i < kSetupRepsEach; ++i) setup.time([&] { set_up(spare, spare_plan); });
    release(spare);
  }
  m["setup_s"] = setup.median_s();
  {
    std::ostringstream os;
    os << "chat: conversations=" << plan.conversations.size() << " turns=" << pass.attempted
       << " wall_s=" << wall;
    r.note(os.str());
  }
  check_engine_outputs(pass, *fx.model, 24, opt.seed + 2, &r);
  if (!opt.trace) return r;

  pass.layer_metrics(*fx.model, &r);
  // The traced pass runs half as long: it only needs the span shares and a
  // TTFT p50 to set against the untraced one.
  const ChatPlan traced_plan = make_chat_plan(shape, opt.seed + 3, opt.seconds / 2);
  EnginePass traced(*fx.engine);
  {
    TraceScope scope;
    drive_chat(*fx.engine, traced_plan, shape, &traced);
    record_trace("engine.step", opt.trace_dir + "/engine_chat.trace.json", &r);
  }
  r.per_layer["trace.overhead_pct"] =
      100.0 * (fastest_stretch_p50_ms(traced.book.ttft_s, kTtftStretch) / m["ttft_p50_ms"] - 1.0);
  return r;
}

RunResult run_engine_batch(const Options& opt) {
  RunResult r;
  const BatchShape shape;
  const auto set_up = [&](Fixture& f) {
    release(f);
    f = make_fixture(opt.seed);
    // One round with short outputs brings the paged pool and the radix
    // cache to the state every later round starts from (blocks recycled,
    // cache full of unshared entries).
    BatchShape warm_shape = shape;
    warm_shape.output_min = 8;
    warm_shape.output_max = 16;
    Rng warm(opt.seed + 1);
    EnginePass warm_pass(*f.engine);
    drive_batch_round(make_batch_plan(warm_shape, warm), warm, &warm_pass);
  };
  Fixture fx;
  SetupTimes setup;
  for (int i = 0; i < kSetupRepsEach; ++i) setup.time([&] { set_up(fx); });

  EnginePass pass(*fx.engine);
  Rng rng(opt.seed + 2);
  const BatchPlan plan = make_batch_plan(shape, rng);
  std::vector<Round> rounds;
  const double t0 = now_s();
  // Whole rounds until the time is up, and at least min_rounds.
  while (static_cast<std::int64_t>(rounds.size()) < shape.min_rounds ||
         now_s() - t0 < opt.seconds)
    rounds.push_back(drive_batch_round(plan, rng, &pass));

  // Every round does identical work step by step: the same requests decode
  // in the same step of every round. The round's figures are built from
  // each step's fastest time over the rounds, so a fast spell of the host
  // counts wherever in a round it falls.
  std::vector<RoundSteps> steps;
  std::vector<double> wall_s;
  for (const Round& rd : rounds) {
    steps.push_back(rd.steps);
    wall_s.push_back(rd.wall_s);
  }
  const RebuiltRound rebuilt = rebuild_round(steps);
  for (std::size_t k : rebuilt.mismatched)
    r.problems.push_back("round " + std::to_string(k + 1) +
                         " scheduled its requests differently from round 1");
  const double round_s = rebuilt.wall_s;
  auto& m = r.end_to_end;
  latency_tails(pass.book, &r);
  m["output_tok_s"] = static_cast<double>(rounds.front().output_tokens) / round_s;
  m["sim_req_per_s"] = static_cast<double>(rounds.front().requests) / round_s;
  m["ttft_p50_ms"] = percentile(rebuilt.ttft_ms, 0.5, "ttft_p50_ms");
  m["itl_p50_ms"] = percentile(rebuilt.itl_ms, 0.5, "itl_p50_ms");
  m["peak_rss_mb"] = peak_rss_mb();
  {
    Fixture spare;
    for (int i = 0; i < kSetupRepsEach; ++i) setup.time([&] { set_up(spare); });
    release(spare);
  }
  m["setup_s"] = setup.median_s();
  {
    std::ostringstream os;
    os << "batch: rounds=" << rounds.size() << " requests_per_round=" << shape.requests
       << " steps_per_round=" << steps.front().dt_s.size() << " round_s: from fastest steps="
       << round_s << " fastest=" << fastest(wall_s) << " median=" << median(wall_s);
    r.note(os.str());
  }
  check_engine_outputs(pass, *fx.model, 6, opt.seed + 3, &r);
  if (!opt.trace) return r;

  pass.layer_metrics(*fx.model, &r);
  // Untraced and traced rounds alternate, so host drift hits both sides
  // alike; the last traced round is the one recorded.
  constexpr int kTracedRounds = 5;
  std::vector<double> plain_s, traced_s;
  for (int i = 0; i < kTracedRounds; ++i) {
    EnginePass plain(*fx.engine);
    plain_s.push_back(drive_batch_round(plan, rng, &plain).wall_s);
    EnginePass traced(*fx.engine);
    TraceScope scope;
    traced_s.push_back(drive_batch_round(plan, rng, &traced).wall_s);
    if (i == kTracedRounds - 1)
      record_trace("engine.step", opt.trace_dir + "/engine_batch.trace.json", &r);
  }
  r.per_layer["trace.overhead_pct"] = 100.0 * (fastest(traced_s) / fastest(plain_s) - 1.0);
  return r;
}

}  // namespace perfbench
