#pragma once

// The four benchmark workloads and the pieces the self-tests exercise.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/generator.h"
#include "report.h"
#include "util/rng.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";  ///< where a traced run writes its Chrome trace
};

RunResult run_engine_chat(const Options& opt);
RunResult run_engine_batch(const Options& opt);
RunResult run_sim_serve(const Options& opt);
RunResult run_sim_cluster(const Options& opt);

/// `n` lengths evenly spaced over [lo, hi], in an order shuffled by `rng`:
/// every seed gets the same multiset, so the same total work (and the same
/// buffer sizes in the program under test).
std::vector<std::int64_t> shuffled_lengths(std::int64_t lo, std::int64_t hi, std::size_t n,
                                           llmib::util::Rng& rng);

/// The engine workloads' model: LLaMA-style GQA, fp32, seeded-random
/// weights (6 MB; a decode step streams 5 MB of them, past one core's 2 MiB
/// L2, as decode streams weights on the paper's accelerators).
llmib::models::ModelConfig bench_model_config();

/// Per-request bookkeeping done from outside the engine. Token times are
/// stamped at the end of the step() after which the token exists; queue wait
/// ends at the start of the step() whose plan admitted the request (the
/// first step after which scheduler().is_live(id) holds or the request is
/// already finished). All times are on the caller's clock, in seconds.
class LatencyBook {
 public:
  using RequestId = llmib::sched::RequestId;

  void submitted(RequestId id, double due_s, double submit_s,
                 std::int64_t max_new_tokens);
  /// Poll every request still in flight after a step() over [t0, t1].
  /// Returns the requests that finished in it.
  std::vector<RequestId> after_step(const llmib::engine::ServingEngine& engine,
                                    double t0, double t1);
  /// Ids admitted and not yet finished (the sequences a decode advances).
  std::vector<RequestId> live_ids() const;
  std::size_t in_flight() const { return open_.size(); }

  std::vector<double> ttft_s;        ///< due -> first token
  std::vector<double> itl_s;         ///< gaps between tokens of one request
  std::vector<double> queue_wait_s;  ///< due -> start of the admitting step
  std::vector<double> lag_s;         ///< due -> submit() call
  std::int64_t completed = 0;
  std::int64_t output_tokens = 0;
  /// Finished requests whose output length differs from what was asked.
  std::int64_t wrong_length = 0;

 private:
  struct Open {
    double due_s = 0.0;
    std::int64_t max_new = 0;
    std::int64_t seen = 0;  ///< tokens observed so far
    double last_token_s = 0.0;
    bool admitted = false;
  };
  std::map<RequestId, Open> open_;
};

/// One engine_batch round's step() calls: each one's duration (from the
/// end of the one before, the first from the round's start) and how many
/// first tokens and token gaps it produced. The counts are the round's
/// schedule.
struct RoundSteps {
  std::vector<double> dt_s;
  std::vector<std::size_t> firsts, gaps;
};

/// A round rebuilt from each step's fastest time over the rounds that share
/// the first round's schedule: its wall time and its TTFT (from the round's
/// start) and token-gap samples, in ms. `mismatched` lists the rounds
/// (0-based) whose schedule differs, which are left out.
struct RebuiltRound {
  double wall_s = 0.0;
  std::vector<double> ttft_ms, itl_ms;
  std::vector<std::size_t> mismatched;
};
RebuiltRound rebuild_round(const std::vector<RoundSteps>& rounds);

/// One finished request, as the output check needs it.
struct FinishedRequest {
  llmib::sched::RequestId id = 0;
  std::vector<llmib::engine::TokenId> prompt;
  std::vector<llmib::engine::TokenId> output;
};

/// Regenerate each request with serial engine::generate (greedy, same
/// prompt, same length) and compare token by token. Returns the number of
/// requests that differ; each difference adds a line to `problems`.
std::int64_t check_outputs(const llmib::engine::MiniTransformer& model,
                           const std::vector<FinishedRequest>& sample,
                           std::vector<std::string>* problems);

}  // namespace perfbench
