// Shared pieces of the workloads: the workload table, seed derivation,
// the decorators the traced run hands the program, and the bitwise-checked
// replays of public calls the program makes internally.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/encoder.hpp"
#include "flow/flow_model.hpp"
#include "guessing/generator.hpp"
#include "guessing/matcher.hpp"
#include "guessing/static_sampler.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "util/annotated_sync.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

struct WorkloadInfo {
  const char* name;
  const char* why;
};

// The four workloads and why each exists (also in BENCHMARK.json).
const std::vector<WorkloadInfo>& workloads();

int run_attack(const RunArgs& args);
int run_screen(const RunArgs& args);

// Independent sub-seed for one input of a workload (splitmix64 of both).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

// Order-sensitive digest of a guess or query stream.
std::uint64_t fold_digest(std::uint64_t digest, const std::string& item);

// The paper architecture (18 couplings x 256 hidden x 2 blocks, dim 10)
// with weights from a fixed seed: throughput does not depend on them.
passflow::flow::FlowConfig paper_flow_config();
inline constexpr std::uint64_t kPaperWeightSeed = 0x9a9e5eedULL;

// Prints the provenance header line.
void print_provenance(const RunArgs& args);

// One launch-to-ready, split by layer.
struct SetupTimes {
  double model_s = 0.0;
  double matcher_s = 0.0;
  double server_s = 0.0;  // sampler, engine or server construction
  double total_s = 0.0;
};

// Traced runs: checks the spans are well formed (returns the problem, or
// empty), prints the per-layer table and writes the Chrome trace.
std::string emit_trace(const RunArgs& args, const std::vector<Span>& spans);

// Prints the detail line (with `problems`) and the result line; returns
// the exit code, non-zero when any output check failed.
int finish_run(const RunArgs& args, JsonObject& detail,
               const std::vector<std::string>& problems,
               std::size_t attempted, std::size_t failed,
               const Values& values);

// Forwards every call; counts calls and on_match feedback, and wraps
// generate() in a "guessing.generate" span (request id = rid_base + chunk
// ordinal + 1).
class TracedGenerator : public passflow::guessing::GuessGenerator {
 public:
  TracedGenerator(GuessGenerator& inner, std::uint64_t rid_base)
      : inner_(inner), rid_base_(rid_base) {}

  void generate(std::size_t n, std::vector<std::string>& out) override;
  void on_match(std::size_t index_in_batch,
                const std::string& password) override {
    ++feedback_calls_;
    inner_.on_match(index_in_batch, password);
  }
  bool uses_match_feedback() const override {
    return inner_.uses_match_feedback();
  }
  std::string name() const override { return inner_.name(); }

  // Read only after the session that drives this generator finished.
  std::size_t calls() const { return calls_; }
  std::size_t feedback_calls() const { return feedback_calls_; }

 private:
  GuessGenerator& inner_;
  std::uint64_t rid_base_;
  std::size_t calls_ = 0;
  std::size_t feedback_calls_ = 0;
};

// Forwards every call; counts probes and hits, wraps contains_batch in a
// "guessing.match" span and, while tracing, logs each call's start and size
// (the screening run maps batches back to queries with it). In an attack
// each call is one chunk, so the span carries the call ordinal as its
// request id; a server batch mixes queries, so there it carries none.
class TracedMatcher : public passflow::guessing::Matcher {
 public:
  TracedMatcher(const Matcher& inner, bool calls_are_requests)
      : inner_(inner), calls_are_requests_(calls_are_requests) {}

  bool contains(const std::string& password) const override {
    return inner_.contains(password);
  }
  std::size_t test_set_size() const override {
    return inner_.test_set_size();
  }
  std::string name() const override { return inner_.name(); }
  void contains_batch(const std::vector<std::string>& batch,
                      passflow::util::ThreadPool* pool,
                      std::vector<char>& out) const override;

  std::size_t probes() const { return probes_.load(); }
  std::size_t hits() const { return hits_.load(); }
  // (start seconds, batch size) per traced call, in call order.
  std::vector<std::pair<double, std::size_t>> batch_log() const
      PF_EXCLUDES(mu_);

 private:
  const Matcher& inner_;
  const bool calls_are_requests_;
  mutable std::atomic<std::size_t> calls_{0};
  mutable std::atomic<std::size_t> probes_{0};
  mutable std::atomic<std::size_t> hits_{0};
  mutable passflow::util::Mutex mu_;
  mutable std::vector<std::pair<double, std::size_t>> log_ PF_GUARDED_BY(mu_);
};

// Replays StaticSampler::generate at its batch shape as the three public
// calls it makes (Rng::normal draws, FlowModel::inverse(z, pool),
// Encoder::decode_batch(x, pool)), each in its own span, and compares the
// decoded rows bitwise with `expected` (the sampler's real output for the
// same config, seed and row count).
struct FlowReplay {
  std::size_t rows = 0;
  double latent_s = 0.0;
  double inverse_s = 0.0;
  double decode_s = 0.0;
  bool bitwise_equal = false;
};
FlowReplay replay_static_sampler(
    const passflow::flow::FlowModel& model,
    const passflow::data::Encoder& encoder,
    const passflow::guessing::StaticSamplerConfig& config,
    const std::vector<std::string>& expected);

// Times FlowModel::log_prob_batch(x, pool) at 1, 8 and 64 rows of the
// given (encodable) passwords, median over repeats, and checks every row
// of the 64-row batch bitwise against the same row scored alone.
struct ForwardReplay {
  double rows1_ms = 0.0;
  double rows8_ms = 0.0;
  double rows64_ms = 0.0;
  bool bitwise_equal = false;
};
ForwardReplay replay_forward(const passflow::flow::FlowModel& model,
                             const passflow::data::Encoder& encoder,
                             const std::vector<std::string>& passwords,
                             passflow::util::ThreadPool* pool, bool tiny);

// Multiply-adds of one inverse or forward row: 2 x parameter count
// (computed, not counted).
double flops_per_row(passflow::flow::FlowModel& model);

}  // namespace e2e
