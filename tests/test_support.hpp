// Shared fixtures for the PassFlow test suite: small flows that train in
// milliseconds and a deterministic toy corpus.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "data/encoder.hpp"
#include "flow/flow_model.hpp"
#include "flow/trainer.hpp"
#include "nn/gemm.hpp"
#include "util/logging.hpp"

namespace passflow::testing {

// Where stored bits are exact. Golden values are captured in a Release
// build on an AVX-512 host with glibc 2.36.
//
// GEMM products are bitwise when the backend is `blocked` and the kernel
// uses FMA (nn::gemm::kernel_name() is "avx512" or "avx2"): every FMA
// kernel runs one fused multiply-add chain per output element, in
// ascending k, split at the 384-deep k block, so they agree bit for bit.
inline bool gemm_bits_pinned() {
  return nn::gemm::active_backend() == nn::gemm::Backend::kBlocked &&
         std::strcmp(nn::gemm::kernel_name(), "portable") != 0;
}

inline std::string libc_version() {
#if defined(__GLIBC__)
  return gnu_get_libc_version();
#else
  return "";
#endif
}

// Anything computed through the flow also passes through glibc's
// expf/exp/log, which pick an FMA variant at load time, so it is bitwise
// only where the glibc version matches the capture as well.
inline bool flow_bits_pinned() {
  return gemm_bits_pinned() && libc_version() == "2.36";
}

// A tiny flow (few couplings, narrow nets) over the compact alphabet.
inline flow::FlowConfig tiny_flow_config(std::size_t dim = 6) {
  flow::FlowConfig config;
  config.dim = dim;
  config.num_couplings = 4;
  config.hidden = 32;
  config.residual_blocks = 1;
  return config;
}

// Deterministic toy corpus: structured passwords over [a-z0-9].
inline std::vector<std::string> toy_corpus(std::size_t copies = 30) {
  const std::vector<std::string> base = {
      "123456", "abc123", "pass12", "love11", "qwerty", "dragon",
      "sunny1", "happy2", "star99", "blue42", "cat123", "dog456",
  };
  std::vector<std::string> corpus;
  for (std::size_t i = 0; i < copies; ++i) {
    corpus.insert(corpus.end(), base.begin(), base.end());
  }
  return corpus;
}

// Silences INFO logs for quieter test output; restores on destruction.
class QuietLogs {
 public:
  QuietLogs() : previous_(util::log_level()) {
    util::set_log_level(util::LogLevel::kWarn);
  }
  ~QuietLogs() { util::set_log_level(previous_); }

 private:
  util::LogLevel previous_;
};

// A tiny flow trained on the toy corpus, with its encoder and corpus.
// Obtain through tiny_trained_flow() — never construct directly.
struct TinyTrainedFlow {
  data::Encoder encoder{data::Alphabet::compact(), 6};
  util::Rng init_rng{23};
  flow::FlowModel model{tiny_flow_config(), init_rng};
  std::vector<std::string> corpus = toy_corpus(40);
  flow::TrainResult train_result;
};

// Process-wide trained-flow fixture: training runs once, on first use, and
// every test in the binary shares the result. The reference is const —
// tests must treat the model as immutable (clone the config and train your
// own flow if you need to mutate weights). Training the tiny architecture
// on the toy corpus takes well under a second, but saving even that per
// test fixture keeps the suite fast as trained-model tests accumulate.
inline const TinyTrainedFlow& tiny_trained_flow() {
  static const TinyTrainedFlow* env = [] {
    QuietLogs quiet;
    auto* e = new TinyTrainedFlow();
    flow::TrainConfig config;
    config.epochs = 12;
    config.batch_size = 64;
    config.log_every = 0;
    config.seed = 29;
    flow::Trainer trainer(e->model, config);
    e->train_result = trainer.train(e->corpus, e->encoder);
    return e;
  }();
  return *env;
}

}  // namespace passflow::testing
