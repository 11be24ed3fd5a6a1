// Packed inference weights: every inference product reads a copy of its
// weights packed on first use (nn::PackedWeights), and every write to a
// Param advances its version. These tests pin that no writer leaves a
// stale copy behind, and count the work the packed copies save and the
// memory an inference-only model holds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "flow/flow_model.hpp"
#include "flow/trainer.hpp"
#include "nn/adam.hpp"
#include "nn/gemm.hpp"
#include "nn/gradcheck.hpp"
#include "nn/serialize.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace passflow::flow {
namespace {

nn::Matrix normal_batch(std::size_t rows, std::size_t cols,
                        std::uint64_t seed, double stddev = 1.0) {
  util::Rng rng(seed);
  nn::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  return m;
}

// Perturbs every weight, the zero-initialized s/t heads included, so the
// flow is not the identity map.
void randomize_parameters(FlowModel& model, std::uint64_t seed) {
  util::Rng rng(seed);
  for (nn::Param* p : model.parameters()) {
    if (p->name.find("s_scale") != std::string::npos) continue;
    p->write([&rng](nn::Matrix& value) {
      for (std::size_t i = 0; i < value.size(); ++i) {
        value.data()[i] += static_cast<float>(rng.normal(0.0, 0.15));
      }
    });
  }
}

std::unique_ptr<FlowModel> tiny_model(std::uint64_t seed) {
  util::Rng rng(seed);
  auto model =
      std::make_unique<FlowModel>(passflow::testing::tiny_flow_config(), rng);
  randomize_parameters(*model, seed + 1);
  return model;
}

// Runs the model's inference passes: an inverse and a log p batch.
void run_inference(const FlowModel& model, nn::Matrix& x,
                   std::vector<double>& log_p) {
  x = model.inverse(normal_batch(24, model.dim(), 71));
  log_p = model.log_prob_batch(normal_batch(24, model.dim(), 73, 0.5));
}

// The next inverse and log_prob_batch of `model` must equal, bitwise, those
// of a new model loaded with the same weights, whose packed copies are
// built from scratch.
void expect_inference_matches_fresh_copy(FlowModel& model) {
  std::stringstream weights;
  nn::save_params(weights, model.parameters());
  util::Rng rng(999);
  FlowModel fresh(model.config(), rng);
  nn::load_params(weights, fresh.parameters());

  nn::Matrix x, fresh_x;
  std::vector<double> log_p, fresh_log_p;
  run_inference(model, x, log_p);
  run_inference(fresh, fresh_x, fresh_log_p);
  ASSERT_TRUE(x.same_shape(fresh_x));
  EXPECT_EQ(0, std::memcmp(x.data(), fresh_x.data(), x.size() * sizeof(float)))
      << "inverse read weights other than the model's";
  EXPECT_EQ(log_p, fresh_log_p) << "log p read weights other than the model's";
}

TEST(PackedWeights, AdamStepsRepack) {
  auto model = tiny_model(3);
  nn::Matrix x;
  std::vector<double> log_p;
  run_inference(*model, x, log_p);  // packs the initial weights

  nn::Adam adam(model->parameters());
  const nn::Matrix batch = normal_batch(32, model->dim(), 5, 0.5);
  for (int step = 0; step < 2; ++step) {
    // Inference runs between the two writes, packing the first step's
    // weights, which the second step then replaces.
    model->zero_grad();
    model->nll_backward(batch);
    adam.step();
    expect_inference_matches_fresh_copy(*model);
  }
}

TEST(PackedWeights, LoadRepacks) {
  auto model = tiny_model(7);
  nn::Matrix x;
  std::vector<double> log_p;
  run_inference(*model, x, log_p);

  auto other = tiny_model(11);
  const std::string path = ::testing::TempDir() + "pf_packed_load.bin";
  other->save(path);
  model->load(path);
  std::remove(path.c_str());
  expect_inference_matches_fresh_copy(*model);
}

// Trainer validates every epoch with pooled inference, packing that epoch's
// weights, and at the end restores the best epoch's weights over them.
TEST(PackedWeights, TrainerBestEpochRestoreRepacks) {
  passflow::testing::QuietLogs quiet;
  const data::Encoder encoder(data::Alphabet::compact(), 6);
  auto model = tiny_model(13);
  util::ThreadPool pool(2);
  TrainConfig config;
  config.epochs = 6;
  config.batch_size = 32;
  config.learning_rate = 0.1;
  config.log_every = 0;
  config.seed = 17;
  config.pool = &pool;
  Trainer trainer(*model, config);
  const TrainResult result =
      trainer.train(passflow::testing::toy_corpus(20), encoder);
  // Restoring the last epoch's weights would not move any weight.
  ASSERT_LT(result.best_epoch + 1, config.epochs);
  expect_inference_matches_fresh_copy(*model);
}

// gradcheck perturbs one weight at a time and evaluates the loss through
// the inference forward, so each perturbation must reach the packed copy:
// a stale one would read a zero numeric gradient.
TEST(PackedWeights, GradcheckPerturbationsRepack) {
  util::Rng rng(19);
  FlowConfig config = passflow::testing::tiny_flow_config(4);
  config.num_couplings = 2;
  config.hidden = 12;
  FlowModel model(config, rng);
  randomize_parameters(model, 23);

  const nn::Matrix x = normal_batch(4, 4, 29, 0.3);
  model.zero_grad();
  model.nll_backward(x);
  const auto loss = [&]() { return model.nll(x); };
  const nn::GradCheckResult result =
      nn::check_param_gradients(loss, model.parameters(), 1e-3, 12);
  EXPECT_LT(result.max_rel_error, 5e-2) << "abs " << result.max_abs_error;
  expect_inference_matches_fresh_copy(model);
}

// Exact work counters: a warm inference pass packs nothing, whatever its
// row count, while a training step packs its operands per call.
TEST(PackedWeights, WarmInferencePacksNoBytes) {
  util::Rng rng(31);
  FlowModel model(FlowConfig{}, rng);  // the paper architecture
  for (const std::size_t rows : {1, 16, 512}) {
    SCOPED_TRACE(::testing::Message() << rows << " rows");
    const nn::Matrix x = normal_batch(rows, model.dim(), 37, 0.5);
    std::vector<double> log_det;
    model.forward_inference(x, &log_det);
    model.inverse(x);  // warm
    const std::uint64_t before = nn::gemm::packed_bytes();
    model.forward_inference(x, &log_det);
    model.inverse(x);
    EXPECT_EQ(nn::gemm::packed_bytes() - before, 0u);
  }

  const std::uint64_t before = nn::gemm::packed_bytes();
  model.zero_grad();
  model.nll_backward(normal_batch(64, model.dim(), 41, 0.5));
  if (nn::gemm::active_backend() == nn::gemm::Backend::kBlocked) {
    EXPECT_GT(nn::gemm::packed_bytes() - before, 0u);
  }
}

std::size_t gradient_floats(FlowModel& model) {
  std::size_t floats = 0;
  for (const nn::Param* p : model.parameters()) floats += p->grad.size();
  return floats;
}

TEST(PackedWeights, InferenceOnlyModelHoldsNoGradient) {
  util::Rng rng(43);
  FlowModel model(FlowConfig{}, rng);
  model.log_prob_batch(normal_batch(16, model.dim(), 47, 0.5));
  model.inverse(normal_batch(16, model.dim(), 53));
  EXPECT_EQ(gradient_floats(model), 0u);

  // The first backward pass sizes every gradient.
  model.zero_grad();
  model.nll_backward(normal_batch(8, model.dim(), 59, 0.5));
  EXPECT_EQ(gradient_floats(model), model.parameter_count());
}

}  // namespace
}  // namespace passflow::flow
