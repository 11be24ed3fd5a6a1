#include "flow/flow_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/gradcheck.hpp"
#include "nn/ops.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace passflow::flow {
namespace {

nn::Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng,
                         double stddev = 1.0) {
  nn::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  return m;
}

void randomize_parameters(FlowModel& model, util::Rng& rng,
                          double stddev = 0.15) {
  for (nn::Param* p : model.parameters()) {
    if (p->name.find("s_scale") != std::string::npos) continue;
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] += static_cast<float>(rng.normal(0.0, stddev));
    }
  }
}

TEST(FlowModel, IdentityAtInitialization) {
  util::Rng rng(1);
  FlowModel model(testing::tiny_flow_config(), rng);
  const nn::Matrix x = random_matrix(4, 6, rng);
  const nn::Matrix z = model.forward_inference(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_FLOAT_EQ(z.data()[i], x.data()[i]);
  }
}

class FlowDepthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FlowDepthTest, InverseUndoesForwardAtAnyDepth) {
  util::Rng rng(2);
  FlowConfig config = testing::tiny_flow_config();
  config.num_couplings = GetParam();
  FlowModel model(config, rng);
  // Scale the perturbation with depth: random (untrained) deep flows are
  // ill-conditioned (the per-layer scale factors compound as exp(sum s)),
  // which amplifies float32 round-off far beyond what trained flows see.
  randomize_parameters(model, rng, 0.6 / static_cast<double>(GetParam()));

  const nn::Matrix x = random_matrix(8, config.dim, rng);
  const nn::Matrix z = model.forward_inference(x);
  const nn::Matrix back = model.inverse(z);
  // float32 round-trip error compounds with depth; scale the tolerance.
  const float tolerance = 5e-4f * static_cast<float>(GetParam() + 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back.data()[i], x.data()[i], tolerance);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, FlowDepthTest,
                         ::testing::Values(1, 2, 4, 8, 18));

// The inference forward gives the training forward's bits through a whole
// stack, at row counts around the 8-row register tile and the 128-row
// cache block, with a partial 32-column panel (hidden 40).
TEST(FlowModel, ForwardInferenceMatchesTrainingForwardBitwise) {
  FlowConfig config;
  config.dim = 6;
  config.num_couplings = 3;
  config.hidden = 40;
  config.residual_blocks = 2;
  util::Rng rng(14);
  FlowModel model(config, rng);
  randomize_parameters(model, rng);
  for (const std::size_t rows : {1, 7, 8, 9, 129}) {
    SCOPED_TRACE(::testing::Message() << rows << " rows");
    const nn::Matrix x = random_matrix(rows, config.dim, rng);
    std::vector<double> ld_train;
    std::vector<double> ld_inf;
    const nn::Matrix z_train = model.forward(x, ld_train);
    const nn::Matrix z_inf = model.forward_inference(x, &ld_inf);
    ASSERT_TRUE(z_train.same_shape(z_inf));
    ASSERT_EQ(ld_train.size(), rows);
    ASSERT_EQ(ld_inf.size(), rows);
    EXPECT_EQ(0, std::memcmp(z_train.data(), z_inf.data(),
                             z_train.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(ld_train.data(), ld_inf.data(),
                             rows * sizeof(double)));
  }
}

TEST(FlowModel, RoundTripFromLatentSide) {
  util::Rng rng(3);
  FlowModel model(testing::tiny_flow_config(), rng);
  randomize_parameters(model, rng);
  const nn::Matrix z = random_matrix(6, 6, rng);
  const nn::Matrix x = model.inverse(z);
  const nn::Matrix z_back = model.forward_inference(x);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_NEAR(z_back.data()[i], z.data()[i], 2e-3f);
  }
}

TEST(FlowModel, LogDetAccumulatesAcrossLayers) {
  util::Rng rng(4);
  FlowConfig config = testing::tiny_flow_config();
  config.num_couplings = 2;
  FlowModel model(config, rng);
  randomize_parameters(model, rng, 0.4);

  const nn::Matrix x = random_matrix(1, config.dim, rng);
  std::vector<double> log_det;
  model.forward_inference(x, &log_det);
  // The identity-initialized scale bound keeps |s| < s_scale = 1 per coord;
  // with 2 layers each transforming half the coords, |log_det| < dim.
  EXPECT_LT(std::abs(log_det[0]), static_cast<double>(config.dim));
}

TEST(FlowModel, LogProbIsChangeOfVariables) {
  // log p(x) must equal log N(f(x); 0, I) + log|det J| exactly.
  util::Rng rng(5);
  FlowModel model(testing::tiny_flow_config(), rng);
  randomize_parameters(model, rng);

  const nn::Matrix x = random_matrix(5, 6, rng, 0.3);
  std::vector<double> log_det;
  const nn::Matrix z = model.forward_inference(x, &log_det);
  const auto log_probs = model.log_prob(x);
  for (std::size_t r = 0; r < 5; ++r) {
    const double expected =
        standard_normal_log_density(z.row(r), z.cols()) + log_det[r];
    EXPECT_NEAR(log_probs[r], expected, 1e-9);
  }
}

TEST(FlowModel, StandardNormalLogDensityKnownValue) {
  const float zeros[2] = {0.0f, 0.0f};
  // log N(0; 0, I_2) = -log(2*pi)
  EXPECT_NEAR(standard_normal_log_density(zeros, 2),
              -std::log(2.0 * M_PI), 1e-9);
}

TEST(FlowModel, NllBackwardMatchesNllValue) {
  util::Rng rng(6);
  FlowModel model(testing::tiny_flow_config(), rng);
  randomize_parameters(model, rng);
  const nn::Matrix x = random_matrix(8, 6, rng, 0.3);
  model.zero_grad();
  const double loss_bwd = model.nll_backward(x);
  const double loss_fwd = model.nll(x);
  EXPECT_NEAR(loss_bwd, loss_fwd, 1e-9);
}

TEST(FlowModel, NllGradientsMatchNumeric) {
  util::Rng rng(7);
  FlowConfig config = testing::tiny_flow_config(4);
  config.num_couplings = 2;
  config.hidden = 12;
  FlowModel model(config, rng);
  randomize_parameters(model, rng, 0.3);

  nn::Matrix x = random_matrix(4, 4, rng, 0.3);
  model.zero_grad();
  model.nll_backward(x);

  const auto loss = [&]() { return model.nll(x); };
  const auto result =
      nn::check_param_gradients(loss, model.parameters(), 1e-3, 12);
  EXPECT_LT(result.max_rel_error, 5e-2) << "abs " << result.max_abs_error;
}

TEST(FlowModel, SaveLoadRoundTrip) {
  util::Rng rng(8);
  FlowModel source(testing::tiny_flow_config(), rng);
  randomize_parameters(source, rng);
  util::Rng rng2(9);
  FlowModel dest(testing::tiny_flow_config(), rng2);

  const std::string path = ::testing::TempDir() + "pf_flow_ckpt.bin";
  source.save(path);
  dest.load(path);
  std::remove(path.c_str());

  const nn::Matrix x = random_matrix(3, 6, rng);
  const nn::Matrix z_src = source.forward_inference(x);
  const nn::Matrix z_dst = dest.forward_inference(x);
  for (std::size_t i = 0; i < z_src.size(); ++i) {
    EXPECT_FLOAT_EQ(z_dst.data()[i], z_src.data()[i]);
  }
}

TEST(FlowModel, LoadRejectsDifferentArchitecture) {
  util::Rng rng(10);
  FlowModel source(testing::tiny_flow_config(), rng);
  FlowConfig other = testing::tiny_flow_config();
  other.hidden = 16;
  FlowModel dest(other, rng);

  const std::string path = ::testing::TempDir() + "pf_flow_ckpt2.bin";
  source.save(path);
  EXPECT_THROW(dest.load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(FlowModel, ParameterCountScalesWithDepth) {
  util::Rng rng(11);
  FlowConfig shallow = testing::tiny_flow_config();
  shallow.num_couplings = 2;
  FlowConfig deep = shallow;
  deep.num_couplings = 4;
  FlowModel a(shallow, rng), b(deep, rng);
  EXPECT_EQ(b.parameter_count(), 2 * a.parameter_count());
}

TEST(FlowModel, PaperScaleArchitectureConstructs) {
  // §IV-D: 18 couplings, 2 residual blocks, hidden 256, dim 10.
  util::Rng rng(12);
  FlowConfig config;
  FlowModel model(config, rng);
  EXPECT_EQ(model.dim(), 10u);
  EXPECT_GT(model.parameter_count(), 1000000u);  // multi-million params
  const nn::Matrix x = random_matrix(2, 10, rng, 0.2);
  const nn::Matrix back = model.inverse(model.forward_inference(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back.data()[i], x.data()[i], 1e-3f);
  }
}

}  // namespace
}  // namespace passflow::flow
