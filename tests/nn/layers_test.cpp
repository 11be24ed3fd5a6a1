// Gradient checks and behavioral tests for Linear / Activation /
// ResidualBlock / Mlp / ResNetST. The loss used everywhere is
// L = sum(output^2) / 2, whose output gradient is simply the output itself.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activation.hpp"
#include "nn/gradcheck.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "nn/ops.hpp"
#include "nn/residual.hpp"
#include "util/rng.hpp"

namespace passflow::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng,
                     double stddev = 1.0) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  return m;
}

double half_squared(const Matrix& m) { return 0.5 * squared_sum(m); }

// Runs forward+backward once under L = 0.5*||f(x)||^2 and checks both
// parameter and input gradients numerically.
void check_module_gradients(Module& module, Matrix input,
                            double tolerance = 2e-2) {
  module.zero_grad();
  const Matrix out = module.forward(input);
  const Matrix grad_in = module.backward(out);  // dL/d(out) = out

  const auto loss = [&]() {
    return half_squared(module.forward_inference(input));
  };
  const auto param_result =
      check_param_gradients(loss, module.parameters(), 1e-3, 32);
  EXPECT_LT(param_result.max_rel_error, tolerance)
      << "param abs err " << param_result.max_abs_error;

  const auto input_result =
      check_input_gradients(loss, input, grad_in, 1e-3, 32);
  EXPECT_LT(input_result.max_rel_error, tolerance)
      << "input abs err " << input_result.max_abs_error;
}

TEST(Linear, ForwardComputesAffineMap) {
  util::Rng rng(1);
  Linear layer(2, 2, rng, Init::kZero);
  layer.weight().assign(Matrix::from_rows({{1, 2}, {3, 4}}));
  layer.bias().assign(Matrix::from_rows({{10, 20}}));
  const Matrix out = layer.forward(Matrix::from_rows({{1, 1}}));
  EXPECT_FLOAT_EQ(out(0, 0), 14);  // 1*1 + 1*3 + 10
  EXPECT_FLOAT_EQ(out(0, 1), 26);  // 1*2 + 1*4 + 20
}

TEST(Linear, GradientsMatchNumeric) {
  util::Rng rng(2);
  Linear layer(5, 4, rng, Init::kXavier);
  check_module_gradients(layer, random_matrix(8, 5, rng));
}

TEST(Linear, ZeroInitProducesBiasOnlyOutput) {
  util::Rng rng(3);
  Linear layer(4, 3, rng, Init::kZero);
  const Matrix out = layer.forward(random_matrix(2, 4, rng));
  EXPECT_DOUBLE_EQ(out.frobenius_norm(), 0.0);
}

TEST(Linear, HeInitVarianceScalesWithFanIn) {
  util::Rng rng(4);
  Linear layer(1000, 50, rng, Init::kHe);
  const double norm_sq = squared_sum(layer.weight().value());
  const double variance = norm_sq / (1000.0 * 50.0);
  EXPECT_NEAR(variance, 2.0 / 1000.0, 0.0005);
}

class ActivationKindTest : public ::testing::TestWithParam<ActKind> {};

TEST_P(ActivationKindTest, GradientMatchesNumeric) {
  util::Rng rng(5);
  Activation act(GetParam());
  Matrix input = random_matrix(6, 7, rng);
  act.zero_grad();
  const Matrix out = act.forward(input);
  const Matrix grad_in = act.backward(out);
  const auto loss = [&]() { return half_squared(act.forward_inference(input)); };
  const auto result = check_input_gradients(loss, input, grad_in, 1e-4, 42);
  EXPECT_LT(result.max_rel_error, 2e-2);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ActivationKindTest,
                         ::testing::Values(ActKind::kRelu, ActKind::kLeakyRelu,
                                           ActKind::kTanh, ActKind::kSigmoid));

TEST(Activation, ReluClampsNegatives) {
  Activation relu(ActKind::kRelu);
  const Matrix out = relu.forward(Matrix::from_rows({{-1, 0, 2}}));
  EXPECT_FLOAT_EQ(out(0, 0), 0);
  EXPECT_FLOAT_EQ(out(0, 1), 0);
  EXPECT_FLOAT_EQ(out(0, 2), 2);
}

TEST(Activation, TanhIsBounded) {
  Activation tanh_act(ActKind::kTanh);
  const Matrix out = tanh_act.forward(Matrix::from_rows({{-100, 100}}));
  EXPECT_NEAR(out(0, 0), -1.0f, 1e-6);
  EXPECT_NEAR(out(0, 1), 1.0f, 1e-6);
}

TEST(Activation, SigmoidAtZeroIsHalf) {
  Activation sig(ActKind::kSigmoid);
  const Matrix out = sig.forward(Matrix::from_rows({{0}}));
  EXPECT_FLOAT_EQ(out(0, 0), 0.5f);
}

TEST(ResidualBlock, GradientsMatchNumeric) {
  util::Rng rng(6);
  ResidualBlock block(6, rng);
  check_module_gradients(block, random_matrix(5, 6, rng));
}

TEST(ResidualBlock, SkipConnectionPreservesSignalAtZeroWeights) {
  util::Rng rng(7);
  ResidualBlock block(4, rng);
  for (Param* p : block.parameters()) {
    p->write([](Matrix& value) { value.zero(); });
  }
  const Matrix input = random_matrix(3, 4, rng);
  const Matrix out = block.forward(input);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_FLOAT_EQ(out.data()[i], input.data()[i]);
  }
}

TEST(Mlp, GradientsMatchNumeric) {
  util::Rng rng(8);
  Mlp mlp(4, {8, 8}, 3, rng);
  check_module_gradients(mlp, random_matrix(6, 4, rng));
}

TEST(Mlp, FinalActivationBoundsOutput) {
  util::Rng rng(9);
  Mlp mlp(4, {16}, 2, rng, ActKind::kRelu, /*has_final_act=*/true,
          ActKind::kSigmoid);
  const Matrix out = mlp.forward(random_matrix(20, 4, rng, 5.0));
  for (std::size_t i = 0; i < out.size(); ++i) {
    // Sigmoid output; float32 saturates to exactly 0/1 for large logits.
    EXPECT_GE(out.data()[i], 0.0f);
    EXPECT_LE(out.data()[i], 1.0f);
  }
}

TEST(Mlp, ParameterCountMatchesArchitecture) {
  util::Rng rng(10);
  Mlp mlp(4, {8}, 3, rng);
  // fc0: 4*8+8, out: 8*3+3
  EXPECT_EQ(mlp.parameter_count(), 4u * 8 + 8 + 8 * 3 + 3);
}

TEST(ResNetST, ZeroInitHeadsStartAtZero) {
  util::Rng rng(11);
  ResNetST st(6, 16, 2, 6, rng);
  const Matrix input = random_matrix(4, 6, rng);
  ResNetST::Scratch scratch;
  st.forward_inference(input, scratch);
  // [s_raw | t]
  ASSERT_EQ(scratch.st.cols(), 12u);
  EXPECT_DOUBLE_EQ(scratch.st.frobenius_norm(), 0.0);
}

TEST(ResNetST, GradientsMatchNumericThroughBothHeads) {
  util::Rng rng(12);
  ResNetST st(5, 12, 1, 5, rng);
  // Give the heads non-zero weights so gradients flow meaningfully.
  for (Param* p : st.parameters()) {
    if (p->value().rows() > 0 && p->name.find(".s.") != std::string::npos) {
      p->write([&rng](Matrix& value) {
        for (std::size_t i = 0; i < value.size(); ++i) {
          value.data()[i] = static_cast<float>(rng.normal(0.0, 0.3));
        }
      });
    }
  }
  Matrix input = random_matrix(4, 5, rng);

  for (Param* p : st.parameters()) p->grad.zero();
  auto out = st.forward(input);
  // L = 0.5*(||s_raw||^2 + ||t||^2)
  const Matrix grad_in = st.backward(out.s_raw, out.t);

  // [s_raw | t], so half its squared norm is the same loss.
  ResNetST::Scratch scratch;
  const auto loss = [&]() {
    st.forward_inference(input, scratch);
    return half_squared(scratch.st);
  };
  // float32 central differences carry ~1e-3 absolute noise; accept either a
  // tight relative or a tight absolute error.
  const auto params_result =
      check_param_gradients(loss, st.parameters(), 1e-3, 16);
  EXPECT_TRUE(params_result.max_rel_error < 3e-2 ||
              params_result.max_abs_error < 5e-3)
      << "rel " << params_result.max_rel_error << " abs "
      << params_result.max_abs_error;
  const auto input_result =
      check_input_gradients(loss, input, grad_in, 1e-3, 20);
  EXPECT_TRUE(input_result.max_rel_error < 3e-2 ||
              input_result.max_abs_error < 5e-3)
      << "rel " << input_result.max_rel_error << " abs "
      << input_result.max_abs_error;
}

}  // namespace
}  // namespace passflow::nn
