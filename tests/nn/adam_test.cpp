#include "nn/adam.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/linear.hpp"
#include "nn/ops.hpp"
#include "util/rng.hpp"

namespace passflow::nn {
namespace {

TEST(Adam, MinimizesQuadratic) {
  // Minimize f(w) = 0.5*||w - target||^2 directly through a Param.
  Param w("w", Matrix(1, 4));
  const Matrix target = Matrix::from_rows({{1, -2, 3, -4}});
  AdamConfig config;
  config.learning_rate = 0.05;
  Adam adam({&w}, config);
  for (int step = 0; step < 2000; ++step) {
    w.grad = w.value();
    sub_inplace(w.grad, target);
    adam.step();
    w.grad.zero();
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(w.value()(0, i), target(0, i), 1e-2);
  }
}

TEST(Adam, StepCountAdvances) {
  Param w("w", Matrix(1, 1));
  Adam adam({&w});
  EXPECT_EQ(adam.step_count(), 0);
  w.sized_grad().fill(1.0f);
  adam.step();
  EXPECT_EQ(adam.step_count(), 1);
}

TEST(Adam, FirstStepMovesByLearningRate) {
  // With bias correction, the first Adam update is ~lr * sign(grad).
  Param w("w", Matrix(1, 1));
  AdamConfig config;
  config.learning_rate = 0.1;
  Adam adam({&w}, config);
  w.sized_grad().fill(3.0f);
  adam.step();
  EXPECT_NEAR(w.value()(0, 0), -0.1, 1e-4);
}

TEST(Adam, ClipNormBoundsUpdateMagnitude) {
  Param w("w", Matrix(1, 2));
  AdamConfig config;
  config.learning_rate = 0.1;
  config.clip_norm = 1.0;
  Adam adam({&w}, config);
  w.sized_grad().fill(1000.0f);  // norm >> clip
  adam.step();
  // The clipped gradient has norm 1; Adam normalizes per-coordinate anyway,
  // so just assert the update stayed bounded and finite.
  EXPECT_TRUE(std::isfinite(w.value()(0, 0)));
  EXPECT_LT(std::abs(w.value()(0, 0)), 0.2);
}

TEST(Adam, WeightDecayShrinksWeightsWithZeroGrad) {
  Param w("w", Matrix(1, 1, 1.0f));
  AdamConfig config;
  config.learning_rate = 0.1;
  config.weight_decay = 0.5;
  Adam adam({&w}, config);
  w.sized_grad().zero();
  adam.step();
  EXPECT_LT(w.value()(0, 0), 1.0f);
}

TEST(Adam, TrainsLinearRegression) {
  util::Rng rng(77);
  Linear layer(3, 1, rng, Init::kXavier);
  // Ground truth: y = 2*x0 - x1 + 0.5*x2 + 1.
  const Matrix true_w = Matrix::from_rows({{2}, {-1}, {0.5}});

  AdamConfig config;
  config.learning_rate = 0.02;
  Adam adam(layer.parameters(), config);

  for (int step = 0; step < 3000; ++step) {
    Matrix x(16, 3);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = static_cast<float>(rng.normal());
    }
    Matrix y = matmul(x, true_w);
    for (std::size_t r = 0; r < y.rows(); ++r) y(r, 0) += 1.0f;

    layer.zero_grad();
    Matrix pred = layer.forward(x);
    Matrix grad = pred;
    sub_inplace(grad, y);
    scale_inplace(grad, 2.0f / 16.0f);
    layer.backward(grad);
    adam.step();
  }
  EXPECT_NEAR(layer.weight().value()(0, 0), 2.0, 0.05);
  EXPECT_NEAR(layer.weight().value()(1, 0), -1.0, 0.05);
  EXPECT_NEAR(layer.weight().value()(2, 0), 0.5, 0.05);
  EXPECT_NEAR(layer.bias().value()(0, 0), 1.0, 0.05);
}

}  // namespace
}  // namespace passflow::nn
