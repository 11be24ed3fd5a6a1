#include "flow/coupling.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

#include "nn/gradcheck.hpp"
#include "nn/ops.hpp"
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

// Give the zero-initialized s/t heads random weights so the coupling is a
// non-trivial transformation.
void randomize_parameters(AffineCoupling& coupling, util::Rng& rng,
                          double stddev = 0.2) {
  for (nn::Param* p : coupling.parameters()) {
    if (p->name.find("s_scale") != std::string::npos) continue;
    p->write([&](nn::Matrix& value) {
      for (std::size_t i = 0; i < value.size(); ++i) {
        value.data()[i] += static_cast<float>(rng.normal(0.0, stddev));
      }
    });
  }
}

// The coupling's inference passes, each on a scratch of its own.
nn::Matrix forward_inference(const AffineCoupling& coupling,
                             const nn::Matrix& x,
                             std::vector<double>* log_det = nullptr) {
  AffineCoupling::Scratch scratch;
  nn::Matrix z;
  coupling.forward_inference(x, log_det, scratch, z);
  return z;
}

nn::Matrix inverse(const AffineCoupling& coupling, const nn::Matrix& z) {
  AffineCoupling::Scratch scratch;
  nn::Matrix x;
  coupling.inverse(z, scratch, x);
  return x;
}

TEST(Coupling, IdentityAtInitialization) {
  // Zero-initialized heads => s = t = 0 => z = x exactly.
  util::Rng rng(1);
  AffineCoupling coupling(6, 16, 1, make_mask({MaskScheme::kCharRun, 1}, 6),
                          rng);
  const nn::Matrix x = random_matrix(4, 6, rng);
  std::vector<double> log_det(4, 0.0);
  const nn::Matrix z = coupling.forward(x, log_det);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_FLOAT_EQ(z.data()[i], x.data()[i]);
  }
  for (double ld : log_det) EXPECT_DOUBLE_EQ(ld, 0.0);
}

TEST(Coupling, MaskedCoordinatesPassThrough) {
  util::Rng rng(2);
  const auto mask = make_mask({MaskScheme::kCharRun, 1}, 6);
  AffineCoupling coupling(6, 16, 1, mask, rng);
  randomize_parameters(coupling, rng);
  const nn::Matrix x = random_matrix(4, 6, rng);
  std::vector<double> log_det(4, 0.0);
  const nn::Matrix z = coupling.forward(x, log_det);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      if (mask[c] > 0.5f) {
        EXPECT_FLOAT_EQ(z(r, c), x(r, c));
      }
    }
  }
}

class CouplingConfigTest
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(CouplingConfigTest, InverseUndoesForward) {
  const auto [mask_name, dim, hidden] = GetParam();
  util::Rng rng(3);
  AffineCoupling coupling(
      dim, hidden, 1,
      make_mask(parse_mask_config(mask_name), dim), rng);
  randomize_parameters(coupling, rng);

  const nn::Matrix x = random_matrix(8, dim, rng);
  const nn::Matrix z = forward_inference(coupling, x);
  const nn::Matrix back = inverse(coupling, z);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back.data()[i], x.data()[i], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CouplingConfigTest,
    ::testing::Values(std::make_tuple("char-run-1", 6, 16),
                      std::make_tuple("char-run-2", 8, 16),
                      std::make_tuple("horizontal", 10, 32),
                      std::make_tuple("char-run-1", 10, 64),
                      std::make_tuple("char-run-3", 9, 16)));

TEST(Coupling, LogDetMatchesNumericJacobian) {
  util::Rng rng(4);
  const std::size_t dim = 5;
  AffineCoupling coupling(dim, 12, 1,
                          make_mask({MaskScheme::kCharRun, 1}, dim), rng);
  randomize_parameters(coupling, rng);

  nn::Matrix x = random_matrix(1, dim, rng);
  std::vector<double> log_det(1, 0.0);
  coupling.forward(x, log_det);

  // Numeric Jacobian of z w.r.t. x via central differences.
  const double eps = 1e-3;
  std::vector<std::vector<double>> jacobian(dim, std::vector<double>(dim));
  for (std::size_t j = 0; j < dim; ++j) {
    nn::Matrix x_plus = x, x_minus = x;
    x_plus(0, j) += static_cast<float>(eps);
    x_minus(0, j) -= static_cast<float>(eps);
    const nn::Matrix z_plus = forward_inference(coupling, x_plus);
    const nn::Matrix z_minus = forward_inference(coupling, x_minus);
    for (std::size_t i = 0; i < dim; ++i) {
      jacobian[i][j] =
          (static_cast<double>(z_plus(0, i)) - z_minus(0, i)) / (2.0 * eps);
    }
  }
  // Determinant by Gaussian elimination.
  double det = 1.0;
  for (std::size_t col = 0; col < dim; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < dim; ++r) {
      if (std::abs(jacobian[r][col]) > std::abs(jacobian[pivot][col])) {
        pivot = r;
      }
    }
    if (pivot != col) {
      std::swap(jacobian[pivot], jacobian[col]);
      det = -det;
    }
    det *= jacobian[col][col];
    for (std::size_t r = col + 1; r < dim; ++r) {
      const double factor = jacobian[r][col] / jacobian[col][col];
      for (std::size_t c = col; c < dim; ++c) {
        jacobian[r][c] -= factor * jacobian[col][c];
      }
    }
  }
  EXPECT_NEAR(log_det[0], std::log(std::abs(det)), 1e-3);
}

TEST(Coupling, BackwardGradientsMatchNumeric) {
  util::Rng rng(5);
  const std::size_t dim = 4;
  AffineCoupling coupling(dim, 10, 1,
                          make_mask({MaskScheme::kCharRun, 1}, dim), rng);
  randomize_parameters(coupling, rng, 0.3);

  nn::Matrix x = random_matrix(3, dim, rng);

  // Loss: L = 0.5*||z||^2 - sum(log_det) (an NLL-shaped objective).
  auto loss_fn = [&]() {
    std::vector<double> ld(x.rows(), 0.0);
    const nn::Matrix z = forward_inference(coupling, x, &ld);
    double loss = 0.5 * nn::squared_sum(z);
    for (double v : ld) loss -= v;
    return loss;
  };

  for (nn::Param* p : coupling.parameters()) p->grad.zero();
  std::vector<double> log_det(x.rows(), 0.0);
  const nn::Matrix z = coupling.forward(x, log_det);
  const std::vector<double> grad_ld(x.rows(), -1.0);
  const nn::Matrix grad_x = coupling.backward(z, grad_ld);

  // Accept a tight relative OR absolute error: float32 finite differences
  // produce ~1e-3 absolute noise, which dominates relative error on small
  // gradient entries.
  const auto params_result =
      nn::check_param_gradients(loss_fn, coupling.parameters(), 1e-3, 24);
  EXPECT_TRUE(params_result.max_rel_error < 3e-2 ||
              params_result.max_abs_error < 5e-3)
      << "rel " << params_result.max_rel_error << " abs "
      << params_result.max_abs_error;

  const auto input_result =
      nn::check_input_gradients(loss_fn, x, grad_x, 1e-3, 24);
  EXPECT_TRUE(input_result.max_rel_error < 3e-2 ||
              input_result.max_abs_error < 5e-3)
      << "rel " << input_result.max_rel_error << " abs "
      << input_result.max_abs_error;
}

// The inference forward must give the training forward's bits: the same
// products, bias adds, ReLUs and skips in the same order. Hidden 40 leaves
// a partial 32-column panel and dim 6 a 12-column [s | t] head; the row
// counts straddle the 8-row register tile and the 128-row cache block.
TEST(Coupling, ForwardInferenceMatchesTrainingForward) {
  util::Rng rng(6);
  AffineCoupling coupling(6, 40, 2, make_mask({MaskScheme::kCharRun, 2}, 6),
                          rng);
  randomize_parameters(coupling, rng);
  for (const std::size_t rows : {1, 7, 8, 9, 129}) {
    SCOPED_TRACE(::testing::Message() << rows << " rows");
    const nn::Matrix x = random_matrix(rows, 6, rng);
    std::vector<double> ld_train(rows, 0.0);
    std::vector<double> ld_inf(rows, 0.0);
    const nn::Matrix z_train = coupling.forward(x, ld_train);
    const nn::Matrix z_inf = forward_inference(coupling, x, &ld_inf);
    ASSERT_TRUE(z_train.same_shape(z_inf));
    EXPECT_EQ(0, std::memcmp(z_train.data(), z_inf.data(),
                             z_train.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(ld_train.data(), ld_inf.data(),
                             rows * sizeof(double)));
  }
}

TEST(Coupling, RejectsMismatchedMask) {
  util::Rng rng(7);
  EXPECT_THROW(AffineCoupling(6, 8, 1, std::vector<float>(4, 1.0f), rng),
               std::invalid_argument);
}

TEST(Coupling, RejectsWrongLogDetSize) {
  util::Rng rng(8);
  AffineCoupling coupling(4, 8, 1, make_mask({MaskScheme::kCharRun, 1}, 4),
                          rng);
  const nn::Matrix x = random_matrix(3, 4, rng);
  std::vector<double> wrong_size(2, 0.0);
  EXPECT_THROW(coupling.forward(x, wrong_size), std::invalid_argument);
}

}  // namespace
}  // namespace passflow::flow
