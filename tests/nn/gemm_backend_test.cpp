// Cross-checks every compiled GEMM backend against the naive reference over
// a shape sweep, and pins down the dispatch/override plumbing.
#include "nn/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "nn/ops.hpp"
#include "util/rng.hpp"

namespace passflow::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.normal());
  }
  return m;
}

// Relative tolerance: |x - ref| <= tol * max(1, |ref|).
void expect_rel_close(const Matrix& got, const Matrix& ref, float tol = 1e-4f) {
  ASSERT_TRUE(got.same_shape(ref))
      << got.shape_string() << " vs " << ref.shape_string();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float r = ref.data()[i];
    const float bound = tol * std::max(1.0f, std::abs(r));
    ASSERT_NEAR(got.data()[i], r, bound) << "at flat index " << i;
  }
}

std::vector<gemm::Backend> backends_under_test() {
  std::vector<gemm::Backend> backends = {gemm::Backend::kBlocked};
  if (gemm::available(gemm::Backend::kBlas)) {
    backends.push_back(gemm::Backend::kBlas);
  }
  return backends;
}

// Shape sweep: minimal, odd, prime, micro-kernel-boundary, tall/skinny,
// wide/flat and square-256 shapes; (m, k, n).
class GemmBackendShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmBackendShapeTest, NnMatchesNaive) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(1000 + m * 131 + k * 17 + n);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  Matrix ref;
  gemm::gemm_nn(gemm::Backend::kNaive, a, b, ref);
  for (gemm::Backend be : backends_under_test()) {
    Matrix out;
    gemm::gemm_nn(be, a, b, out);
    SCOPED_TRACE(gemm::backend_name(be));
    expect_rel_close(out, ref);
  }
}

TEST_P(GemmBackendShapeTest, TnMatchesNaive) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(2000 + m * 131 + k * 17 + n);
  const Matrix a = random_matrix(k, m, rng);  // used as a^T
  const Matrix b = random_matrix(k, n, rng);
  Matrix ref;
  gemm::gemm_tn(gemm::Backend::kNaive, a, b, ref);
  for (gemm::Backend be : backends_under_test()) {
    Matrix out;
    gemm::gemm_tn(be, a, b, out);
    SCOPED_TRACE(gemm::backend_name(be));
    expect_rel_close(out, ref);
  }
}

TEST_P(GemmBackendShapeTest, NtMatchesNaive) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(3000 + m * 131 + k * 17 + n);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(n, k, rng);  // used as b^T
  Matrix ref;
  gemm::gemm_nt(gemm::Backend::kNaive, a, b, ref);
  for (gemm::Backend be : backends_under_test()) {
    Matrix out;
    gemm::gemm_nt(be, a, b, out);
    SCOPED_TRACE(gemm::backend_name(be));
    expect_rel_close(out, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmBackendShapeTest,
    ::testing::Values(
        std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
        std::make_tuple(3, 5, 7), std::make_tuple(4, 16, 16),
        std::make_tuple(5, 17, 33),            // just past micro-tile edges
        std::make_tuple(13, 1, 13),            // k = 1
        std::make_tuple(1, 256, 1),            // dot product
        std::make_tuple(512, 8, 4),            // tall and skinny
        std::make_tuple(4, 8, 512),            // wide and flat
        std::make_tuple(129, 385, 17),         // one past MC/KC block edges
        std::make_tuple(256, 256, 256),        // bench shape
        // Edges of the register tiles (8 x 32 on AVX-512, else 4 x 16).
        std::make_tuple(1, 256, 10),           // 1-row query, s/t head
        std::make_tuple(7, 256, 32),           // one row short of 8 x 32
        std::make_tuple(8, 256, 32),           // one full 8 x 32 tile
        std::make_tuple(9, 33, 33),            // one past both 8 x 32 edges
        std::make_tuple(16, 96, 96),           // fixture width, whole tiles
        std::make_tuple(512, 256, 10)));       // paper s/t head, n < 16

TEST(GemmBackend, BlockedIsDeterministic) {
  util::Rng rng(42);
  const Matrix a = random_matrix(200, 300, rng);
  const Matrix b = random_matrix(300, 100, rng);
  Matrix out1, out2;
  gemm::gemm_nn(gemm::Backend::kBlocked, a, b, out1);
  gemm::gemm_nn(gemm::Backend::kBlocked, a, b, out2);
  ASSERT_EQ(out1.size(), out2.size());
  EXPECT_EQ(0, std::memcmp(out1.data(), out2.data(),
                           out1.size() * sizeof(float)));
}

// A row's result must not depend on how many rows share its product: the
// blocked backend zero-pads rows to whole register tiles, and a lone row
// has to get the bits it gets among others. k = 400 crosses the 384-deep k
// block.
TEST(GemmBackend, BlockedRowsEqualRowsComputedAlone) {
  constexpr std::size_t kK = 400;
  constexpr std::size_t kN = 40;
  for (const std::size_t rows : {9, 16, 64}) {
    SCOPED_TRACE(::testing::Message() << rows << " rows");
    util::Rng rng(500 + rows);
    const Matrix a = random_matrix(rows, kK, rng);
    const Matrix b = random_matrix(kK, kN, rng);
    const Matrix bt = random_matrix(kN, kK, rng);  // used as b^T
    Matrix at(kK, rows);                           // used as a^T
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t p = 0; p < kK; ++p) at(p, r) = a(r, p);
    }
    Matrix nn, tn, nt;
    gemm::gemm_nn(gemm::Backend::kBlocked, a, b, nn);
    gemm::gemm_tn(gemm::Backend::kBlocked, at, b, tn);
    gemm::gemm_nt(gemm::Backend::kBlocked, a, bt, nt);
    for (std::size_t r = 0; r < rows; ++r) {
      Matrix row(1, kK);
      std::memcpy(row.data(), a.row(r), kK * sizeof(float));
      Matrix row_t(kK, 1);
      for (std::size_t p = 0; p < kK; ++p) row_t(p, 0) = a(r, p);
      Matrix nn1, tn1, nt1;
      gemm::gemm_nn(gemm::Backend::kBlocked, row, b, nn1);
      gemm::gemm_tn(gemm::Backend::kBlocked, row_t, b, tn1);
      gemm::gemm_nt(gemm::Backend::kBlocked, row, bt, nt1);
      ASSERT_EQ(0, std::memcmp(nn.row(r), nn1.data(), kN * sizeof(float)))
          << "gemm_nn row " << r;
      ASSERT_EQ(0, std::memcmp(tn.row(r), tn1.data(), kN * sizeof(float)))
          << "gemm_tn row " << r;
      ASSERT_EQ(0, std::memcmp(nt.row(r), nt1.data(), kN * sizeof(float)))
          << "gemm_nt row " << r;
    }
  }
}

TEST(GemmBackend, OutStorageIsReusedAcrossCalls) {
  util::Rng rng(7);
  const Matrix a = random_matrix(64, 32, rng);
  const Matrix b = random_matrix(32, 48, rng);
  Matrix out;
  gemm::gemm_nn(gemm::Backend::kBlocked, a, b, out);
  const float* data_before = out.data();
  gemm::gemm_nn(gemm::Backend::kBlocked, a, b, out);
  EXPECT_EQ(data_before, out.data())
      << "same-shape GEMM into a warm out matrix must not reallocate";
}

TEST(GemmBackend, RuntimeOverrideDrivesOpsMatmul) {
  const gemm::Backend saved = gemm::active_backend();
  util::Rng rng(9);
  const Matrix a = random_matrix(20, 30, rng);
  const Matrix b = random_matrix(30, 10, rng);

  gemm::set_backend(gemm::Backend::kNaive);
  EXPECT_EQ(gemm::active_backend(), gemm::Backend::kNaive);
  const Matrix via_naive = matmul(a, b);

  gemm::set_backend(gemm::Backend::kBlocked);
  const Matrix via_blocked = matmul(a, b);

  gemm::set_backend(saved);
  expect_rel_close(via_blocked, via_naive);
}

TEST(GemmBackend, UnavailableBackendFallsBackToBlocked) {
  const gemm::Backend saved = gemm::active_backend();
  gemm::set_backend(gemm::Backend::kBlas);
  if (gemm::available(gemm::Backend::kBlas)) {
    EXPECT_EQ(gemm::active_backend(), gemm::Backend::kBlas);
  } else {
    EXPECT_EQ(gemm::active_backend(), gemm::Backend::kBlocked);
  }
  gemm::set_backend(saved);
}

TEST(GemmBackend, NamesRoundTrip) {
  EXPECT_EQ(gemm::parse_backend("naive"), gemm::Backend::kNaive);
  EXPECT_EQ(gemm::parse_backend("blocked"), gemm::Backend::kBlocked);
  EXPECT_EQ(gemm::parse_backend("blas"), gemm::Backend::kBlas);
  EXPECT_EQ(gemm::parse_backend("nonsense"), gemm::Backend::kBlocked);
  EXPECT_STREQ(gemm::backend_name(gemm::Backend::kNaive), "naive");
  EXPECT_STREQ(gemm::backend_name(gemm::Backend::kBlocked), "blocked");
  EXPECT_STREQ(gemm::backend_name(gemm::Backend::kBlas), "blas");
}

TEST(GemmBackend, DegenerateShapes) {
  for (gemm::Backend be : backends_under_test()) {
    SCOPED_TRACE(gemm::backend_name(be));
    // k = 0: out must be all zeros.
    Matrix a(3, 0), b(0, 4), out;
    gemm::gemm_nn(be, a, b, out);
    ASSERT_EQ(out.rows(), 3u);
    ASSERT_EQ(out.cols(), 4u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out.data()[i], 0.0f);
    }
    // m = 0 / n = 0: empty result, no crash.
    Matrix a2(0, 5), b2(5, 4), out2;
    gemm::gemm_nn(be, a2, b2, out2);
    EXPECT_EQ(out2.rows(), 0u);
    EXPECT_EQ(out2.cols(), 4u);
  }
}

}  // namespace
}  // namespace passflow::nn
