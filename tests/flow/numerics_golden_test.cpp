// Golden numerics: pins the exact bits of the GEMM products and of the
// flow's inverse and log p(x), so a kernel change that moves any result
// fails here instead of silently training or sampling a different model.
//
// Bits are pinned only where they are reproducible (tests/test_support.hpp):
// - GEMM digests are checked bitwise where gemm_bits_pinned(). Other
//   backends and the portable kernel are checked against the naive product
//   at 1e-4 relative.
// - Flow digests are checked bitwise where flow_bits_pinned(). Every build
//   checks stored fp32 rows at kFlowTolerance, and prints the digests it
//   computed when they are not pinned or do not match.
//
// Every digest was captured in a Release build on an AVX-512 host with
// glibc 2.36. A change to any of them needs a CHANGES.md line giving the
// reason.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "flow/flow_model.hpp"
#include "nn/gemm.hpp"
#include "nn/ops.hpp"
#include "test_support.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace passflow {
namespace {

using testing::flow_bits_pinned;
using testing::gemm_bits_pinned;
using testing::libc_version;

// Relative tolerance of the stored flow rows. Measured against the FMA
// result on both models, over every row of the batch: the naive and
// portable products (unfused) moved the inverse by at most 8.0e-6 and
// log p by 3.3e-5, a 64-deep k block by 6.0e-6 and 2.5e-5, and products
// accumulated in double by 8.9e-6 and 1.3e-5. On the stored rows 0-3 the
// largest shift was 9.1e-6 (log p). 1e-4 leaves 3x over the worst row.
constexpr double kFlowTolerance = 1e-4;

template <class T>
std::uint64_t digest(const T* data, std::size_t count) {
  return util::hash64(data, count * sizeof(T));
}

nn::Matrix normal_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return m;
}

// |got - ref| <= tol * max(1, |ref|).
bool rel_close(double got, double ref, double tol) {
  return std::abs(got - ref) <= tol * std::max(1.0, std::abs(ref));
}

// ------------------------------------------------------------------ GEMM

enum class Flavor { kNN, kTN, kNT };

struct GemmGolden {
  Flavor flavor;
  std::size_t m, k, n;
  std::uint64_t digest;
};

const char* flavor_name(Flavor f) {
  switch (f) {
    case Flavor::kNN:
      return "matmul";
    case Flavor::kTN:
      return "matmul_tn";
    case Flavor::kNT:
      return "matmul_nt";
  }
  return "?";
}

// The logical (m x k) * (k x n) product in the given flavor, on inputs drawn
// from a seed fixed by the shape. `naive` computes the reference instead of
// going through the active backend.
nn::Matrix product(const GemmGolden& g, bool naive) {
  util::Rng rng(1000003 * g.m + 1009 * g.k + g.n +
                static_cast<std::uint64_t>(g.flavor));
  nn::Matrix out;
  namespace gemm = nn::gemm;
  switch (g.flavor) {
    case Flavor::kNN: {
      const nn::Matrix a = normal_matrix(g.m, g.k, rng);
      const nn::Matrix b = normal_matrix(g.k, g.n, rng);
      naive ? gemm::gemm_nn(gemm::Backend::kNaive, a, b, out)
            : nn::matmul(a, b, out);
      break;
    }
    case Flavor::kTN: {
      const nn::Matrix a = normal_matrix(g.k, g.m, rng);
      const nn::Matrix b = normal_matrix(g.k, g.n, rng);
      naive ? gemm::gemm_tn(gemm::Backend::kNaive, a, b, out)
            : nn::matmul_tn(a, b, out);
      break;
    }
    case Flavor::kNT: {
      const nn::Matrix a = normal_matrix(g.m, g.k, rng);
      const nn::Matrix b = normal_matrix(g.n, g.k, rng);
      naive ? gemm::gemm_nt(gemm::Backend::kNaive, a, b, out)
            : nn::matmul_nt(a, b, out);
      break;
    }
  }
  return out;
}

// Paper inverse products (512 rows: one attack pool worker's share), the
// s/t heads (n = 10) and the input projection (k = 10), the fixture's
// hidden width, a 1-row strength query, and one product past the 384-deep
// k block: a weight gradient, whose k is the batch's row count.
constexpr GemmGolden kGemmGoldens[] = {
    {Flavor::kNN, 512, 256, 256, 0x35b36b0d0e3f604eULL},
    {Flavor::kNN, 512, 256, 10, 0x0151c3018a4dd78fULL},
    {Flavor::kNN, 512, 10, 256, 0x2a2883d142fcbcdeULL},
    {Flavor::kNN, 16, 96, 96, 0xf11a2d408b6fdeb6ULL},
    {Flavor::kNN, 1, 256, 256, 0x6cb1e988a88fc97aULL},
    {Flavor::kNN, 256, 512, 256, 0xdda17623a79fc1e8ULL},
    {Flavor::kTN, 512, 256, 256, 0x2b255dca8c7a5571ULL},
    {Flavor::kTN, 512, 256, 10, 0xe60de19d6dc50a65ULL},
    {Flavor::kTN, 512, 10, 256, 0xfd629954029fdd14ULL},
    {Flavor::kTN, 16, 96, 96, 0xbc5a66f94b2b91cdULL},
    {Flavor::kTN, 1, 256, 256, 0x863a9fbf2e8fb34dULL},
    {Flavor::kTN, 256, 512, 256, 0x922b32b5ea29e761ULL},
    {Flavor::kNT, 512, 256, 256, 0xa8a1d98d254789e2ULL},
    {Flavor::kNT, 512, 256, 10, 0x5ecfd6645876331fULL},
    {Flavor::kNT, 512, 10, 256, 0xd7cb3f253c5ea864ULL},
    {Flavor::kNT, 16, 96, 96, 0xa15eab1df964d281ULL},
    {Flavor::kNT, 1, 256, 256, 0x7a46fe68dc45bc17ULL},
    {Flavor::kNT, 256, 512, 256, 0xa0eeb80fba643805ULL},
};

TEST(NumericsGolden, GemmProducts) {
  const bool pinned = gemm_bits_pinned();
  std::printf("gemm backend %s, kernel %s: %s\n",
              nn::gemm::backend_name(nn::gemm::active_backend()),
              nn::gemm::kernel_name(),
              pinned ? "bitwise" : "1e-4 against naive");
  for (const GemmGolden& g : kGemmGoldens) {
    SCOPED_TRACE(::testing::Message() << flavor_name(g.flavor) << ' ' << g.m
                                      << 'x' << g.k << 'x' << g.n);
    const nn::Matrix out = product(g, /*naive=*/false);
    ASSERT_EQ(out.rows(), g.m);
    ASSERT_EQ(out.cols(), g.n);
    const std::uint64_t got = digest(out.data(), out.size());
    if (pinned) {
      EXPECT_EQ(got, g.digest) << "computed 0x" << std::hex << got;
      continue;
    }
    std::printf("  %s %zux%zux%zu: 0x%016" PRIx64 "\n", flavor_name(g.flavor),
                g.m, g.k, g.n, got);
    const nn::Matrix ref = product(g, /*naive=*/true);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_TRUE(rel_close(out.data()[i], ref.data()[i], 1e-4))
          << "at flat index " << i << ": " << out.data()[i] << " vs naive "
          << ref.data()[i];
    }
  }
}

// ------------------------------------------------------------------ flow

constexpr std::size_t kRefRows = 4;

struct FlowGolden {
  std::uint64_t inverse_digest;
  std::uint64_t log_prob_digest;
  // The first kRefRows rows of inverse(z), and their log p(x).
  std::vector<float> rows;
  std::vector<double> log_probs;
};

void print_capture(const nn::Matrix& x, const std::vector<double>& log_p,
                   std::uint64_t inverse_digest, std::uint64_t log_digest) {
  std::printf("  inverse 0x%016" PRIx64 ", log p 0x%016" PRIx64 "\n  rows:",
              inverse_digest, log_digest);
  for (std::size_t i = 0; i < kRefRows * x.cols(); ++i) {
    std::printf(" %.9gf,", static_cast<double>(x.data()[i]));
  }
  std::printf("\n  log p:");
  for (std::size_t r = 0; r < kRefRows; ++r) std::printf(" %.17g,", log_p[r]);
  std::printf("\n");
}

// Digests inverse(z) of a seeded batch and the per-row log p(x) of that
// result, then checks them against the golden.
void check_flow(const flow::FlowModel& model, std::size_t rows,
                std::uint64_t seed, const FlowGolden& golden) {
  util::Rng rng(seed);
  const nn::Matrix z = normal_matrix(rows, model.dim(), rng);
  const nn::Matrix x = model.inverse(z);
  const std::vector<double> log_p = model.log_prob_batch(x);
  ASSERT_EQ(log_p.size(), rows);
  // A model whose heads are zero is the identity map and pins nothing.
  ASSERT_NE(0, std::memcmp(x.data(), z.data(), x.size() * sizeof(float)))
      << "inverse(z) == z: the model's s/t heads are zero";

  const std::uint64_t inverse_digest = digest(x.data(), x.size());
  const std::uint64_t log_digest = digest(log_p.data(), log_p.size());
  const bool pinned = flow_bits_pinned();
  if (pinned) {
    EXPECT_EQ(inverse_digest, golden.inverse_digest);
    EXPECT_EQ(log_digest, golden.log_prob_digest);
  }
  if (!pinned || inverse_digest != golden.inverse_digest ||
      log_digest != golden.log_prob_digest) {
    std::printf("kernel %s, glibc %s: flow digests %s\n",
                nn::gemm::kernel_name(), libc_version().c_str(),
                pinned ? "differ" : "not pinned here");
    print_capture(x, log_p, inverse_digest, log_digest);
  }

  ASSERT_EQ(golden.rows.size(), kRefRows * model.dim());
  ASSERT_EQ(golden.log_probs.size(), kRefRows);
  for (std::size_t i = 0; i < golden.rows.size(); ++i) {
    EXPECT_TRUE(rel_close(x.data()[i], golden.rows[i], kFlowTolerance))
        << "inverse row " << i / model.dim() << " col " << i % model.dim()
        << ": " << x.data()[i] << " vs stored " << golden.rows[i];
  }
  for (std::size_t r = 0; r < kRefRows; ++r) {
    EXPECT_TRUE(rel_close(log_p[r], golden.log_probs[r], kFlowTolerance))
        << "log p row " << r << ": " << log_p[r] << " vs stored "
        << golden.log_probs[r];
  }
}

// The trained checked-in model (tests/fixtures/e2e_flow.ckpt), at the
// architecture integration_end_to_end_test trains it with.
TEST(NumericsGolden, TrainedFixtureInverseAndLogProb) {
  flow::FlowConfig config;
  config.dim = 8;
  config.num_couplings = 8;
  config.hidden = 96;
  config.residual_blocks = 2;
  util::Rng init(6);
  flow::FlowModel model(config, init);
  model.load(std::string(PASSFLOW_TEST_FIXTURE_DIR) + "/e2e_flow.ckpt");

  const FlowGolden golden{
      0x9b3467233c4f656dULL,
      0x9c4dc73027781d41ULL,
      {
          0.346767634f, 0.423075467f, 0.131167293f, 0.229433179f, 0.606909692f,
          0.689270318f, 0.0332947373f, 0.00303392718f, 0.384296566f,
          0.361623943f, 0.489107788f, 0.201927215f, 0.395727843f, 0.851934016f,
          1.01518583f, 0.907808959f, 0.572507501f, 0.8058393f, 0.14162524f,
          0.879481137f, 0.839204371f, 0.543951333f, 0.628571987f, 0.977665007f,
          0.721948922f, 0.787151277f, 0.841208041f, 0.884477675f, 0.724148452f,
          0.684192479f, 0.00139114342f, 0.00626847427f},
      {7.1554230630371105, 1.6568597063472783,
       -2.1434115673113965, 10.071521336529427}};
  check_flow(model, 512, 41, golden);
}

// The paper architecture (§IV-D: 18 couplings, hidden 256, 2 residual
// blocks), as the attack and screening benchmarks build it, but with its
// zero-initialized s/t heads overwritten from a fixed seed so the inverse is
// not the identity.
TEST(NumericsGolden, PaperArchitectureInverseAndLogProb) {
  const flow::FlowConfig config;
  ASSERT_EQ(config.num_couplings, 18u);
  ASSERT_EQ(config.hidden, 256u);
  util::Rng init(43);
  flow::FlowModel model(config, init);
  util::Rng heads(47);
  std::size_t overwritten = 0;
  for (nn::Param* param : model.parameters()) {
    const std::string& name = param->name;
    const auto ends_with = [&name](const std::string& suffix) {
      return name.size() >= suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    };
    if (!ends_with(".s.weight") && !ends_with(".t.weight")) continue;
    for (std::size_t i = 0; i < param->value.size(); ++i) {
      param->value.data()[i] = static_cast<float>(heads.normal(0.0, 0.005));
    }
    ++overwritten;
  }
  ASSERT_EQ(overwritten, 2 * config.num_couplings);

  const FlowGolden golden{
      0x5ae5e485e9bdfab3ULL,
      0x10ad5658e19253f1ULL,
      {
          0.552067399f, 0.0952627733f, -0.579858303f, 1.28898883f, 0.265647382f,
          1.65568674f, 0.965602934f, -0.319295794f, -4.28462839f, -0.209970653f,
          -0.466523319f, 0.163484693f, -0.399977505f, -1.1240896f,
          0.0965442583f, -0.191133901f, 2.02794385f, -0.716002464f,
          0.139131263f, 0.692455351f, -1.74637198f, 0.682480156f, 0.890419364f,
          0.259599626f, -0.163593888f, -0.429575503f, -0.0743942708f,
          -0.563144863f, -2.60038209f, 2.20447206f, -0.322393864f, 0.393619835f,
          0.514445126f, 0.84370631f, 0.221587285f, -0.102449007f, 0.528432071f,
          -0.0396217033f, -0.542693377f, -0.312998593f},
      {-11.796952094456842, -10.817536385454458,
       -13.778997938516563, -9.8931018733776668}};
  check_flow(model, 64, 53, golden);
}

}  // namespace
}  // namespace passflow
