#include "analysis/latent_stats.hpp"

#include <gtest/gtest.h>

#include "data/alphabet.hpp"
#include "test_support.hpp"

namespace passflow::analysis {
namespace {

TEST(EditDistance, KnownValues) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("abc", "abc"), 0u);
  EXPECT_EQ(edit_distance("abc", ""), 3u);
  EXPECT_EQ(edit_distance("", "xy"), 2u);
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("flaw", "lawn"), 2u);
  EXPECT_EQ(edit_distance("jimmy91", "jimmy31"), 1u);
}

TEST(EditDistance, SymmetricAndTriangleInequality) {
  const std::string a = "password", b = "passw0rd", c = "dragon";
  EXPECT_EQ(edit_distance(a, b), edit_distance(b, a));
  EXPECT_LE(edit_distance(a, c),
            edit_distance(a, b) + edit_distance(b, c));
}

class LatentStatsTest : public ::testing::Test {
 protected:
  LatentStatsTest()
      : rng_(5),
        encoder_(data::Alphabet::compact(), 6),
        model_(passflow::testing::tiny_flow_config(), rng_) {
    for (nn::Param* p : model_.parameters()) {
      if (p->name.find("s_scale") != std::string::npos) continue;
      p->write([this](nn::Matrix& value) {
        for (std::size_t i = 0; i < value.size(); ++i) {
          value.data()[i] += static_cast<float>(rng_.normal(0.0, 0.1));
        }
      });
    }
  }

  util::Rng rng_;
  data::Encoder encoder_;
  flow::FlowModel model_;
};

TEST_F(LatentStatsTest, ProbeReportsSampleCount) {
  util::Rng rng(1);
  const auto stats =
      probe_neighborhood(model_, encoder_, "abc123", 0.1, 200, rng);
  EXPECT_EQ(stats.samples, 200u);
  EXPECT_GE(stats.collision_rate, 0.0);
  EXPECT_LE(stats.collision_rate, 1.0);
}

TEST_F(LatentStatsTest, TinySigmaMeansHighCollisionsAndZeroEditDistance) {
  util::Rng rng(2);
  const auto stats =
      probe_neighborhood(model_, encoder_, "abc123", 1e-6, 100, rng);
  EXPECT_GT(stats.collision_rate, 0.9);
  EXPECT_LT(stats.mean_edit_distance, 0.1);
}

TEST_F(LatentStatsTest, LargerSigmaIncreasesEditDistance) {
  util::Rng rng(3);
  const auto near =
      probe_neighborhood(model_, encoder_, "abc123", 0.02, 300, rng);
  const auto far =
      probe_neighborhood(model_, encoder_, "abc123", 1.0, 300, rng);
  EXPECT_GT(far.mean_edit_distance, near.mean_edit_distance);
}

TEST_F(LatentStatsTest, MeanLatentDistanceOfIdenticalIsZero) {
  EXPECT_DOUBLE_EQ(
      mean_latent_distance(model_, encoder_, {"same11", "same11"}), 0.0);
}

TEST_F(LatentStatsTest, MeanLatentDistancePositiveForDistinct) {
  EXPECT_GT(mean_latent_distance(model_, encoder_,
                                 {"abc123", "qwerty", "dragon"}),
            0.0);
}

TEST_F(LatentStatsTest, SinglePasswordHasNoPairs) {
  EXPECT_DOUBLE_EQ(mean_latent_distance(model_, encoder_, {"only12"}), 0.0);
}

}  // namespace
}  // namespace passflow::analysis
