// Batch-parallel training: the pooled nll_backward must be bitwise
// reproducible at a fixed pool size, agree with the serial gradients to
// floating-point reordering tolerance, and drive the Trainer to the exact
// same weights on repeated runs. Labeled thread_safety via the file name,
// so the TSan CI job covers the sharded backward + tree reduction.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "data/alphabet.hpp"
#include "flow/flow_model.hpp"
#include "flow/trainer.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"

namespace passflow::flow {
namespace {

nn::Matrix random_batch(std::size_t rows, std::size_t cols,
                        std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.normal(0.5, 0.2));
  }
  return m;
}

std::vector<nn::Matrix> grads_of(FlowModel& model) {
  std::vector<nn::Matrix> grads;
  for (nn::Param* p : model.parameters()) grads.push_back(p->grad);
  return grads;
}

class ParallelNllBackwardTest : public ::testing::Test {
 protected:
  passflow::testing::QuietLogs quiet_;
  util::ThreadPool pool_{4};
};

TEST_F(ParallelNllBackwardTest, GradientsBitwiseIdenticalAcrossRuns) {
  util::Rng rng(11);
  FlowModel model(passflow::testing::tiny_flow_config(), rng);
  const nn::Matrix batch = random_batch(128, 6, 5);

  model.zero_grad();
  const double loss1 = model.nll_backward(batch, &pool_);
  const auto grads1 = grads_of(model);

  model.zero_grad();
  const double loss2 = model.nll_backward(batch, &pool_);
  const auto grads2 = grads_of(model);

  EXPECT_EQ(loss1, loss2);
  ASSERT_EQ(grads1.size(), grads2.size());
  for (std::size_t i = 0; i < grads1.size(); ++i) {
    ASSERT_EQ(grads1[i].size(), grads2[i].size());
    EXPECT_EQ(0, std::memcmp(grads1[i].data(), grads2[i].data(),
                             grads1[i].size() * sizeof(float)))
        << "grad mismatch at param " << i;
  }
}

TEST_F(ParallelNllBackwardTest, AgreesWithSerialWithinTolerance) {
  util::Rng rng(13);
  FlowModel model(passflow::testing::tiny_flow_config(), rng);
  const nn::Matrix batch = random_batch(160, 6, 7);

  model.zero_grad();
  const double serial_loss = model.nll_backward(batch);
  const auto serial_grads = grads_of(model);

  model.zero_grad();
  const double pooled_loss = model.nll_backward(batch, &pool_);
  const auto pooled_grads = grads_of(model);

  EXPECT_NEAR(pooled_loss, serial_loss, 1e-6 * std::abs(serial_loss) + 1e-8);
  ASSERT_EQ(pooled_grads.size(), serial_grads.size());
  for (std::size_t i = 0; i < serial_grads.size(); ++i) {
    for (std::size_t j = 0; j < serial_grads[i].size(); ++j) {
      const float ref = serial_grads[i].data()[j];
      const float bound = 1e-4f * std::max(1.0f, std::abs(ref));
      ASSERT_NEAR(pooled_grads[i].data()[j], ref, bound)
          << "param " << i << " flat index " << j;
    }
  }
}

TEST_F(ParallelNllBackwardTest, SmallBatchFallsBackToSerialBitwise) {
  util::Rng rng1(17), rng2(17);
  FlowModel pooled_model(passflow::testing::tiny_flow_config(), rng1);
  FlowModel serial_model(passflow::testing::tiny_flow_config(), rng2);
  // Below 2 * kMinRowsPerShard rows the pooled call must take the serial
  // path, producing bitwise-identical gradients.
  const nn::Matrix batch = random_batch(48, 6, 9);

  pooled_model.zero_grad();
  serial_model.zero_grad();
  const double pooled_loss = pooled_model.nll_backward(batch, &pool_);
  const double serial_loss = serial_model.nll_backward(batch);
  EXPECT_EQ(pooled_loss, serial_loss);

  const auto pooled_grads = grads_of(pooled_model);
  const auto serial_grads = grads_of(serial_model);
  ASSERT_EQ(pooled_grads.size(), serial_grads.size());
  for (std::size_t i = 0; i < pooled_grads.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(pooled_grads[i].data(), serial_grads[i].data(),
                             pooled_grads[i].size() * sizeof(float)));
  }
}

TEST_F(ParallelNllBackwardTest, GradientsAccumulateAcrossCalls) {
  util::Rng rng(19);
  FlowModel model(passflow::testing::tiny_flow_config(), rng);
  const nn::Matrix batch = random_batch(128, 6, 21);

  model.zero_grad();
  model.nll_backward(batch, &pool_);
  const auto once = grads_of(model);
  model.nll_backward(batch, &pool_);  // no zero_grad: grads must add up
  const auto twice = grads_of(model);

  for (std::size_t i = 0; i < once.size(); ++i) {
    for (std::size_t j = 0; j < once[i].size(); ++j) {
      const float expected = 2.0f * once[i].data()[j];
      const float bound = 1e-4f * std::max(1.0f, std::abs(expected));
      ASSERT_NEAR(twice[i].data()[j], expected, bound);
    }
  }
}

TEST(ParallelNllBackwardPartitionTest, LargeShardCountsStayInBounds) {
  // Regression: a ceil-division partition let tail shards start past the
  // batch end once shards stopped dividing rows evenly (e.g. 64 shards over
  // 2049 rows), underflowing `end - begin`. The balanced split must keep
  // every shard non-empty and the loss finite.
  passflow::testing::QuietLogs quiet;
  util::ThreadPool pool(64);
  util::Rng rng(43);
  FlowModel model(passflow::testing::tiny_flow_config(), rng);
  const nn::Matrix batch = random_batch(2049, 6, 23);

  model.zero_grad();
  const double loss = model.nll_backward(batch, &pool);
  EXPECT_TRUE(std::isfinite(loss));
  for (nn::Param* p : model.parameters()) {
    for (std::size_t i = 0; i < p->grad.size(); ++i) {
      ASSERT_TRUE(std::isfinite(p->grad.data()[i]));
    }
  }
}

TEST(ParallelTrainerTest, PooledTrainingIsReproducible) {
  passflow::testing::QuietLogs quiet;
  util::ThreadPool pool(3);
  const data::Encoder encoder(data::Alphabet::compact(), 6);
  const auto corpus = passflow::testing::toy_corpus(30);

  auto train_once = [&](util::ThreadPool* p) {
    util::Rng rng(31);
    FlowModel model(passflow::testing::tiny_flow_config(), rng);
    TrainConfig config;
    config.epochs = 3;
    config.batch_size = 128;
    config.log_every = 0;
    config.seed = 37;
    config.pool = p;
    Trainer trainer(model, config);
    trainer.train(corpus, encoder);
    std::vector<nn::Matrix> values;
    for (nn::Param* param : model.parameters()) values.push_back(param->value());
    return values;
  };

  const auto run1 = train_once(&pool);
  const auto run2 = train_once(&pool);
  ASSERT_EQ(run1.size(), run2.size());
  for (std::size_t i = 0; i < run1.size(); ++i) {
    ASSERT_EQ(run1[i].size(), run2[i].size());
    EXPECT_EQ(0, std::memcmp(run1[i].data(), run2[i].data(),
                             run1[i].size() * sizeof(float)))
        << "weights diverged at param " << i;
  }
}

TEST(ParallelTrainerTest, PooledTrainingLearns) {
  passflow::testing::QuietLogs quiet;
  util::ThreadPool pool(4);
  const data::Encoder encoder(data::Alphabet::compact(), 6);

  util::Rng rng(41);
  FlowModel model(passflow::testing::tiny_flow_config(), rng);
  TrainConfig config;
  config.epochs = 8;
  config.batch_size = 128;
  config.log_every = 0;
  config.validation_fraction = 0.0;
  config.pool = &pool;
  Trainer trainer(model, config);
  const auto result =
      trainer.train(passflow::testing::toy_corpus(40), encoder);
  ASSERT_EQ(result.history.size(), 8u);
  EXPECT_LT(result.history.back().train_nll,
            result.history.front().train_nll - 0.5);
}

}  // namespace
}  // namespace passflow::flow
