// Thread-safety regression tests for FlowModel's inference paths.
//
// forward_inference / inverse / log_prob are const and cache-free, so many
// ThreadPool workers may share one model. These tests pin that contract:
// concurrent calls must produce exactly the results of serial calls, and
// the pool-chunked overloads must be bitwise identical to the serial ones.
// They run under the `thread_safety` CTest label so a TSan configuration
// can execute precisely this slice (`ctest -L thread_safety`).
#include "flow/flow_model.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "test_support.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace passflow::flow {
namespace {

nn::Matrix normal_batch(std::size_t rows, std::size_t cols,
                        std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return m;
}

void expect_bitwise_equal(const nn::Matrix& a, const nn::Matrix& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "at flat index " << i;
  }
}

TEST(FlowThreadSafety, ConcurrentInverseMatchesSerial) {
  const auto& env = passflow::testing::tiny_trained_flow();
  constexpr std::size_t kTasks = 24;

  std::vector<nn::Matrix> inputs;
  std::vector<nn::Matrix> expected(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    inputs.push_back(normal_batch(48, env.model.dim(), 100 + i));
  }
  for (std::size_t i = 0; i < kTasks; ++i) {
    expected[i] = env.model.inverse(inputs[i]);
  }

  std::vector<nn::Matrix> actual(kTasks);
  util::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    actual[i] = env.model.inverse(inputs[i]);
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    expect_bitwise_equal(expected[i], actual[i]);
  }
}

TEST(FlowThreadSafety, ConcurrentForwardInferenceMatchesSerial) {
  const auto& env = passflow::testing::tiny_trained_flow();
  constexpr std::size_t kTasks = 24;

  std::vector<nn::Matrix> inputs;
  std::vector<nn::Matrix> expected(kTasks);
  std::vector<std::vector<double>> expected_log_det(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    inputs.push_back(normal_batch(48, env.model.dim(), 500 + i));
  }
  for (std::size_t i = 0; i < kTasks; ++i) {
    expected[i] = env.model.forward_inference(inputs[i], &expected_log_det[i]);
  }

  std::vector<nn::Matrix> actual(kTasks);
  std::vector<std::vector<double>> actual_log_det(kTasks);
  util::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    actual[i] = env.model.forward_inference(inputs[i], &actual_log_det[i]);
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    expect_bitwise_equal(expected[i], actual[i]);
    ASSERT_EQ(expected_log_det[i], actual_log_det[i]);
  }
}

TEST(FlowThreadSafety, MixedInverseAndForwardOnOneModel) {
  // Workers hammer both directions of the same model simultaneously; each
  // task must still reproduce its serial golden exactly.
  const auto& env = passflow::testing::tiny_trained_flow();
  constexpr std::size_t kTasks = 32;

  std::vector<nn::Matrix> inputs;
  std::vector<nn::Matrix> expected(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    inputs.push_back(normal_batch(32, env.model.dim(), 900 + i));
    expected[i] = (i % 2 == 0) ? env.model.inverse(inputs[i])
                               : env.model.forward_inference(inputs[i]);
  }

  std::vector<nn::Matrix> actual(kTasks);
  util::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    actual[i] = (i % 2 == 0) ? env.model.inverse(inputs[i])
                             : env.model.forward_inference(inputs[i]);
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    expect_bitwise_equal(expected[i], actual[i]);
  }
}

TEST(FlowThreadSafety, PooledInverseBitwiseEqualsSerial) {
  const auto& env = passflow::testing::tiny_trained_flow();
  const nn::Matrix z = normal_batch(512, env.model.dim(), 7);
  util::ThreadPool pool(4);
  expect_bitwise_equal(env.model.inverse(z), env.model.inverse(z, &pool));
}

TEST(FlowThreadSafety, PooledForwardInferenceBitwiseEqualsSerial) {
  const auto& env = passflow::testing::tiny_trained_flow();
  const nn::Matrix x = normal_batch(512, env.model.dim(), 8);
  util::ThreadPool pool(4);

  std::vector<double> serial_log_det;
  std::vector<double> pooled_log_det;
  const nn::Matrix serial = env.model.forward_inference(x, &serial_log_det);
  const nn::Matrix pooled =
      env.model.forward_inference(x, &pooled_log_det, &pool);
  expect_bitwise_equal(serial, pooled);
  ASSERT_EQ(serial_log_det, pooled_log_det);
}

// A row's log p(x) must not depend on its batch: scored alone, the row
// fills one row of a zero-padded register tile; in a 64-row batch, it
// shares whole tiles with other rows.
TEST(FlowThreadSafety, BatchedLogProbRowsEqualRowsScoredAlone) {
  const auto& env = passflow::testing::tiny_trained_flow();
  const nn::Matrix x = normal_batch(64, env.model.dim(), 10);
  const std::vector<double> batched = env.model.log_prob_batch(x);
  ASSERT_EQ(batched.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    nn::Matrix row(1, x.cols());
    for (std::size_t c = 0; c < x.cols(); ++c) row(0, c) = x(r, c);
    const std::vector<double> alone = env.model.log_prob_batch(row);
    ASSERT_EQ(alone.size(), 1u);
    ASSERT_EQ(batched[r], alone[0]) << "row " << r;
  }
}

// A new model packs each inference weight on first use. Here every worker
// of a 4-worker pool makes that first use at once, as `screen` does when a
// 64-row batch splits into four 16-row chunks; each chunk must still equal
// the serial result of a twin model with the same weights.
TEST(FlowThreadSafety, ConcurrentFirstUseOfANewModel) {
  // Twins: the same seed builds the same weights, the zero-initialized s/t
  // heads perturbed too, so the flow is not the identity map.
  const auto twin = [] {
    util::Rng rng(61);
    auto model = std::make_unique<FlowModel>(
        passflow::testing::tiny_flow_config(), rng);
    for (nn::Param* p : model->parameters()) {
      p->write([&rng](nn::Matrix& value) {
        for (std::size_t i = 0; i < value.size(); ++i) {
          value.data()[i] += static_cast<float>(rng.normal(0.0, 0.15));
        }
      });
    }
    return model;
  };
  const auto reference = twin();
  const nn::Matrix x = normal_batch(64, reference->dim(), 11);
  const std::vector<double> want_log_p = reference->log_prob_batch(x);
  const nn::Matrix want_inverse = reference->inverse(x);

  util::ThreadPool pool(4);
  for (int round = 0; round < 4; ++round) {
    const auto scored = twin();
    ASSERT_EQ(scored->log_prob_batch(x, &pool), want_log_p);
    const auto inverted = twin();
    expect_bitwise_equal(inverted->inverse(x, &pool), want_inverse);
  }
}

TEST(FlowThreadSafety, PooledSmallBatchFallsBackToSerial) {
  const auto& env = passflow::testing::tiny_trained_flow();
  const nn::Matrix z = normal_batch(4, env.model.dim(), 9);
  util::ThreadPool pool(4);
  expect_bitwise_equal(env.model.inverse(z), env.model.inverse(z, &pool));
}

}  // namespace
}  // namespace passflow::flow
