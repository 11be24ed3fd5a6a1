// Determinism of the parallel guessing path outside the session's own
// pipeline: pooled samplers must emit the serial stream exactly, a pooled
// DynamicSampler session must reproduce the serial run's metrics, and a
// pipelined session must keep custom checkpoints exact. Runs under the
// `thread_safety` CTest label (and its TSan job).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "guessing/dynamic_sampler.hpp"
#include "guessing/session.hpp"
#include "guessing/static_sampler.hpp"
#include "reference_harness.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"

namespace passflow::guessing {
namespace {

using passflow::testing::tiny_trained_flow;
using testing::MixingGenerator;
using testing::ReferenceConfig;
using testing::reference_run;

// A target set the samplers can actually hit: every 5th guess of a warmup
// run over the same model.
std::vector<std::string> reachable_targets() {
  const auto& env = tiny_trained_flow();
  StaticSamplerConfig warmup_config;
  warmup_config.seed = 404;
  StaticSampler warmup(env.model, env.encoder, warmup_config);
  std::vector<std::string> guesses;
  warmup.generate(5000, guesses);
  std::vector<std::string> targets;
  for (std::size_t i = 0; i < guesses.size(); i += 5) {
    targets.push_back(guesses[i]);
  }
  return targets;
}

TEST(ParallelHarness, PooledStaticSamplerOutputIsIdentical) {
  const auto& env = tiny_trained_flow();
  util::ThreadPool pool(4);

  StaticSamplerConfig serial_config;
  serial_config.seed = 21;
  StaticSampler serial(env.model, env.encoder, serial_config);

  StaticSamplerConfig pooled_config;
  pooled_config.seed = 21;
  pooled_config.pool = &pool;
  StaticSampler pooled(env.model, env.encoder, pooled_config);

  std::vector<std::string> serial_out;
  std::vector<std::string> pooled_out;
  serial.generate(4096, serial_out);
  pooled.generate(4096, pooled_out);
  EXPECT_EQ(serial_out, pooled_out);
}

TEST(ParallelHarness, PooledDynamicSamplerOutputIsIdentical) {
  const auto& env = tiny_trained_flow();
  util::ThreadPool pool(4);

  auto make_run = [&](util::ThreadPool* sampler_pool) {
    DynamicSamplerConfig config;
    config.seed = 33;
    config.alpha = 0;
    config.batch_size = 512;
    config.pool = sampler_pool;
    DynamicSampler sampler(env.model, env.encoder, config);
    std::vector<std::string> out;
    sampler.generate(1024, out);
    // Feed matches so the mixture path (Eq. 14) is exercised too.
    sampler.on_match(3, out[3]);
    sampler.on_match(700, out[700]);
    sampler.generate(2048, out);
    return out;
  };

  EXPECT_EQ(make_run(nullptr), make_run(&pool));
}

TEST(ParallelHarness, DynamicRunMatchesSerialBitwise) {
  // DynamicSampler consumes match feedback, so the session must refuse to
  // pipeline generation even when asked — and with the pool only speeding
  // up inverse/decode/matching, the metrics must not change.
  const auto& env = tiny_trained_flow();
  HashSetMatcher matcher(reachable_targets());
  util::ThreadPool pool(4);

  auto run = [&](bool parallel) {
    DynamicSamplerConfig sampler_config = table1_parameters(20000);
    sampler_config.seed = 66;
    sampler_config.batch_size = 1024;
    if (parallel) sampler_config.pool = &pool;
    DynamicSampler sampler(env.model, env.encoder, sampler_config);
    SessionConfig config;
    config.budget = 20000;
    config.chunk_size = 2048;
    if (parallel) {
      config.pool = &pool;
      config.pipeline_depth = 1;  // ignored: feedback generator
    }
    AttackSession session(sampler, matcher, config);
    session.run();
    return session.result();
  };

  const RunResult serial = run(false);
  const RunResult parallel = run(true);
  ASSERT_GT(serial.final().matched, 0u);
  PF_EXPECT_SAME_RUN(serial, parallel);
}

TEST(ParallelHarness, PipelinedCustomCheckpointsStayExact) {
  std::vector<std::string> targets;
  for (std::size_t v = 0; v < (1u << 14); v += 7) {
    targets.push_back("g" + std::to_string(v));
  }
  HashSetMatcher matcher(targets);
  util::ThreadPool pool(2);

  ReferenceConfig reference;
  reference.budget = 5000;
  reference.chunk_size = 4096;  // larger than checkpoint spacing
  reference.checkpoints = {10, 100, 2500, 5000};
  MixingGenerator reference_generator;
  const RunResult expected =
      reference_run(reference_generator, matcher, reference);

  MixingGenerator generator;
  SessionConfig config;
  config.budget = reference.budget;
  config.chunk_size = reference.chunk_size;
  config.checkpoints = reference.checkpoints;
  config.pipeline_depth = 1;
  config.pool = &pool;
  AttackSession session(generator, matcher, config);
  session.run();
  const RunResult actual = session.result();
  ASSERT_EQ(actual.checkpoints.size(), 4u);
  EXPECT_EQ(actual.checkpoints[0].guesses, 10u);
  EXPECT_EQ(actual.checkpoints[2].guesses, 2500u);
  PF_EXPECT_SAME_RUN(expected, actual);
}

}  // namespace
}  // namespace passflow::guessing
