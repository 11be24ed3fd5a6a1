// Determinism of the pipelined AttackSession: the persistent producer at
// any depth, its tracker drain (inline or on the pool), sharded matching
// across the pool, and mid-pipeline save/resume must all reproduce the
// serial run's metrics exactly. Pooled samplers are pinned in
// parallel_harness_test.cpp. Runs under the `thread_safety` CTest label
// (and its TSan job).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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

std::vector<std::string> mixing_targets(std::size_t period = 1 << 14) {
  std::vector<std::string> targets;
  for (std::size_t v = 0; v < period; v += 7) {
    targets.push_back("g" + std::to_string(v));
  }
  return targets;
}

RunResult expected_mixing_run(const Matcher& matcher, std::size_t budget,
                              std::size_t chunk_size) {
  MixingGenerator generator;
  ReferenceConfig config;
  config.budget = budget;
  config.chunk_size = chunk_size;
  // The pipelined session never delivers feedback; MixingGenerator
  // ignores it, so the streams are identical either way.
  return reference_run(generator, matcher, config);
}

TEST(SessionParallel, EveryPipelineDepthMatchesSerialBitwise) {
  HashSetMatcher matcher(mixing_targets());
  util::ThreadPool pool(4);
  const RunResult expected = expected_mixing_run(matcher, 54321, 1000);
  ASSERT_GT(expected.final().matched, 0u);

  for (const std::size_t depth : {1u, 2u, 4u, 8u}) {
    MixingGenerator generator;
    SessionConfig config;
    config.budget = 54321;
    config.chunk_size = 1000;
    config.pipeline_depth = depth;
    config.pool = &pool;
    AttackSession session(generator, matcher, config);
    session.run();
    const RunResult actual = session.result();
    PF_EXPECT_SAME_RUN(expected, actual);
  }
}

TEST(SessionParallel, DepthWithShardedMatcherAndShardedTracker) {
  const auto targets = mixing_targets();
  HashSetMatcher reference_matcher(targets);
  util::ThreadPool pool(4);
  const RunResult expected = expected_mixing_run(reference_matcher, 40000, 2048);

  ShardedMatcher sharded(targets, 4);
  MixingGenerator generator;
  SessionConfig config;
  config.budget = 40000;
  config.chunk_size = 2048;
  config.pipeline_depth = 4;
  config.unique_shards = 4;
  config.pool = &pool;
  AttackSession session(generator, sharded, config);
  session.run();
  PF_EXPECT_SAME_RUN(expected, session.result());
}

TEST(SessionParallel, PipelinedSkipsOnMatchForFeedbackFreeGenerators) {
  class Probe : public MixingGenerator {
   public:
    void on_match(std::size_t, const std::string&) override { ++calls; }
    std::size_t calls = 0;
  };
  HashSetMatcher matcher(mixing_targets());
  Probe generator;
  SessionConfig config;
  config.budget = 20000;
  config.chunk_size = 1000;
  config.pipeline_depth = 2;
  AttackSession session(generator, matcher, config);
  session.run();
  EXPECT_GT(session.result().final().matched, 0u);
  EXPECT_EQ(generator.calls, 0u);
}

TEST(SessionParallel, FeedbackGeneratorFallsBackToSerial) {
  class FeedbackProbe : public MixingGenerator {
   public:
    void on_match(std::size_t, const std::string&) override { ++calls; }
    bool uses_match_feedback() const override { return true; }
    std::size_t calls = 0;
  };
  HashSetMatcher matcher(mixing_targets());
  const RunResult expected = expected_mixing_run(matcher, 20000, 1000);

  FeedbackProbe generator;
  SessionConfig config;
  config.budget = 20000;
  config.chunk_size = 1000;
  config.pipeline_depth = 8;  // must be ignored
  AttackSession session(generator, matcher, config);
  session.run();
  EXPECT_GT(generator.calls, 0u);  // serial path delivers feedback
  PF_EXPECT_SAME_RUN(expected, session.result());
}

TEST(SessionParallel, SaveMidPipelineResumeEqualsUninterrupted) {
  HashSetMatcher matcher(mixing_targets());
  util::ThreadPool pool(2);
  const RunResult expected = expected_mixing_run(matcher, 60000, 1000);

  // Freeze a depth-4 session mid-run: chunks already generated ahead of
  // consumption must be carried by the state stream.
  MixingGenerator first_gen;
  SessionConfig config;
  config.budget = 60000;
  config.chunk_size = 1000;
  config.pipeline_depth = 4;
  config.pool = &pool;
  AttackSession first(first_gen, matcher, config);
  first.run_until(29000);
  std::stringstream frozen;
  first.save_state(frozen);

  // Thaw into a different pipeline shape (depth 2): metrics must not care.
  MixingGenerator second_gen;
  SessionConfig resumed_config = config;
  resumed_config.pipeline_depth = 2;
  AttackSession second(second_gen, matcher, resumed_config);
  second.load_state(frozen);
  second.run();
  PF_EXPECT_SAME_RUN(expected, second.result());
}

TEST(SessionParallel, PipelinedSaveResumesIntoSerialSession) {
  HashSetMatcher matcher(mixing_targets());
  const RunResult expected = expected_mixing_run(matcher, 30000, 1000);

  MixingGenerator first_gen;
  SessionConfig config;
  config.budget = 30000;
  config.chunk_size = 1000;
  config.pipeline_depth = 8;
  AttackSession first(first_gen, matcher, config);
  first.run_until(4000);
  std::stringstream frozen;
  first.save_state(frozen);

  MixingGenerator second_gen;
  SessionConfig serial_config = config;
  serial_config.pipeline_depth = 0;
  AttackSession second(second_gen, matcher, serial_config);
  second.load_state(frozen);
  second.run();
  PF_EXPECT_SAME_RUN(expected, second.result());
}

TEST(SessionParallel, StaticSamplerPipelinedMatchesSerial) {
  const auto& env = tiny_trained_flow();
  util::ThreadPool pool(4);

  // A target set the sampler can actually hit: every 5th guess of a
  // warmup run over the same model.
  std::vector<std::string> targets;
  {
    StaticSamplerConfig warmup_config;
    warmup_config.seed = 404;
    StaticSampler warmup(env.model, env.encoder, warmup_config);
    std::vector<std::string> guesses;
    warmup.generate(5000, guesses);
    for (std::size_t i = 0; i < guesses.size(); i += 5) {
      targets.push_back(guesses[i]);
    }
  }
  HashSetMatcher matcher(targets);

  auto run = [&](std::size_t depth, util::ThreadPool* sampler_pool) {
    StaticSamplerConfig sampler_config;
    sampler_config.seed = 55;
    sampler_config.batch_size = 1024;
    sampler_config.pool = sampler_pool;
    StaticSampler sampler(env.model, env.encoder, sampler_config);
    SessionConfig config;
    config.budget = 20000;
    config.chunk_size = 2048;
    config.pipeline_depth = depth;
    config.pool = sampler_pool;
    AttackSession session(sampler, matcher, config);
    session.run();
    return session.result();
  };

  const RunResult serial = run(0, nullptr);
  ASSERT_GT(serial.final().matched, 0u);
  for (const std::size_t depth : {1u, 4u}) {
    const RunResult pipelined = run(depth, &pool);
    PF_EXPECT_SAME_RUN(serial, pipelined);
  }
}

TEST(SessionParallel, StaticSamplerSaveResumeMidPipeline) {
  const auto& env = tiny_trained_flow();
  HashSetMatcher matcher({"unlikely"});

  auto make_session = [&](StaticSampler& sampler) {
    SessionConfig config;
    config.budget = 16000;
    config.chunk_size = 1024;
    config.pipeline_depth = 3;
    return std::make_unique<AttackSession>(sampler, matcher, config);
  };

  StaticSamplerConfig sampler_config;
  sampler_config.seed = 77;
  StaticSampler whole_sampler(env.model, env.encoder, sampler_config);
  auto whole = make_session(whole_sampler);
  whole->run();
  const RunResult expected = whole->result();

  StaticSampler first_sampler(env.model, env.encoder, sampler_config);
  auto first = make_session(first_sampler);
  first->run_until(6000);
  std::stringstream frozen;
  first->save_state(frozen);

  StaticSampler second_sampler(env.model, env.encoder, sampler_config);
  auto second = make_session(second_sampler);
  second->load_state(frozen);
  second->run();
  PF_EXPECT_SAME_RUN(expected, second->result());
}

TEST(SessionParallel, ConcurrentSessionsShareOneMatcher) {
  // Two pipelined sessions attack the same shared matcher from two
  // threads; each must reproduce its own serial reference exactly.
  auto matcher = std::make_shared<const HashSetMatcher>(mixing_targets());
  const RunResult expected = expected_mixing_run(*matcher, 30000, 1000);

  auto attack = [&](RunResult& out) {
    MixingGenerator generator;
    SessionConfig config;
    config.budget = 30000;
    config.chunk_size = 1000;
    config.pipeline_depth = 4;
    AttackSession session(generator, MatcherRef(matcher), config);
    session.run();
    out = session.result();
  };

  RunResult a;
  RunResult b;
  std::thread ta(attack, std::ref(a));
  std::thread tb(attack, std::ref(b));
  ta.join();
  tb.join();
  PF_EXPECT_SAME_RUN(expected, a);
  PF_EXPECT_SAME_RUN(expected, b);
}

TEST(SessionParallel, DestructorJoinsMidRunPipeline) {
  HashSetMatcher matcher(mixing_targets());
  MixingGenerator generator;
  SessionConfig config;
  config.budget = 500000;
  config.chunk_size = 1000;
  config.pipeline_depth = 8;
  {
    AttackSession session(generator, matcher, config);
    session.run_until(5000);
    // Drop the session with a full pipeline in flight.
  }
  SUCCEED();
}

TEST(SessionParallel, ProducerExceptionSurfacesInStep) {
  class Exploding : public MixingGenerator {
   public:
    void generate(std::size_t n, std::vector<std::string>& out) override {
      if (++calls > 3) throw std::runtime_error("generator blew up");
      MixingGenerator::generate(n, out);
    }
    std::string name() const override { return "exploding"; }
    std::size_t calls = 0;
  };
  HashSetMatcher matcher({});
  Exploding generator;
  SessionConfig config;
  config.budget = 100000;
  config.chunk_size = 1000;
  config.pipeline_depth = 2;
  AttackSession session(generator, matcher, config);
  EXPECT_THROW(
      {
        while (session.step()) {
        }
      },
      std::runtime_error);
}

// A pipeline error must leave the session retryable on every placement:
// inline generation (depth 0), a producer thread with the tracker drain
// inline (no pool) or on the pool. A step() retried after the throw
// restarts the pipeline and re-folds any consumed-but-unfolded backlog
// before the next checkpoint sync (an earlier accounting of that backlog
// deadlocked the barrier). The generator throws *before* touching its
// stream state, so every retry replays the identical stream and the final
// metrics must still be bitwise equal to the serial reference.
TEST(SessionParallel, PipelineErrorRetryReplaysStreamBitwise) {
  // Throws on every 5th generate() call, stream state untouched.
  class ThrowEveryFifth : public GuessGenerator {
   public:
    void generate(std::size_t n, std::vector<std::string>& out) override {
      if (++calls_ % 5 == 0) {
        throw std::runtime_error("transient generator failure");
      }
      inner_.generate(n, out);
    }
    std::string name() const override { return "throw-every-5th"; }

   private:
    MixingGenerator inner_;
    int calls_ = 0;
  };

  HashSetMatcher matcher(mixing_targets());
  util::ThreadPool pool(2);

  for (const std::size_t depth : {0u, 1u, 3u}) {
    for (const bool pooled : {true, false}) {
      SCOPED_TRACE("depth " + std::to_string(depth) +
                   (pooled ? ", pool" : ", no pool"));
      SessionConfig config;
      config.budget = 40000;
      config.chunk_size = 500;  // 80 chunks => ~16 error/restart cycles
      config.checkpoints = {5000, 10000, 20000, 30000, 40000};
      config.pipeline_depth = depth;
      config.pool = pooled ? &pool : nullptr;

      ThrowEveryFifth generator;
      AttackSession session(generator, matcher, config);
      std::size_t errors = 0;
      while (!session.finished()) {
        try {
          if (!session.step()) break;
        } catch (const std::runtime_error&) {
          ++errors;  // surfaced once per failed generate; stays usable
        }
      }
      EXPECT_GE(errors, 10u);
      EXPECT_TRUE(session.finished());

      MixingGenerator reference_generator;
      ReferenceConfig reference;
      reference.budget = config.budget;
      reference.chunk_size = config.chunk_size;
      reference.checkpoints = config.checkpoints;
      PF_EXPECT_SAME_RUN(
          reference_run(reference_generator, matcher, reference),
          session.result());
    }
  }
}

// Same retry machinery, but the error comes from the matcher: inline at
// depth 0, on the producer thread at depth 2. The accounting must hold —
// the session completes its exact budget, every checkpoint lands, and
// nothing deadlocks on the tracker barrier — and since a chunk whose match
// throws is requeued unmatched (the generator's stream is already past
// it), the metrics stay bitwise equal to the serial reference.
TEST(SessionParallel, PipelineErrorFromMatcherKeepsAccountingConsistent) {
  class ThrowingMatcher : public Matcher {
   public:
    explicit ThrowingMatcher(const std::vector<std::string>& targets)
        : inner_(targets) {}
    bool contains(const std::string& password) const override {
      return inner_.contains(password);
    }
    std::size_t test_set_size() const override {
      return inner_.test_set_size();
    }
    std::string name() const override { return "throwing-matcher"; }
    void contains_batch(const std::vector<std::string>& batch,
                        util::ThreadPool* pool,
                        std::vector<char>& out) const override {
      if (++calls_ % 7 == 0) {
        throw std::runtime_error("transient matcher failure");
      }
      inner_.contains_batch(batch, pool, out);
    }

   private:
    HashSetMatcher inner_;
    mutable std::atomic<int> calls_{0};
  };

  util::ThreadPool pool(2);

  for (const std::size_t depth : {0u, 2u}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    ThrowingMatcher matcher(mixing_targets());
    SessionConfig config;
    config.budget = 30000;
    config.chunk_size = 500;
    config.checkpoints = {10000, 20000, 30000};
    config.pipeline_depth = depth;
    config.pool = &pool;

    MixingGenerator generator;
    AttackSession session(generator, matcher, config);
    std::size_t errors = 0;
    while (!session.finished()) {
      try {
        if (!session.step()) break;
      } catch (const std::runtime_error&) {
        ++errors;
      }
    }
    EXPECT_GE(errors, 1u);
    EXPECT_TRUE(session.finished());

    const RunResult result = session.result();
    EXPECT_EQ(result.final().guesses, 30000u);
    ASSERT_EQ(result.checkpoints.size(), 3u);
    for (const Checkpoint& cp : result.checkpoints) {
      // Unique can never exceed produced, and the tracker folded every
      // consumed chunk exactly once — no double-folds from requeued chunks.
      EXPECT_LE(cp.unique, cp.guesses);
      EXPECT_GT(cp.unique, 0u);
    }

    MixingGenerator reference_generator;
    ReferenceConfig reference;
    reference.budget = config.budget;
    reference.chunk_size = config.chunk_size;
    reference.checkpoints = config.checkpoints;
    const HashSetMatcher reference_matcher(mixing_targets());
    PF_EXPECT_SAME_RUN(
        reference_run(reference_generator, reference_matcher, reference),
        result);
  }
}

}  // namespace
}  // namespace passflow::guessing
