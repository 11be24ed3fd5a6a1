// Integration tests: the full pipeline from synthetic corpus through flow
// training to guessing, exercising the same path the benches use (scaled to
// seconds).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "baselines/markov.hpp"
#include "data/synthetic_rockyou.hpp"
#include "flow/trainer.hpp"
#include "guessing/dynamic_sampler.hpp"
#include "guessing/interpolation.hpp"
#include "guessing/reference_harness.hpp"
#include "guessing/scheduler.hpp"
#include "guessing/session.hpp"
#include "guessing/static_sampler.hpp"
#include "test_support.hpp"
#include "util/checkpoint.hpp"
#include "util/hash.hpp"

namespace passflow {
namespace {

// One trained model shared across all tests in this file. Training used to
// dominate the whole suite's wall-clock (~11 s), so the trained parameters
// and NLL history are persisted as a checked-in fixture
// (tests/fixtures/e2e_flow.*) that SetUpTestSuite loads in milliseconds.
// Deleting both fixture files re-trains and re-writes them on the next run;
// a fixture that is present but fails to load fails every test instead, so
// the checked-in model (also read by the golden numerics suite and the
// benchmark) is never silently replaced.
class EndToEndTest : public ::testing::Test {
 protected:
  // Throws with the reason when either file is missing or malformed.
  static void load_fixture(const std::string& checkpoint_path,
                           const std::string& history_path) {
    std::ifstream history(history_path);
    if (!history.good()) {
      throw std::runtime_error("cannot open " + history_path);
    }
    flow::TrainResult loaded;
    std::string line;
    while (std::getline(history, line)) {
      if (line.empty()) continue;
      flow::EpochStats stats;
      char comma = 0;
      std::istringstream fields(line);
      fields >> stats.epoch >> comma >> stats.train_nll >> comma >>
          stats.validation_nll;
      if (!fields) {
        throw std::runtime_error(history_path + ": malformed line '" + line +
                                 "'");
      }
      loaded.history.push_back(stats);
    }
    if (loaded.history.empty()) {
      throw std::runtime_error(history_path + " holds no epochs");
    }
    model_->load(checkpoint_path);  // validates names and shapes
    *result_ = std::move(loaded);
  }

  static void save_fixture(const std::string& checkpoint_path,
                           const std::string& history_path) {
    model_->save(checkpoint_path);
    std::ofstream history(history_path);
    for (const auto& stats : result_->history) {
      history << stats.epoch << ',' << stats.train_nll << ','
              << stats.validation_nll << '\n';
    }
  }

  static void SetUpTestSuite() {
    quiet_ = new testing::QuietLogs();
    // Focused corpus + compact alphabet: the regime where a small flow
    // trained for seconds reliably produces organic test-set matches (the
    // default bench scale uses the same configuration, larger).
    encoder_ = new data::Encoder(data::Alphabet::compact(), 8);

    data::SyntheticRockyou generator(data::focused_corpus_config(8), 1234);
    const auto corpus = generator.generate(60000);
    util::Rng rng(5);
    split_ = new data::DatasetSplit(
        data::make_rockyou_style_split(corpus, 12000, rng));

    flow::FlowConfig config;
    config.dim = 8;
    config.num_couplings = 8;
    config.hidden = 96;
    config.residual_blocks = 2;
    util::Rng model_rng(6);
    model_ = new flow::FlowModel(config, model_rng);
    result_ = new flow::TrainResult();

    const std::string fixture_dir = PASSFLOW_TEST_FIXTURE_DIR;
    const std::string checkpoint_path = fixture_dir + "/e2e_flow.ckpt";
    const std::string history_path = fixture_dir + "/e2e_flow_history.csv";
    if (std::ifstream(checkpoint_path).good() ||
        std::ifstream(history_path).good()) {
      try {
        load_fixture(checkpoint_path, history_path);
      } catch (const std::exception& e) {
        load_error_ = new std::string(e.what());
      }
      return;
    }

    flow::TrainConfig train_config;
    train_config.epochs = 12;
    train_config.batch_size = 512;
    train_config.lr_decay = 0.98;
    train_config.log_every = 0;
    flow::Trainer trainer(*model_, train_config);
    *result_ = trainer.train(split_->train, *encoder_);
    save_fixture(checkpoint_path, history_path);
  }

  void SetUp() override {
    if (load_error_ != nullptr) {
      FAIL() << "tests/fixtures/e2e_flow fixture failed to load: "
             << *load_error_;
    }
  }

  static void TearDownTestSuite() {
    delete load_error_;
    delete result_;
    delete model_;
    delete split_;
    delete encoder_;
    delete quiet_;
  }

  static testing::QuietLogs* quiet_;
  static data::Encoder* encoder_;
  static data::DatasetSplit* split_;
  static flow::FlowModel* model_;
  static flow::TrainResult* result_;
  static std::string* load_error_;
};

testing::QuietLogs* EndToEndTest::quiet_ = nullptr;
data::Encoder* EndToEndTest::encoder_ = nullptr;
data::DatasetSplit* EndToEndTest::split_ = nullptr;
flow::FlowModel* EndToEndTest::model_ = nullptr;
flow::TrainResult* EndToEndTest::result_ = nullptr;
std::string* EndToEndTest::load_error_ = nullptr;

TEST_F(EndToEndTest, TrainingImprovedNll) {
  ASSERT_GE(result_->history.size(), 2u);
  EXPECT_LT(result_->history.back().train_nll,
            result_->history.front().train_nll);
}

TEST_F(EndToEndTest, TrainedFlowStillInvertible) {
  const nn::Matrix x = encoder_->encode_batch(
      {split_->train[0], split_->train[1], split_->train[2]});
  const nn::Matrix z = model_->forward_inference(x);
  const nn::Matrix back = model_->inverse(z);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back.data()[i], x.data()[i], 5e-3f);
  }
}

TEST_F(EndToEndTest, TrainingPasswordsBeatRandomStringsInDensity) {
  const auto train_lp =
      model_->log_prob(encoder_->encode_batch({"123456", "love123"}));
  const auto junk_lp =
      model_->log_prob(encoder_->encode_batch({"zqxwvjpk", "qwzxvkjm"}));
  EXPECT_GT((train_lp[0] + train_lp[1]) / 2.0,
            (junk_lp[0] + junk_lp[1]) / 2.0);
}

// Target set for the sampler integration tests: fresh draws from the same
// generative process, deduplicated. This covers far more probability mass
// than the paper-protocol test set (which removes everything seen in the
// training partition and therefore keeps only deep-tail strings), so the
// assertions are statistically stable at CI-sized budgets. The bench
// drivers measure the faithful paper protocol.
std::vector<std::string> fresh_target_set() {
  data::SyntheticRockyou generator(data::focused_corpus_config(8), 777);
  std::unordered_set<std::string> unique;
  for (auto& password : generator.generate(50000)) {
    unique.insert(std::move(password));
  }
  return {unique.begin(), unique.end()};
}

// Runs `generator` through one serial session of `budget` guesses.
guessing::RunResult run_attack(guessing::GuessGenerator& generator,
                               const guessing::Matcher& matcher,
                               std::size_t budget,
                               std::size_t chunk_size = 16384) {
  guessing::SessionConfig config;
  config.budget = budget;
  config.chunk_size = chunk_size;
  guessing::AttackSession session(generator, matcher, config);
  session.run();
  return session.result();
}

TEST_F(EndToEndTest, StaticSamplerFindsMatches) {
  guessing::HashSetMatcher matcher(fresh_target_set());
  guessing::StaticSamplerConfig config;
  config.seed = 101;
  guessing::StaticSampler sampler(*model_, *encoder_, config);
  const auto result = run_attack(sampler, matcher, 60000);
  EXPECT_GE(result.final().matched, 3u);
}

TEST_F(EndToEndTest, DynamicBeatsStaticOnSameBudget) {
  guessing::HashSetMatcher matcher(fresh_target_set());
  const std::size_t budget = 30000;

  guessing::StaticSamplerConfig s_config;
  s_config.seed = 7;
  guessing::StaticSampler static_sampler(*model_, *encoder_, s_config);
  const auto static_result = run_attack(static_sampler, matcher, budget);

  guessing::DynamicSamplerConfig d_config =
      guessing::table1_parameters(budget);
  d_config.seed = 7;
  guessing::DynamicSampler dynamic_sampler(*model_, *encoder_, d_config);
  const auto dynamic_result = run_attack(dynamic_sampler, matcher, budget);

  // The paper's core claim at every budget (Table II): DS >= static.
  EXPECT_GE(dynamic_result.final().matched, static_result.final().matched);
}

// Forwards a sampler's guesses and match feedback unchanged, and digests
// every guess in the order the session receives it.
class DigestingGenerator : public guessing::GuessGenerator {
 public:
  explicit DigestingGenerator(guessing::GuessGenerator& inner)
      : inner_(inner) {}

  void generate(std::size_t n, std::vector<std::string>& out) override {
    const std::size_t first = out.size();
    inner_.generate(n, out);
    for (std::size_t i = first; i < out.size(); ++i) {
      digest_ = util::hash64(out[i], digest_);
    }
  }
  void on_match(std::size_t index_in_batch,
                const std::string& password) override {
    inner_.on_match(index_in_batch, password);
  }
  bool uses_match_feedback() const override {
    return inner_.uses_match_feedback();
  }
  std::string name() const override { return inner_.name(); }

  std::uint64_t digest() const { return digest_; }

 private:
  guessing::GuessGenerator& inner_;
  std::uint64_t digest_ = 0;
};

struct GuessStream {
  std::size_t matched = 0;
  std::size_t unique = 0;
  std::uint64_t digest = 0;
};

// Pins what the trained fixture guesses: a StaticSampler and a Dynamic
// sampler with and without GS (Table I parameters), 30000 guesses each
// against the fresh target
// set. Where the flow's bits are reproducible (flow_bits_pinned()), the
// matched and unique counts and the digest of the whole guess stream must
// equal the stored values, so a faster path cannot quietly guess
// differently. Elsewhere the test prints what it computed and checks only
// the inequalities of the tests above.
TEST_F(EndToEndTest, GuessStreamsPinned) {
  guessing::HashSetMatcher matcher(fresh_target_set());
  const std::size_t budget = 30000;
  const auto attack = [&](guessing::GuessGenerator& sampler) {
    DigestingGenerator digesting(sampler);
    const auto result = run_attack(digesting, matcher, budget);
    EXPECT_EQ(result.final().guesses, budget);
    return GuessStream{result.final().matched, result.final().unique,
                       digesting.digest()};
  };

  guessing::StaticSamplerConfig s_config;
  s_config.seed = 1901;
  guessing::StaticSampler static_sampler(*model_, *encoder_, s_config);
  const GuessStream got_static = attack(static_sampler);

  guessing::DynamicSamplerConfig d_config =
      guessing::table1_parameters(budget);
  d_config.smoothing.enabled = true;
  d_config.seed = 1903;
  guessing::DynamicSampler dynamic_sampler(*model_, *encoder_, d_config);
  const GuessStream got_dynamic = attack(dynamic_sampler);

  guessing::DynamicSamplerConfig plain_config =
      guessing::table1_parameters(budget);
  plain_config.seed = 1905;
  guessing::DynamicSampler plain_dynamic_sampler(*model_, *encoder_,
                                                 plain_config);
  const GuessStream got_plain_dynamic = attack(plain_dynamic_sampler);

  const GuessStream want_static{8, 27571, 0xc1a73d113304364fULL};
  const GuessStream want_dynamic{68, 22362, 0x19725a84da1e5174ULL};
  const GuessStream want_plain_dynamic{30, 21290, 0xd071008a9c94692dULL};
  if (testing::flow_bits_pinned()) {
    EXPECT_EQ(got_static.matched, want_static.matched);
    EXPECT_EQ(got_static.unique, want_static.unique);
    EXPECT_EQ(got_static.digest, want_static.digest)
        << "computed 0x" << std::hex << got_static.digest;
    EXPECT_EQ(got_dynamic.matched, want_dynamic.matched);
    EXPECT_EQ(got_dynamic.unique, want_dynamic.unique);
    EXPECT_EQ(got_dynamic.digest, want_dynamic.digest)
        << "computed 0x" << std::hex << got_dynamic.digest;
    EXPECT_EQ(got_plain_dynamic.matched, want_plain_dynamic.matched);
    EXPECT_EQ(got_plain_dynamic.unique, want_plain_dynamic.unique);
    EXPECT_EQ(got_plain_dynamic.digest, want_plain_dynamic.digest)
        << "computed 0x" << std::hex << got_plain_dynamic.digest;
    return;
  }
  std::printf("kernel %s, glibc %s: guess streams not pinned here\n",
              nn::gemm::kernel_name(), testing::libc_version().c_str());
  for (const auto* stream :
       {&got_static, &got_dynamic, &got_plain_dynamic}) {
    std::printf("  matched %zu, unique %zu, digest 0x%016" PRIx64 "\n",
                stream->matched, stream->unique, stream->digest);
  }
  EXPECT_GE(got_static.matched, 3u);
  EXPECT_GE(got_dynamic.matched, got_static.matched);
}

TEST_F(EndToEndTest, GaussianSmoothingIncreasesUniqueGuesses) {
  // Force dynamic sampling into the collision-prone regime of §III-C:
  // pre-register mixture components (as if matches had occurred) with a
  // tiny sigma, so every subsequent draw concentrates near a few latent
  // points. GS must then recover uniqueness (Table III's mechanism).
  guessing::HashSetMatcher matcher(split_->test_unique);

  auto run_with = [&](bool gs) {
    guessing::DynamicSamplerConfig config;
    config.alpha = 0;
    config.sigma = 0.01;
    config.gamma = 1000000;
    config.seed = 11;
    config.batch_size = 1024;
    config.smoothing.enabled = gs;
    guessing::DynamicSampler sampler(*model_, *encoder_, config);
    // Seed the mixture with a few latents from an initial batch.
    std::vector<std::string> warmup;
    sampler.generate(1024, warmup);
    for (std::size_t i = 0; i < 4; ++i) sampler.on_match(i * 7, warmup[i * 7]);
    return run_attack(sampler, matcher, 20000, 1024);
  };
  const auto without_gs = run_with(false);
  const auto with_gs = run_with(true);
  EXPECT_GT(with_gs.final().unique, without_gs.final().unique);
}

TEST_F(EndToEndTest, MatchedPasswordsAreReallyInTargetSet) {
  const auto targets = fresh_target_set();
  guessing::HashSetMatcher matcher(targets);
  guessing::StaticSamplerConfig config;
  config.seed = 13;
  guessing::StaticSampler sampler(*model_, *encoder_, config);
  const auto result = run_attack(sampler, matcher, 30000);
  EXPECT_FALSE(result.matched_passwords.empty());
  const std::unordered_set<std::string> target_set(targets.begin(),
                                                   targets.end());
  for (const auto& p : result.matched_passwords) {
    EXPECT_TRUE(target_set.count(p)) << p;
  }
}

TEST_F(EndToEndTest, InterpolationEndpointsRoundTrip) {
  const auto path =
      guessing::interpolate(*model_, *encoder_, "jimmy91", "123456", 10);
  EXPECT_EQ(path.front(), "jimmy91");
  EXPECT_EQ(path.back(), "123456");
  for (const auto& p : path) {
    EXPECT_TRUE(encoder_->alphabet().validates(p));
  }
}

TEST_F(EndToEndTest, MarkovBaselineAlsoFindsMatches) {
  baselines::MarkovModel markov(encoder_->alphabet(), 2, 8);
  markov.train(split_->train);
  baselines::MarkovSampler sampler(markov);
  guessing::HashSetMatcher matcher(fresh_target_set());
  const auto result = run_attack(sampler, matcher, 20000);
  EXPECT_GT(result.final().matched, 0u);
}

TEST_F(EndToEndTest, FleetCheckpointSaveAndThawResumeBitwise) {
  // Freeze/thaw smoke over the real pipeline: a two-scenario fleet of
  // trained StaticSamplers is frozen to an on-disk CheckpointStore
  // mid-run, thawed into a fresh scheduler with fresh sampler instances,
  // and must finish with metrics bitwise equal to a never-interrupted run.
  guessing::HashSetMatcher matcher(fresh_target_set());
  const std::uint64_t seeds[] = {301, 302};
  const std::size_t budget = 20000;

  auto make_sampler = [&](std::uint64_t seed) {
    guessing::StaticSamplerConfig config;
    config.seed = seed;
    return std::make_unique<guessing::StaticSampler>(*model_, *encoder_,
                                                     config);
  };
  auto session_config = [&] {
    guessing::SessionConfig config;
    config.budget = budget;
    config.chunk_size = 1024;
    config.checkpoints = {budget};
    return config;
  };
  auto build = [&](guessing::AttackScheduler& scheduler,
                   std::vector<std::unique_ptr<guessing::StaticSampler>>&
                       samplers,
                   bool register_scenarios) {
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < 2; ++i) {
      samplers.push_back(make_sampler(seeds[i]));
      if (!register_scenarios) continue;
      guessing::ScenarioOptions options;
      options.name = "static-" + std::to_string(seeds[i]);
      options.session = session_config();
      ids.push_back(scheduler.add_scenario(*samplers.back(), matcher,
                                           options));
    }
    return ids;
  };

  guessing::SchedulerConfig fleet;
  fleet.slice_chunks = 2;

  // Uninterrupted reference fleet.
  guessing::AttackScheduler reference(fleet);
  std::vector<std::unique_ptr<guessing::StaticSampler>> reference_samplers;
  const auto ids = build(reference, reference_samplers, true);
  while (reference.step()) {
  }

  // Interrupted fleet: freeze to disk mid-run, drop it, thaw, finish.
  const std::string base = ::testing::TempDir() + "pf_e2e_fleet.ckpt";
  util::CheckpointStore store(base);
  store.clear();
  {
    guessing::AttackScheduler scheduler(fleet);
    std::vector<std::unique_ptr<guessing::StaticSampler>> samplers;
    build(scheduler, samplers, true);
    for (int i = 0; i < 7; ++i) ASSERT_TRUE(scheduler.step());
    store.save(
        [&](std::ostream& out) { scheduler.save_state(out); });
  }

  guessing::AttackScheduler thawed(fleet);
  std::vector<std::unique_ptr<guessing::StaticSampler>> thawed_samplers;
  build(thawed, thawed_samplers, false);
  ASSERT_TRUE(store.load([&](std::istream& in) {
    thawed.load_state(
        in, [&](const guessing::AttackScheduler::ScenarioThawInfo& info)
                -> guessing::AttackScheduler::ScenarioBinding {
          return {*thawed_samplers.at(info.index), matcher};
        });
  }));
  const auto resumed = thawed.aggregate();
  EXPECT_GT(resumed.produced, 0u);
  while (thawed.step()) {
  }

  for (const std::size_t id : ids) {
    PF_EXPECT_SAME_RUN(reference.result(id), thawed.result(id));
  }
  store.clear();
}

TEST_F(EndToEndTest, CheckpointMetricsMonotoneInBudget) {
  guessing::HashSetMatcher matcher(fresh_target_set());
  guessing::StaticSamplerConfig config;
  config.seed = 17;
  guessing::StaticSampler sampler(*model_, *encoder_, config);
  const auto result = run_attack(sampler, matcher, 10000);
  for (std::size_t i = 1; i < result.checkpoints.size(); ++i) {
    EXPECT_GE(result.checkpoints[i].matched,
              result.checkpoints[i - 1].matched);
  }
}

}  // namespace
}  // namespace passflow
