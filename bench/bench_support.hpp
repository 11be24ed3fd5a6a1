// Shared experiment environment for the bench binaries.
//
// Every bench accepts --scale={smoke,default,paper} plus overrides, builds
// the same seeded synthetic-RockYou split (the leaked RockYou list cannot
// be shipped; see data/synthetic_rockyou.hpp) and trains models with
// architecture ratios matching §IV-D. "paper" uses the paper's exact
// hyper-parameters (18x256x2 couplings, 300K train, 400 epochs, 10^8
// guesses) and exists for completeness — it is not expected to run in
// CI-sized time budgets.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cwae.hpp"
#include "baselines/gan.hpp"
#include "baselines/markov.hpp"
#include "data/synthetic_rockyou.hpp"
#include "flow/trainer.hpp"
#include "guessing/session.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace passflow::bench {

struct BenchScale {
  std::string name = "default";
  std::size_t corpus_size = 120000;
  std::size_t train_size = 24000;
  std::size_t max_length = 8;  // paper uses 10; 8 keeps CPU training sane
  // Reduced pattern support (data::focused_corpus_config), so a
  // CPU-trained flow reaches the matchable part of the distribution.
  bool focused_corpus = true;
  // Flow architecture (paper: 18 couplings, hidden 256, 2 blocks).
  std::size_t couplings = 10;
  std::size_t hidden = 128;
  std::size_t residual_blocks = 2;
  std::size_t epochs = 40;
  std::size_t batch_size = 512;  // paper batch size
  double lr_decay = 0.98;
  // Fraction of the training partition the *flow* sees: the paper's
  // headline "orders of magnitude less data" claim (§V-A). Baselines train
  // on the full partition.
  std::size_t flow_train_divisor = 4;
  // Guess budgets reported in the tables (paper: 1e4..1e8). 3e5 is the
  // largest budget that keeps the full bench suite within ~30 CPU-minutes;
  // pass --budget to extend.
  std::vector<std::size_t> budgets = {10000, 100000, 300000};
  // Baseline training epochs.
  std::size_t baseline_epochs = 10;
  std::uint64_t seed = 20220614;  // DSN 2022 :-)
};

inline BenchScale make_scale(const std::string& name) {
  BenchScale scale;
  scale.name = name;
  if (name == "smoke") {
    scale.corpus_size = 20000;
    scale.train_size = 5000;
    scale.couplings = 6;
    scale.hidden = 48;
    scale.residual_blocks = 1;
    scale.epochs = 5;
    scale.budgets = {1000, 10000};
    scale.baseline_epochs = 3;
  } else if (name == "default") {
    // defaults above
  } else if (name == "paper") {
    scale.corpus_size = 36000000;
    scale.train_size = 23500000;
    scale.max_length = 10;
    scale.focused_corpus = false;
    scale.couplings = 18;
    scale.hidden = 256;
    scale.residual_blocks = 2;
    scale.epochs = 400;
    scale.lr_decay = 1.0;
    scale.flow_train_divisor = 78;  // 300K of 23.5M
    scale.budgets = {10000, 100000, 1000000, 10000000, 100000000};
    scale.baseline_epochs = 100;
  } else {
    throw std::invalid_argument("unknown --scale: " + name);
  }
  return scale;
}

inline BenchScale scale_from_flags(const util::Flags& flags) {
  BenchScale scale = make_scale(flags.get_string("scale", "default"));
  scale.corpus_size = static_cast<std::size_t>(
      flags.get_int("corpus", static_cast<long long>(scale.corpus_size)));
  scale.train_size = static_cast<std::size_t>(
      flags.get_int("train-size", static_cast<long long>(scale.train_size)));
  scale.couplings = static_cast<std::size_t>(
      flags.get_int("couplings", static_cast<long long>(scale.couplings)));
  scale.hidden = static_cast<std::size_t>(
      flags.get_int("hidden", static_cast<long long>(scale.hidden)));
  scale.epochs = static_cast<std::size_t>(
      flags.get_int("epochs", static_cast<long long>(scale.epochs)));
  scale.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<long long>(scale.seed)));
  if (flags.has("budget")) {
    scale.budgets = {static_cast<std::size_t>(flags.get_int("budget", 10000))};
  }
  return scale;
}

// Corpus + split + encoder, shared by all benches for a given scale/seed.
struct BenchEnv {
  explicit BenchEnv(const BenchScale& scale)
      : encoder(scale.focused_corpus ? data::Alphabet::compact()
                                     : data::Alphabet::standard(),
                scale.max_length) {
    data::CorpusConfig corpus_config =
        scale.focused_corpus ? data::focused_corpus_config(scale.max_length)
                             : data::CorpusConfig{};
    corpus_config.max_length = scale.max_length;
    data::SyntheticRockyou generator(corpus_config, scale.seed);
    util::Timer timer;
    const auto corpus = generator.generate(scale.corpus_size);
    util::Rng rng(scale.seed + 1);
    split = data::make_rockyou_style_split(corpus, scale.train_size, rng);
    PF_LOG_INFO << "corpus: " << corpus.size() << " raw, train "
                << split.train.size() << ", test "
                << split.test_unique.size() << " unique ("
                << util::format_duration(timer.elapsed_seconds()) << ")";
  }

  // The subsample the flow trains on (paper trains PassFlow on ~1/78 of the
  // data the baselines use, §V-A).
  std::vector<std::string> flow_train_subset(const BenchScale& scale) const {
    const std::size_t count = std::max<std::size_t>(
        1000, split.train.size() / std::max<std::size_t>(
                                       1, scale.flow_train_divisor));
    return {split.train.begin(),
            split.train.begin() + std::min(count, split.train.size())};
  }

  data::Encoder encoder;
  data::DatasetSplit split;
};

inline flow::FlowConfig flow_config_for(const BenchScale& scale,
                                        flow::MaskConfig mask = {}) {
  flow::FlowConfig config;
  config.dim = scale.max_length;
  config.num_couplings = scale.couplings;
  config.hidden = scale.hidden;
  config.residual_blocks = scale.residual_blocks;
  config.mask = mask;
  return config;
}

inline std::unique_ptr<flow::FlowModel> train_flow(
    const BenchEnv& env, const BenchScale& scale,
    flow::MaskConfig mask = {},
    const std::vector<std::string>* train_override = nullptr) {
  util::Rng rng(scale.seed + 2);
  auto model =
      std::make_unique<flow::FlowModel>(flow_config_for(scale, mask), rng);
  flow::TrainConfig train_config;
  train_config.epochs = scale.epochs;
  train_config.batch_size = scale.batch_size;
  train_config.lr_decay = scale.lr_decay;
  train_config.log_every = 0;
  train_config.seed = scale.seed + 3;
  flow::Trainer trainer(*model, train_config);
  util::Timer timer;
  const auto result = trainer.train(
      train_override ? *train_override : env.split.train, env.encoder);
  PF_LOG_INFO << "flow[" << flow::scheme_name(mask) << "] trained: best nll="
              << result.best_validation_nll << " @epoch " << result.best_epoch
              << " (" << util::format_duration(timer.elapsed_seconds()) << ")";
  return model;
}

inline std::unique_ptr<baselines::Cwae> train_cwae(const BenchEnv& env,
                                                   const BenchScale& scale) {
  util::Rng rng(scale.seed + 4);
  baselines::CwaeConfig config;
  config.epochs = scale.baseline_epochs;
  auto model = std::make_unique<baselines::Cwae>(env.encoder, config, rng);
  util::Timer timer;
  const double loss = model->train(env.split.train);
  PF_LOG_INFO << "cwae trained: loss=" << loss << " ("
              << util::format_duration(timer.elapsed_seconds()) << ")";
  return model;
}

inline std::unique_ptr<baselines::Gan> train_gan(
    const BenchEnv& env, const BenchScale& scale, baselines::GanConfig config) {
  util::Rng rng(scale.seed + 5);
  config.epochs = scale.baseline_epochs;
  auto model = std::make_unique<baselines::Gan>(env.encoder, config, rng);
  util::Timer timer;
  model->train(env.split.train);
  PF_LOG_INFO << config.label << " trained ("
              << util::format_duration(timer.elapsed_seconds()) << ")";
  return model;
}

// Runs one generator across the full budget schedule, reporting metrics at
// each budget.
inline guessing::RunResult run_schedule(guessing::GuessGenerator& generator,
                                        const guessing::Matcher& matcher,
                                        const BenchScale& scale) {
  guessing::SessionConfig config;
  config.budget = scale.budgets.back();
  config.checkpoints = scale.budgets;
  // Parallel matching plus pipelined generation (a no-op for feedback
  // generators); metrics stay identical to a serial run.
  config.pool = &util::shared_pool();
  config.pipeline_depth = 1;
  util::Timer timer;
  guessing::AttackSession session(generator, matcher, config);
  session.run();
  auto result = session.result();
  PF_LOG_INFO << generator.name() << ": " << result.final().matched
              << " matched / " << result.final().unique << " unique in "
              << util::format_duration(timer.elapsed_seconds());
  return result;
}

inline std::string format_percent(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  return buf;
}

// Output directory for CSVs (created by the build; fall back to cwd).
inline std::string output_path(const std::string& filename) {
  return filename;  // benches run from the build tree; keep outputs local
}

}  // namespace passflow::bench
