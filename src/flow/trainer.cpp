#include "flow/trainer.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.hpp"
#include "util/timer.hpp"

namespace passflow::flow {

namespace {
// Snapshot/restore of parameter values for best-epoch selection.
std::vector<nn::Matrix> snapshot(const std::vector<nn::Param*>& params) {
  std::vector<nn::Matrix> values;
  values.reserve(params.size());
  for (const nn::Param* p : params) values.push_back(p->value());
  return values;
}

void restore(const std::vector<nn::Param*>& params,
             const std::vector<nn::Matrix>& values) {
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->assign(values[i]);
  }
}
}  // namespace

Trainer::Trainer(FlowModel& model, TrainConfig config)
    : model_(model), config_(config) {}

TrainResult Trainer::train(
    const std::vector<std::string>& passwords, const data::Encoder& encoder,
    const std::function<void(const EpochStats&)>& on_epoch) {
  util::Rng rng(config_.seed);

  // Hold out a validation slice for best-epoch selection.
  std::vector<std::string> train_split = passwords;
  std::vector<std::string> val_split;
  if (config_.validation_fraction > 0.0 && passwords.size() >= 20) {
    const auto perm = rng.permutation(passwords.size());
    const std::size_t val_count = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(passwords.size()) *
                                    config_.validation_fraction));
    train_split.clear();
    for (std::size_t i = 0; i < passwords.size(); ++i) {
      if (i < val_count) {
        val_split.push_back(passwords[perm[i]]);
      } else {
        train_split.push_back(passwords[perm[i]]);
      }
    }
  }

  data::Dataset dataset(std::move(train_split), encoder);
  nn::Matrix val_batch;
  if (!val_split.empty()) val_batch = encoder.encode_batch(val_split);

  nn::AdamConfig adam_config;
  adam_config.learning_rate = config_.learning_rate;
  adam_config.clip_norm = config_.clip_norm;
  adam_config.weight_decay = config_.weight_decay;
  const auto params = model_.parameters();
  nn::Adam optimizer(params, adam_config);

  TrainResult result;
  result.best_validation_nll = std::numeric_limits<double>::infinity();
  std::vector<nn::Matrix> best_params;

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    util::Timer timer;
    if (epoch > 0 && config_.lr_decay != 1.0) {
      optimizer.set_learning_rate(optimizer.learning_rate() *
                                  config_.lr_decay);
    }
    dataset.start_epoch(rng);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    nn::Matrix batch;
    while (dataset.next_batch(config_.batch_size, rng, batch) > 0) {
      model_.zero_grad();
      const double loss = model_.nll_backward(batch, config_.pool);
      optimizer.step();
      epoch_loss += loss;
      ++batches;
      if (config_.log_every > 0 && batches % config_.log_every == 0) {
        PF_LOG_DEBUG << "epoch " << epoch << " batch " << batches
                     << " nll=" << loss;
      }
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_nll = batches > 0 ? epoch_loss / static_cast<double>(batches)
                                  : 0.0;
    stats.validation_nll = val_batch.rows() > 0
                               ? model_.nll(val_batch, config_.pool)
                               : stats.train_nll;
    stats.seconds = timer.elapsed_seconds();
    result.history.push_back(stats);

    if (stats.validation_nll < result.best_validation_nll) {
      result.best_validation_nll = stats.validation_nll;
      result.best_epoch = epoch;
      best_params = snapshot(params);
    }

    if (config_.log_every > 0) {
      PF_LOG_INFO << "epoch " << epoch << ": train_nll=" << stats.train_nll
                  << " val_nll=" << stats.validation_nll << " ("
                  << util::format_duration(stats.seconds) << ")";
    }
    if (on_epoch) on_epoch(stats);
  }

  if (!best_params.empty()) restore(params, best_params);
  return result;
}

}  // namespace passflow::flow
