// GAN baselines: PassGAN (Hitaj et al. [22]) and the improved GAN of
// Pasquini et al. [33], §VI-A/B.
//
// Substitution note: the originals are Wasserstein GANs with
// gradient penalty; GP needs double backprop, which a manual-backprop stack
// cannot provide cheaply. We train a non-saturating GAN instead and keep the
// piece of Pasquini et al. that actually matters for sample quality on this
// data — additive smoothing noise on the (real and generated) password
// representations fed to the discriminator — plus discriminator weight decay
// for stability. PassGAN is modeled as the same framework with a shallower
// generator and no representation smoothing, mirroring the capability gap
// between [22] and [33].
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "data/encoder.hpp"
#include "guessing/generator.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"

namespace passflow::baselines {

struct GanConfig {
  std::size_t noise_dim = 64;
  std::vector<std::size_t> generator_hidden = {256, 256, 256};
  std::vector<std::size_t> discriminator_hidden = {256, 256};
  double smoothing_noise = 0.02;  // Pasquini-style representation smoothing
  double learning_rate = 2e-4;
  double discriminator_weight_decay = 1e-4;
  std::size_t batch_size = 256;
  std::size_t epochs = 10;
  std::size_t discriminator_steps = 1;  // D updates per G update
  std::uint64_t seed = 31;
  std::string label = "GAN";
};

// PassGAN-flavored configuration: shallower nets, no smoothing.
GanConfig passgan_config();
// Pasquini-flavored configuration: deeper nets + smoothing noise.
GanConfig pasquini_gan_config();

class Gan {
 public:
  Gan(const data::Encoder& encoder, GanConfig config, util::Rng& rng);

  struct EpochLosses {
    double discriminator = 0.0;
    double generator = 0.0;
  };

  // Adversarial training on raw password strings; returns per-epoch losses.
  std::vector<EpochLosses> train(const std::vector<std::string>& passwords);

  // Maps noise to feature vectors.
  nn::Matrix generate_features(const nn::Matrix& noise);

  std::size_t noise_dim() const { return config_.noise_dim; }
  const GanConfig& config() const { return config_; }

 private:
  double discriminator_step(const nn::Matrix& real, util::Rng& rng);
  double generator_step(std::size_t count, util::Rng& rng);
  nn::Matrix sample_noise(std::size_t count, util::Rng& rng);

  const data::Encoder* encoder_;
  GanConfig config_;
  nn::Mlp generator_;
  nn::Mlp discriminator_;
  std::unique_ptr<nn::Adam> g_optimizer_;
  std::unique_ptr<nn::Adam> d_optimizer_;
};

class GanSampler : public guessing::GuessGenerator {
 public:
  GanSampler(Gan& model, const data::Encoder& encoder,
             std::uint64_t seed = 37);

  void generate(std::size_t n, std::vector<std::string>& out) override;
  std::string name() const override { return model_->config().label; }

  bool supports_state_serialization() const override { return true; }
  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

 private:
  Gan* model_;
  const data::Encoder* encoder_;
  util::Rng rng_;
};

}  // namespace passflow::baselines
