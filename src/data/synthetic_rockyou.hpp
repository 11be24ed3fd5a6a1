// Synthetic RockYou-like password corpus, the stand-in for the leaked
// RockYou list the paper trains and tests on.
//
// The real RockYou leak cannot be shipped; this generator produces a corpus
// with the statistical properties the PassFlow experiments rely on:
//   * a Zipf-distributed head of very common passwords,
//   * dictionary words / first names with digit, year and symbol suffixes,
//   * keyboard walks, leet mutations, pure-digit strings,
//   * a long random-ish tail,
// sampled *with multiplicity*, so the dedup + train/test-intersection
// protocol of §IV-D behaves as it does on the real data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace passflow::data {

struct CorpusConfig {
  std::size_t max_length = 10;  // paper setting (§IV-D)
  std::size_t min_length = 4;
  // Mixture weights over pattern families; normalized internally.
  double weight_common = 0.16;     // head of very common passwords
  double weight_word_suffix = 0.26;
  double weight_name_suffix = 0.20;
  double weight_digits = 0.10;
  double weight_keyboard = 0.07;
  double weight_leet = 0.09;
  double weight_interleaved = 0.07;  // word with digits spliced in
  double weight_random_tail = 0.05;
  // Zipf exponents: higher = heavier head.
  double zipf_common = 1.05;
  double zipf_word = 0.7;
  // Support limiters: cap how many entries of each word list are used
  // (0 = all). Smaller pools concentrate the distribution, putting the
  // guessing experiments into a regime reachable by CPU-scale training
  // while preserving the heavy-tailed pattern structure.
  std::size_t name_pool = 0;
  std::size_t word_pool = 0;
  std::size_t year_span = 51;  // years sampled from [1960, 1960+span)
  bool lowercase_digits_only = false;  // restrict output to [a-z0-9]
};

// Preset tuned for CPU-scale benches: reduced pattern support, compact
// symbol set. The rank-frequency shape stays RockYou-like.
CorpusConfig focused_corpus_config(std::size_t max_length = 8);

class SyntheticRockyou {
 public:
  explicit SyntheticRockyou(CorpusConfig config = {},
                            std::uint64_t seed = 0xC0FFEE);

  const CorpusConfig& config() const { return config_; }

  // Draws one password (with natural duplication across calls).
  std::string sample(util::Rng& rng) const;
  std::string sample();  // uses the internal RNG

  // Draws `n` passwords with multiplicity.
  std::vector<std::string> generate(std::size_t n);

 private:
  std::string sample_common(util::Rng& rng) const;
  std::string sample_word_suffix(util::Rng& rng) const;
  std::string sample_name_suffix(util::Rng& rng) const;
  std::string sample_digits(util::Rng& rng) const;
  std::string sample_keyboard(util::Rng& rng) const;
  std::string sample_leet(util::Rng& rng) const;
  std::string sample_interleaved(util::Rng& rng) const;
  std::string sample_random_tail(util::Rng& rng) const;
  std::string append_suffix(std::string stem, util::Rng& rng) const;
  std::string clamp_length(std::string password, util::Rng& rng) const;

  CorpusConfig config_;
  util::Rng rng_;
  util::ZipfSampler common_ranks_;
  util::ZipfSampler word_ranks_;
  util::ZipfSampler name_ranks_;
  std::vector<double> family_weights_;
};

// The paper's dataset protocol (§IV-D): split the raw corpus 80/20, subsample
// `train_size` instances from the 80% for training, and build a deduplicated
// test set from the 20% with all training passwords removed.
struct DatasetSplit {
  std::vector<std::string> train;        // with multiplicity, size=train_size
  std::vector<std::string> test_unique;  // deduped, disjoint from train
};

DatasetSplit make_rockyou_style_split(const std::vector<std::string>& corpus,
                                      std::size_t train_size,
                                      util::Rng& rng);

}  // namespace passflow::data
