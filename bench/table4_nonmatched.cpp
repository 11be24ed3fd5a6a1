// Table IV: qualitative samples generated by PassFlow that did NOT match the
// test set. The paper's point: even misses look like human passwords — they
// would plausibly match *other* leaks. We print the samples plus quantitative
// human-likeness evidence: the Markov (order-2) log-probability of PassFlow's
// non-matches vs uniformly random strings of the same lengths.
#include <cmath>

#include "bench_support.hpp"
#include "guessing/static_sampler.hpp"

namespace pf = passflow;
using pf::bench::BenchEnv;
using pf::bench::BenchScale;

int main(int argc, char** argv) {
  pf::util::Flags flags(argc, argv);
  BenchScale scale = pf::bench::scale_from_flags(flags);

  BenchEnv env(scale);
  pf::guessing::HashSetMatcher matcher(env.split.test_unique);

  const std::vector<std::string> flow_train = env.flow_train_subset(scale);
  auto model = pf::bench::train_flow(env, scale, {}, &flow_train);

  pf::guessing::StaticSamplerConfig sampler_config;
  sampler_config.seed = scale.seed + 30;
  pf::guessing::StaticSampler sampler(*model, env.encoder, sampler_config);
  pf::guessing::SessionConfig session_config;
  session_config.budget = std::min<std::size_t>(scale.budgets.back(), 100000);
  session_config.non_matched_samples = 36;
  pf::guessing::AttackSession session(sampler, matcher, session_config);
  session.run();
  const auto result = session.result();

  std::printf("\nTable IV: PassFlow samples that did not match the test set "
              "(scale=%s)\n\n", scale.name.c_str());
  pf::util::CsvWriter csv(pf::bench::output_path("table4_nonmatched.csv"),
                          {"sample"});
  int col = 0;
  for (const auto& sample : result.sample_non_matched) {
    std::printf("%-12s", sample.c_str());
    csv.write_row({sample});
    if (++col % 4 == 0) std::printf("\n");
  }
  if (col % 4 != 0) std::printf("\n");

  // Human-likeness proxy: a Markov model trained on real (synthetic-corpus)
  // passwords should assign far higher likelihood to PassFlow's non-matches
  // than to uniform random strings.
  pf::baselines::MarkovModel markov(env.encoder.alphabet(), 2,
                                    scale.max_length);
  markov.train(env.split.train);

  double non_matched_lp = 0.0;
  std::size_t counted = 0;
  for (const auto& sample : result.sample_non_matched) {
    const double lp = markov.log_prob(sample);
    if (std::isfinite(lp)) {
      non_matched_lp += lp;
      ++counted;
    }
  }
  non_matched_lp /= std::max<std::size_t>(1, counted);

  pf::util::Rng rng(scale.seed + 31);
  double random_lp = 0.0;
  std::size_t random_counted = 0;
  for (const auto& sample : result.sample_non_matched) {
    std::string random_string;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      random_string += env.encoder.alphabet().char_of(
          1 + rng.uniform_index(env.encoder.alphabet().size() - 1));
    }
    const double lp = markov.log_prob(random_string);
    if (std::isfinite(lp)) {
      random_lp += lp;
      ++random_counted;
    }
  }
  random_lp /= std::max<std::size_t>(1, random_counted);

  std::printf("\nHuman-likeness (mean order-2 Markov log-prob):\n");
  std::printf("  PassFlow non-matched samples: %.2f\n", non_matched_lp);
  std::printf("  uniform random strings:       %.2f\n", random_lp);
  std::printf("  (higher is more human-like; PassFlow should be clearly "
              "higher)\n");
  std::printf("\nCSV written to %s\n", csv.path().c_str());
  return 0;
}
