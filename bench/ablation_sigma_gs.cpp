// Ablation: the sigma / collision trade-off of §III-C.
//
// Sweeps the dynamic-sampling mixture sigma with GS on and off, reporting
// unique and matched counts. Expected shape:
//   * small sigma, no GS  -> few unique (collisions), matches limited;
//   * small sigma, GS     -> uniqueness restored, most matches;
//   * large sigma         -> many unique but fewer matches (search too wide).
#include "bench_support.hpp"
#include "guessing/dynamic_sampler.hpp"

namespace pf = passflow;
using pf::bench::BenchEnv;
using pf::bench::BenchScale;

int main(int argc, char** argv) {
  pf::util::Flags flags(argc, argv);
  const BenchScale scale = pf::bench::scale_from_flags(flags);

  BenchEnv env(scale);
  pf::guessing::HashSetMatcher matcher(env.split.test_unique);
  const std::vector<std::string> flow_train = env.flow_train_subset(scale);
  auto model = pf::bench::train_flow(env, scale, {}, &flow_train);

  const std::vector<double> sigmas = {0.05, 0.10, 0.15, 0.30};
  const std::size_t budget =
      std::min<std::size_t>(scale.budgets.back(), 100000);

  pf::util::TextTable table({"sigma", "GS", "Unique", "Matched"});
  pf::util::CsvWriter csv(pf::bench::output_path("ablation_sigma_gs.csv"),
                          {"sigma", "gs", "unique", "matched"});
  for (double sigma : sigmas) {
    for (bool gs : {false, true}) {
      pf::guessing::DynamicSamplerConfig config;
      config.alpha = 1;
      config.sigma = sigma;
      config.gamma = 4;
      config.seed = scale.seed + 90;
      config.smoothing.enabled = gs;
      pf::guessing::DynamicSampler sampler(*model, env.encoder, config);
      pf::guessing::SessionConfig session_config;
      session_config.budget = budget;
      pf::guessing::AttackSession session(sampler, matcher, session_config);
      session.run();
      const auto result = session.result();
      table.add_row(
          {pf::bench::format_percent(sigma), gs ? "on" : "off",
           pf::util::with_thousands(
               static_cast<long long>(result.final().unique)),
           pf::util::with_thousands(
               static_cast<long long>(result.final().matched))});
      csv.write_row({std::to_string(sigma), gs ? "1" : "0",
                     std::to_string(result.final().unique),
                     std::to_string(result.final().matched)});
    }
  }

  std::printf("\nAblation: dynamic-sampling sigma vs collisions, with and "
              "without Gaussian Smoothing (%zu guesses, scale=%s)\n\n",
              budget, scale.name.c_str());
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nCSV written to %s\n", csv.path().c_str());
  return 0;
}
