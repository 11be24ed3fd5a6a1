// Figure 4: marginal performance improvement (in matches over the test set)
// of PassFlow models trained on increasing dataset sizes, relative to a
// baseline model trained on the smallest size.
//
// The paper uses baseline 50K and sizes {1e5, 3e5, 7e5, 2e6}: improvement
// jumps sharply, peaks at 300K (6x base) and plateaus. We keep the same
// ratios {2x, 6x, 14x, 40x} at the configured scale. The property to
// reproduce is the shape: sharp initial rise, then a plateau.
#include "bench_support.hpp"
#include "guessing/static_sampler.hpp"

namespace pf = passflow;
using pf::bench::BenchEnv;
using pf::bench::BenchScale;

int main(int argc, char** argv) {
  pf::util::Flags flags(argc, argv);
  BenchScale scale = pf::bench::scale_from_flags(flags);
  // Five trainings dominate this bench; shorter training still shows the
  // rise-then-plateau shape.
  scale.epochs = std::min<std::size_t>(scale.epochs, 20);

  BenchEnv env(scale);
  pf::guessing::HashSetMatcher matcher(env.split.test_unique);

  // Paper ratios relative to the 50K baseline.
  const std::size_t base = std::max<std::size_t>(
      400, static_cast<std::size_t>(
               flags.get_int("base-size",
                             static_cast<long long>(
                                 env.split.train.size() / 60))));
  const std::vector<std::size_t> ratios = {2, 6, 14, 40};

  const std::size_t budget =
      std::min<std::size_t>(scale.budgets.back(), 100000);
  auto evaluate = [&](std::size_t train_size) {
    train_size = std::min(train_size, env.split.train.size());
    std::vector<std::string> subset(env.split.train.begin(),
                                    env.split.train.begin() + train_size);
    auto model = pf::bench::train_flow(env, scale, {}, &subset);
    pf::guessing::StaticSamplerConfig config;
    config.seed = scale.seed + 70;
    pf::guessing::StaticSampler sampler(*model, env.encoder, config);
    pf::guessing::SessionConfig session_config;
    session_config.budget = budget;
    pf::guessing::AttackSession session(sampler, matcher, session_config);
    session.run();
    return session.result().final().matched;
  };

  const std::size_t baseline_matches = evaluate(base);
  PF_LOG_INFO << "baseline (" << base << " samples): " << baseline_matches
              << " matches";

  pf::util::TextTable table({"Train size", "Matched",
                             "Marginal improvement (%)"});
  pf::util::CsvWriter csv(pf::bench::output_path("fig4_trainsize.csv"),
                          {"train_size", "matched", "improvement_percent"});
  for (std::size_t ratio : ratios) {
    const std::size_t size = base * ratio;
    const std::size_t matched = evaluate(size);
    const double improvement =
        baseline_matches > 0
            ? 100.0 *
                  (static_cast<double>(matched) -
                   static_cast<double>(baseline_matches)) /
                  static_cast<double>(baseline_matches)
            : 0.0;
    table.add_row({pf::util::with_thousands(static_cast<long long>(size)),
                   pf::util::with_thousands(static_cast<long long>(matched)),
                   pf::bench::format_percent(improvement)});
    csv.write_row({std::to_string(size), std::to_string(matched),
                   pf::bench::format_percent(improvement)});
  }

  std::printf("\nFigure 4: marginal improvement vs training-set size "
              "(baseline %zu samples, %zu guesses, scale=%s)\n\n",
              base, budget, scale.name.c_str());
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nCSV written to %s\n", csv.path().c_str());
  return 0;
}
