// Table II: % of test-set passwords matched vs number of guesses, for
// PassGAN, GAN (Pasquini et al.), CWAE and the three PassFlow variants.
//
// The paper reports budgets 10^4..10^8 on the real RockYou split; this bench
// runs the same protocol on the synthetic RockYou-like split at the
// configured scale (see bench_support.hpp). The property under test is the
// *ordering*:
//   PassFlow-Dynamic+GS > GAN-Pasquini > PassFlow-Dynamic > PassGAN
//   > PassFlow-Static > CWAE   (at the largest budget)
// and PassFlow trains on a fraction of the data the baselines see.
#include "bench_support.hpp"
#include "guessing/dynamic_sampler.hpp"
#include "guessing/static_sampler.hpp"

namespace pf = passflow;
using pf::bench::BenchEnv;
using pf::bench::BenchScale;

namespace {

struct MethodRow {
  std::string name;
  std::vector<double> matched_percent;
};

MethodRow row_from(const std::string& name,
                   const pf::guessing::RunResult& result,
                   const BenchScale& scale) {
  MethodRow row{name, {}};
  for (std::size_t budget : scale.budgets) {
    row.matched_percent.push_back(result.at(budget).matched_percent);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  pf::util::Flags flags(argc, argv);
  BenchScale scale = pf::bench::scale_from_flags(flags);
  // PassFlow trains on a much smaller subsample (§V-A: 300K of 23.5M);
  // baselines see the full training split.
  scale.flow_train_divisor = static_cast<std::size_t>(
      flags.get_int("flow-train-divisor",
                    static_cast<long long>(scale.flow_train_divisor)));

  BenchEnv env(scale);
  pf::guessing::HashSetMatcher matcher(env.split.test_unique);

  const std::vector<std::string> flow_train = env.flow_train_subset(scale);
  PF_LOG_INFO << "flow train subset: " << flow_train.size()
              << " of " << env.split.train.size();

  auto model = pf::bench::train_flow(env, scale, {}, &flow_train);
  auto cwae = pf::bench::train_cwae(env, scale);
  auto passgan =
      pf::bench::train_gan(env, scale, pf::baselines::passgan_config());
  auto pasquini =
      pf::bench::train_gan(env, scale, pf::baselines::pasquini_gan_config());

  std::vector<MethodRow> rows;

  {
    pf::baselines::GanSampler sampler(*passgan, env.encoder, scale.seed + 10);
    rows.push_back(row_from("PassGAN (Hitaj et al.)",
                            run_schedule(sampler, matcher, scale), scale));
  }
  {
    pf::baselines::GanSampler sampler(*pasquini, env.encoder, scale.seed + 11);
    rows.push_back(row_from("GAN (Pasquini et al.)",
                            run_schedule(sampler, matcher, scale), scale));
  }
  {
    pf::baselines::CwaeSampler sampler(*cwae, env.encoder, scale.seed + 12);
    rows.push_back(row_from("CWAE (Pasquini et al.)",
                            run_schedule(sampler, matcher, scale), scale));
  }
  {
    pf::guessing::StaticSamplerConfig config;
    config.seed = scale.seed + 13;
    config.pool = &pf::util::shared_pool();
    pf::guessing::StaticSampler sampler(*model, env.encoder, config);
    rows.push_back(row_from("PassFlow-Static",
                            run_schedule(sampler, matcher, scale), scale));
  }
  {
    auto config = pf::guessing::table1_parameters(scale.budgets.back());
    config.seed = scale.seed + 14;
    config.pool = &pf::util::shared_pool();
    pf::guessing::DynamicSampler sampler(*model, env.encoder, config);
    rows.push_back(row_from("PassFlow-Dynamic",
                            run_schedule(sampler, matcher, scale), scale));
  }
  {
    auto config = pf::guessing::table1_parameters(scale.budgets.back());
    config.seed = scale.seed + 15;
    config.pool = &pf::util::shared_pool();
    config.smoothing.enabled = true;
    pf::guessing::DynamicSampler sampler(*model, env.encoder, config);
    rows.push_back(row_from("PassFlow-Dynamic+GS",
                            run_schedule(sampler, matcher, scale), scale));
  }

  std::vector<std::string> header = {"Method"};
  for (std::size_t budget : scale.budgets) {
    header.push_back(std::to_string(budget));
  }
  pf::util::TextTable table(header);
  pf::util::CsvWriter csv(pf::bench::output_path("table2_guessing.csv"),
                          header);
  for (const auto& row : rows) {
    std::vector<std::string> cells = {row.name};
    for (double percent : row.matched_percent) {
      cells.push_back(pf::bench::format_percent(percent));
    }
    table.add_row(cells);
    csv.write_row(cells);
  }

  std::printf("\nTable II: %% of matched passwords over the synthetic "
              "RockYou test set (%zu unique)\n",
              matcher.test_set_size());
  std::printf("(scale=%s; flow trained on %zu samples, baselines on %zu)\n\n",
              scale.name.c_str(), flow_train.size(), env.split.train.size());
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nCSV written to %s\n", csv.path().c_str());
  return 0;
}
