// The three attack workloads.
//
//   attack-static   paper-size flow, StaticSampler on the pool, pipelined
//                   AttackSession, exact tracking, in-memory matcher over
//                   the paper-protocol test split of a standard corpus.
//   attack-dynamic  the checked-in trained e2e flow, PassFlow-Dynamic+GS
//                   with Table I parameters on the serial feedback path,
//                   against a deduplicated fresh leak of focused draws.
//   attack-rules    RuleEngine (default ruleset over a wordlist distilled
//                   from the training split) through the pipelined
//                   session against the attack-static test set.
//
// One run: make the seeded inputs, launch the program a few times, then
// repeat the fixed-budget attack until --seconds have passed, relaunching
// before every repetition (setup_s is the median over all launches). Each
// repetition starts from a fresh generator with the same seed and must
// reproduce the same metrics. Outside the timed windows the
// matched and distinct counts are recounted from an independent replay of
// the same guess stream.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baselines/rules.hpp"
#include "bench.hpp"
#include "data/alphabet.hpp"
#include "data/synthetic_rockyou.hpp"
#include "guessing/dynamic_sampler.hpp"
#include "guessing/session.hpp"
#include "guessing/unique_tracker.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace pf = passflow;
namespace g = passflow::guessing;

namespace {

constexpr std::size_t kChunk = 2048;  // one sampler batch per session chunk
constexpr std::size_t kFirstLaunches = 3;  // set-ups before the first rep

enum class Kind { kStatic, kDynamic, kRules };

struct AttackPlan {
  Kind kind = Kind::kStatic;
  std::size_t budget = 0;
  std::size_t pipeline_depth = 2;
  // Independent generator seeds per run; reps cycle through them and
  // quality_pct is their mean. Dynamic sampling's matched % swings with
  // the trajectory a seed's first matches set, so one seed per run would
  // leave the quality gate as wide as that swing.
  std::size_t streams = 1;
  // Inputs.
  std::size_t corpus_size = 0;  // standard corpus (static, rules)
  std::size_t train_size = 0;
  std::size_t wordlist_size = 0;  // rules
  std::size_t leak_draws = 0;     // dynamic fresh leak
};

AttackPlan make_plan(const RunArgs& args) {
  AttackPlan plan;
  const bool tiny = args.tiny;
  if (args.workload == "attack-static") {
    plan.kind = Kind::kStatic;
    plan.budget = tiny ? 4 * kChunk : 16 * kChunk;
  } else if (args.workload == "attack-dynamic") {
    plan.kind = Kind::kDynamic;
    plan.budget = tiny ? 4 * kChunk : 96 * kChunk;
    plan.pipeline_depth = 0;  // feedback generators run serially anyway
    plan.streams = 4;
    plan.leak_draws = tiny ? 5000 : 200000;
  } else {
    plan.kind = Kind::kRules;
    plan.wordlist_size = tiny ? 1000 : 37500;
    // 80 default rules x wordlist: ~3M guesses at full size.
    plan.budget = pf::baselines::default_ruleset().size() * plan.wordlist_size;
  }
  plan.corpus_size = tiny ? 30000 : 1600000;
  plan.train_size = tiny ? 12000 : 640000;
  return plan;
}

// What the program receives: generated inputs only.
struct AttackInputs {
  std::vector<std::string> targets;   // matcher keys
  std::vector<std::string> wordlist;  // attack-rules
  std::string checkpoint;             // attack-dynamic
  std::vector<std::uint64_t> stream_seeds;  // generator seed per stream
};

AttackInputs make_inputs(const AttackPlan& plan, const RunArgs& args) {
  AttackInputs inputs;
  for (std::size_t k = 0; k < plan.streams; ++k) {
    inputs.stream_seeds.push_back(derive_seed(args.seed, k == 0 ? 4 : 100 + k));
  }
  if (plan.kind == Kind::kDynamic) {
    inputs.checkpoint = args.root + "/tests/fixtures/e2e_flow.ckpt";
    if (!std::filesystem::exists(inputs.checkpoint)) {
      throw std::runtime_error("missing trained model " + inputs.checkpoint);
    }
    pf::data::SyntheticRockyou leak(pf::data::focused_corpus_config(8),
                                    derive_seed(args.seed, 3));
    inputs.targets = leak.generate(plan.leak_draws);
    std::sort(inputs.targets.begin(), inputs.targets.end());
    inputs.targets.erase(
        std::unique(inputs.targets.begin(), inputs.targets.end()),
        inputs.targets.end());
    return inputs;
  }
  // Standard-preset corpus and the paper's split protocol (section IV-D);
  // attack-rules attacks the same test set attack-static does.
  pf::data::SyntheticRockyou corpus_source(pf::data::CorpusConfig{},
                                           derive_seed(args.seed, 1));
  const std::vector<std::string> corpus =
      corpus_source.generate(plan.corpus_size);
  pf::util::Rng split_rng(derive_seed(args.seed, 2));
  pf::data::DatasetSplit split =
      pf::data::make_rockyou_style_split(corpus, plan.train_size, split_rng);
  inputs.targets = std::move(split.test_unique);
  if (plan.kind == Kind::kRules) {
    inputs.wordlist =
        pf::baselines::wordlist_from_corpus(split.train, plan.wordlist_size);
    if (inputs.wordlist.size() < plan.wordlist_size) {
      throw std::runtime_error("training split has too few distinct words");
    }
  }
  return inputs;
}

// The program objects set-up constructs.
struct AttackProgram {
  std::unique_ptr<pf::data::Encoder> encoder;
  std::unique_ptr<pf::flow::FlowModel> model;
  std::vector<pf::baselines::ManglingRule> rules;
  std::unique_ptr<g::Matcher> matcher;
  std::unique_ptr<g::GuessGenerator> generator;
};

pf::flow::FlowConfig e2e_flow_config() {
  pf::flow::FlowConfig config;  // tests/fixtures/e2e_flow.ckpt
  config.dim = 8;
  config.num_couplings = 8;
  config.hidden = 96;
  config.residual_blocks = 2;
  return config;
}

g::StaticSamplerConfig static_config(std::uint64_t seed) {
  g::StaticSamplerConfig config;
  config.sigma = 1.0;
  config.batch_size = kChunk;
  config.seed = seed;
  config.pool = &pf::util::shared_pool();
  return config;
}

std::unique_ptr<g::GuessGenerator> make_generator(const AttackPlan& plan,
                                                  const AttackInputs& inputs,
                                                  const AttackProgram& program,
                                                  std::size_t stream = 0) {
  const std::uint64_t seed = inputs.stream_seeds[stream];
  switch (plan.kind) {
    case Kind::kStatic:
      return std::make_unique<g::StaticSampler>(
          *program.model, *program.encoder, static_config(seed));
    case Kind::kDynamic: {
      g::DynamicSamplerConfig config = g::table1_parameters(plan.budget);
      config.smoothing.enabled = true;  // PassFlow-Dynamic+GS
      config.batch_size = kChunk;
      config.seed = seed;
      config.pool = &pf::util::shared_pool();
      return std::make_unique<g::DynamicSampler>(*program.model,
                                                 *program.encoder, config);
    }
    case Kind::kRules:
      return std::make_unique<pf::baselines::RuleEngine>(inputs.wordlist,
                                                         program.rules, 10);
  }
  return nullptr;
}

// Launch-to-ready: model construction (or load), matcher build, sampler
// construction. Inputs already exist; nothing here generates them.
AttackProgram set_up(const AttackPlan& plan, const AttackInputs& inputs,
                     SetupTimes& times) {
  AttackProgram program;
  const double t0 = now_s();
  {
    Tracer::Scope span(tracer(), "setup.model", 0);
    if (plan.kind == Kind::kStatic) {
      program.encoder = std::make_unique<pf::data::Encoder>(
          pf::data::Alphabet::standard(), 10);
      pf::util::Rng rng(kPaperWeightSeed);
      program.model =
          std::make_unique<pf::flow::FlowModel>(paper_flow_config(), rng);
    } else if (plan.kind == Kind::kDynamic) {
      program.encoder = std::make_unique<pf::data::Encoder>(
          pf::data::Alphabet::compact(), 8);
      pf::util::Rng rng(kPaperWeightSeed);
      program.model =
          std::make_unique<pf::flow::FlowModel>(e2e_flow_config(), rng);
      program.model->load(inputs.checkpoint);
    } else {
      program.rules = pf::baselines::default_ruleset();
    }
  }
  const double t1 = now_s();
  {
    Tracer::Scope span(tracer(), "setup.matcher", 0);
    program.matcher = std::make_unique<g::HashSetMatcher>(inputs.targets);
  }
  const double t2 = now_s();
  {
    Tracer::Scope span(tracer(), "setup.server", 0);
    program.generator = make_generator(plan, inputs, program);
  }
  const double t3 = now_s();
  times = {t1 - t0, t2 - t1, t3 - t2, t3 - t0};
  return program;
}

struct RepResult {
  double seconds = 0.0;
  std::vector<double> step_s;
  std::size_t chunks = 0;
  std::size_t failed_chunks = 0;
  std::size_t matched = 0;
  std::size_t unique = 0;
  double matched_percent = 0.0;
  double peak_mb = 0.0;  // VmHWM after the rep, reset just before it
  std::size_t stream = 0;
  std::string error;
};

std::size_t chunk_count(std::size_t budget) {
  return (budget + kChunk - 1) / kChunk;
}

// Step spans carry request id rid_base + chunk ordinal + 1.
RepResult run_rep(const AttackPlan& plan, g::GuessGenerator& generator,
                  const g::Matcher& matcher, std::uint64_t rid_base = 0) {
  g::SessionConfig config;
  config.budget = plan.budget;
  config.checkpoints = {plan.budget};
  config.chunk_size = kChunk;
  config.unique_tracking = g::UniqueTracking::kExact;
  config.pipeline_depth = plan.pipeline_depth;
  config.pool = &pf::util::shared_pool();

  RepResult rep;
  rep.chunks = chunk_count(plan.budget);
  const double t0 = now_s();
  g::AttackSession session(generator, matcher, config);
  std::size_t ordinal = 0;
  try {
    while (!session.finished()) {
      const double start = now_s();
      {
        Tracer::Scope span(tracer(), "guessing.step", rid_base + ordinal + 1);
        session.step();
      }
      rep.step_s.push_back(now_s() - start);
      ++ordinal;
    }
    rep.seconds = now_s() - t0;
    const g::RunResult result = session.result();
    const g::Checkpoint& final = result.final();
    rep.matched = final.matched;
    rep.unique = final.unique;
    rep.matched_percent = final.matched_percent;
  } catch (const std::exception& e) {
    rep.seconds = now_s() - t0;
    rep.error = e.what();
    rep.failed_chunks = rep.chunks - std::min(rep.chunks, ordinal);
  }
  return rep;
}

// The guess stream replayed outside the session: a fresh generator with
// the same seed, fed match feedback by a plain loop, counted with its own
// containers (no Matcher, no UniqueTracker).
struct Reference {
  std::vector<std::string> stream;
  std::size_t distinct = 0;
  std::size_t matched = 0;
  std::uint64_t digest = 0;
};

Reference make_reference(const AttackPlan& plan, const AttackInputs& inputs,
                         const AttackProgram& program, std::size_t stream) {
  Reference ref;
  auto generator = make_generator(plan, inputs, program, stream);
  const std::unordered_set<std::string> targets(inputs.targets.begin(),
                                                inputs.targets.end());
  std::unordered_set<std::string> matched;
  ref.stream.reserve(plan.budget);
  std::vector<std::string> batch;
  while (ref.stream.size() < plan.budget) {
    batch.clear();
    generator->generate(std::min(kChunk, plan.budget - ref.stream.size()),
                        batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (targets.count(batch[i]) != 0 && matched.insert(batch[i]).second) {
        generator->on_match(i, batch[i]);
      }
    }
    for (std::string& guess : batch) ref.stream.push_back(std::move(guess));
  }
  for (const std::string& guess : ref.stream) {
    ref.digest = fold_digest(ref.digest, guess);
  }
  std::vector<const std::string*> order;
  order.reserve(ref.stream.size());
  for (const std::string& guess : ref.stream) order.push_back(&guess);
  std::sort(order.begin(), order.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || *order[i] != *order[i - 1]) ++ref.distinct;
  }
  ref.matched = matched.size();
  return ref;
}

double quality(const AttackPlan& plan, const RepResult& rep) {
  // attack-static's untrained weights match nothing; its quality is the
  // distinct share of the budget, which collapsed numerics would lower.
  return plan.kind == Kind::kStatic
             ? 100.0 * static_cast<double>(rep.unique) /
                   static_cast<double>(plan.budget)
             : rep.matched_percent;
}

double rep_rate(const AttackPlan& plan, const RepResult& rep) {
  return static_cast<double>(plan.budget) / rep.seconds;
}

// Reps in [first, end) that are not the warm-up: rep 0 is dropped from
// the medians whenever at least three reps ran.
std::size_t first_measured(std::size_t reps) { return reps >= 3 ? 1 : 0; }

// Tears the running program down and launches it again, timed.
void relaunch(const AttackPlan& plan, const AttackInputs& inputs,
              AttackProgram& program, std::vector<SetupTimes>& setups) {
  program = AttackProgram();
  SetupTimes times;
  program = set_up(plan, inputs, times);
  setups.push_back(times);
}

// Untraced reps until `seconds` have passed (at least `min_reps`). With
// `setups` non-null the program is relaunched after every rep, so set-up
// is sampled across the whole run rather than in one burst (host speed on
// a shared machine shifts on a scale of seconds), always from the same
// warm heap as the launches before the first rep.
std::vector<RepResult> run_reps(const AttackPlan& plan,
                                const AttackInputs& inputs,
                                AttackProgram& program, double seconds,
                                std::size_t min_reps,
                                std::vector<SetupTimes>* setups) {
  std::vector<RepResult> reps;
  const double start = now_s();
  min_reps = std::max(min_reps, plan.streams);
  while (reps.size() < min_reps || now_s() - start < seconds) {
    // A fresh generator per rep, so every rep of a stream replays it.
    const std::size_t stream = reps.size() % plan.streams;
    auto generator = stream == 0 && program.generator != nullptr
                         ? std::move(program.generator)
                         : make_generator(plan, inputs, program, stream);
    reset_peak_rss();
    reps.push_back(run_rep(plan, *generator, *program.matcher));
    reps.back().peak_mb = peak_rss_mb();
    reps.back().stream = stream;
    generator.reset();
    if (setups != nullptr) relaunch(plan, inputs, program, *setups);
    // Hand every thread arena's freed pages back, so each rep starts from
    // the same resident state.
    malloc_trim(0);
    if (!reps.back().error.empty()) break;
  }
  return reps;
}

}  // namespace

int run_attack(const RunArgs& args) {
  const AttackPlan plan = make_plan(args);
  const double inputs_start = now_s();
  const AttackInputs inputs = make_inputs(plan, args);
  const double inputs_s = now_s() - inputs_start;
  const bool rss_reset = reset_peak_rss();

  // ---- set-up: complete launches, median reported; more follow
  // between the reps --------------------------------------------------------
  tracer().set_enabled(args.trace);
  std::vector<SetupTimes> setup_parts;
  AttackProgram program;
  const std::size_t setups = args.trace ? 1 : kFirstLaunches;
  for (std::size_t i = 0; i < setups; ++i) {
    relaunch(plan, inputs, program, setup_parts);
  }
  tracer().set_enabled(false);

  // ---- work -------------------------------------------------------------
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<RepResult> reps =
      run_reps(plan, inputs, program, window, args.tiny ? 2 : 3,
               args.trace ? nullptr : &setup_parts);
  std::vector<double> setup_samples;
  for (const SetupTimes& times : setup_parts) {
    setup_samples.push_back(times.total_s);
  }

  // Traced run: the attack again through the decorators with spans on,
  // for the other half of the window. Chunk request ids run on across the
  // traced reps; per-layer figures are per attack.
  std::vector<RepResult> traced;
  std::size_t feedback_calls = 0;
  std::size_t generate_calls = 0;
  TracedMatcher traced_matcher(*program.matcher, /*calls_are_requests=*/true);
  if (args.trace) {
    tracer().set_enabled(true);
    const double start = now_s();
    while (traced.empty() || now_s() - start < window) {
      const std::size_t stream = traced.size() % plan.streams;
      auto generator = make_generator(plan, inputs, program, stream);
      TracedGenerator traced_generator(*generator,
                                       traced.size() * chunk_count(plan.budget));
      traced.push_back(run_rep(plan, traced_generator, traced_matcher,
                               traced.size() * chunk_count(plan.budget)));
      traced.back().stream = stream;
      feedback_calls += traced_generator.feedback_calls();
      generate_calls += traced_generator.calls();
      malloc_trim(0);
      if (!traced.back().error.empty()) break;
    }
    tracer().set_enabled(false);
  }
  // ---- checks (outside every timed window) ------------------------------
  std::vector<std::string> problems;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const std::vector<RepResult>* list : {&reps, &traced}) {
    for (const RepResult& rep : *list) {
      attempted += rep.chunks;
      failed += rep.failed_chunks;
      if (!rep.error.empty()) problems.push_back("attack failed: " + rep.error);
    }
  }
  // One independent recount per stream; only stream 0 keeps its guesses
  // (the traced run replays them).
  std::vector<Reference> refs;
  std::uint64_t digest = 0;
  for (std::size_t k = 0; k < plan.streams; ++k) {
    refs.push_back(make_reference(plan, inputs, program, k));
    digest = fold_digest(digest, std::to_string(refs.back().digest));
    if (k > 0) refs.back().stream = std::vector<std::string>();
  }
  const Reference& ref = refs.front();
  const auto check_rep = [&](const RepResult& rep, const char* label) {
    const Reference& ref = refs[rep.stream];
    if (rep.matched != ref.matched || rep.unique != ref.distinct) {
      problems.push_back(std::string(label) + " reported " +
                         std::to_string(rep.matched) + " matched / " +
                         std::to_string(rep.unique) +
                         " distinct; independent recount " +
                         std::to_string(ref.matched) + " / " +
                         std::to_string(ref.distinct));
    }
  };
  for (const RepResult& rep : reps) check_rep(rep, "rep");
  for (const RepResult& rep : traced) check_rep(rep, "traced rep");

  const std::size_t first = first_measured(reps.size());
  // Per-rep figures, median over the measured reps: one rep that meets an
  // OS hiccup cannot move a run's tail.
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> peaks;
  std::size_t steps = 0;
  for (std::size_t i = first; i < reps.size(); ++i) {
    rates.push_back(rep_rate(plan, reps[i]));
    p50s.push_back(quantile(reps[i].step_s, 0.50) * 1e3);
    p99s.push_back(quantile(reps[i].step_s, 0.99) * 1e3);
    peaks.push_back(reps[i].peak_mb);
    steps += reps[i].step_s.size();
  }
  const double work = median(rates);
  // Mean quality over the streams, from each stream's first rep.
  std::vector<double> stream_quality;
  for (std::size_t k = 0; k < plan.streams; ++k) {
    stream_quality.push_back(quality(plan, reps[k]));
  }
  double quality_pct = 0.0;
  for (const double q : stream_quality) quality_pct += q / static_cast<double>(plan.streams);

  Values values;
  JsonObject detail;
  const std::uint64_t matcher_size = program.matcher->test_set_size();
  detail.text("workload", args.workload)
      .number("inputs_s", inputs_s)
      .integer("budget", static_cast<long long>(plan.budget))
      .integer("chunk", static_cast<long long>(kChunk))
      .integer("pipeline_depth", static_cast<long long>(plan.pipeline_depth))
      .integer("reps", static_cast<long long>(reps.size()))
      .integer("measured_reps", static_cast<long long>(reps.size() - first))
      .integer("setups", static_cast<long long>(setup_samples.size()))
      .integer("latency_samples", static_cast<long long>(steps))
      .integer("latency_samples_per_rep",
               static_cast<long long>(chunk_count(plan.budget)))
      .integer("targets", static_cast<long long>(matcher_size))
      .integer("streams", static_cast<long long>(plan.streams))
      .raw("quality_per_stream", json_array(stream_quality))
      .integer("matched", static_cast<long long>(ref.matched))
      .integer("distinct", static_cast<long long>(ref.distinct))
      .text("stream_digest", std::to_string(digest))
      .boolean("peak_rss_reset", rss_reset);
  std::vector<double> all_rates;
  for (const RepResult& rep : reps) all_rates.push_back(rep_rate(plan, rep));
  detail.raw("rep_work_per_s", json_array(all_rates));

  if (!args.trace) {
    detail.raw("setup_samples_s", json_array(setup_samples));
    values = {
        {"work_per_s", work},
        {"latency_p50_ms", median(p50s)},
        {"latency_p99_ms", median(p99s)},
        {"quality_pct", quality_pct},
        {"ok_pct", attempted == 0 ? 0.0
                                  : 100.0 * static_cast<double>(attempted - failed) /
                                        static_cast<double>(attempted)},
        {"peak_rss_mb", median(peaks)},
        {"setup_s", median(setup_samples)},
    };
  } else {
    // ---- traced run: replays and the per-layer split ---------------------
    tracer().set_enabled(true);
    // Tracker replay over the recorded stream, chunk by chunk.
    auto tracker = g::make_unique_tracker(g::UniqueTracking::kExact);
    double track_s = 0.0;
    std::vector<std::string> chunk;
    for (std::size_t c = 0; c * kChunk < ref.stream.size(); ++c) {
      const auto begin = ref.stream.begin() + static_cast<std::ptrdiff_t>(c * kChunk);
      const auto end = ref.stream.begin() +
                       static_cast<std::ptrdiff_t>(
                           std::min(ref.stream.size(), (c + 1) * kChunk));
      chunk.assign(begin, end);
      const double t0 = now_s();
      {
        Tracer::Scope span(tracer(), "guessing.track", 0);
        tracker->add_batch(chunk, &pf::util::shared_pool());
      }
      track_s += now_s() - t0;
    }
    if (tracker->count() != ref.distinct) {
      problems.push_back("tracker replay counted " +
                         std::to_string(tracker->count()) + " distinct, " +
                         "recount " + std::to_string(ref.distinct));
    }

    FlowReplay flow;
    ForwardReplay forward;
    double flops = 0.0;
    if (program.model != nullptr) {
      // attack-static replays its own stream; attack-dynamic replays the
      // static prior at its 8x96 shape against a fresh StaticSampler.
      const g::StaticSamplerConfig config =
          static_config(inputs.stream_seeds.front());
      std::vector<std::string> expected;
      if (plan.kind == Kind::kStatic) {
        expected = ref.stream;
      } else {
        g::StaticSampler sampler(*program.model, *program.encoder, config);
        sampler.generate(std::min<std::size_t>(plan.budget, 16 * kChunk),
                         expected);
      }
      flow = replay_static_sampler(*program.model, *program.encoder, config,
                                   expected);
      if (!flow.bitwise_equal) {
        problems.push_back("flow replay diverged from StaticSampler output");
      }
      forward = replay_forward(*program.model, *program.encoder, expected,
                               &pf::util::shared_pool(), args.tiny);
      if (!forward.bitwise_equal) {
        problems.push_back("log_prob_batch rows differ batched vs alone");
      }
      flops = flops_per_row(*program.model);
    }
    tracer().set_enabled(false);

    const std::vector<Span> spans = tracer().spans();

    std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
    for (const Span& span : spans) {
      if (span.parent != 0) children[span.parent].push_back(&span);
    }
    // Sums over the traced reps, divided by their count: per attack.
    const double n = static_cast<double>(traced.size());
    double generate_s = 0.0;
    double match_s = 0.0;
    double step_wait_s = 0.0;
    for (const Span& span : spans) {
      const std::string_view name = span.name;
      const double d = span.end - span.start;
      if (name == "guessing.generate") generate_s += d / n;
      if (name == "guessing.match") match_s += d / n;
      if (name == "guessing.step") {
        const auto it = children.find(span.id);
        step_wait_s +=
            (it == children.end() ? d : self_time(span, it->second)) / n;
      }
    }
    std::vector<double> traced_rates;
    double traced_wall = 0.0;
    for (const RepResult& rep : traced) {
      traced_rates.push_back(rep_rate(plan, rep));
      traced_wall += rep.seconds / n;
    }
    const double traced_work = median(traced_rates);
    const double probes = static_cast<double>(traced_matcher.probes());
    const double hits = static_cast<double>(traced_matcher.hits());
    const double per_row_generate =
        generate_s / static_cast<double>(plan.budget);
    const double per_row_inverse =
        flow.rows == 0 ? 0.0 : flow.inverse_s / static_cast<double>(flow.rows);
    values = {
        {"setup.model_s", setup_parts.front().model_s},
        {"setup.matcher_s", setup_parts.front().matcher_s},
        {"setup.server_s", setup_parts.front().server_s},
        {"guessing.generate_s", generate_s},
        {"guessing.generate_calls", static_cast<double>(generate_calls) / n},
        {"guessing.latent_draw_s", flow.latent_s},
        {"flow.inverse_s", flow.inverse_s},
        {"flow.inverse_rows_per_s",
         flow.inverse_s > 0 ? static_cast<double>(flow.rows) / flow.inverse_s : 0.0},
        {"flow.inverse_share_pct",
         plan.kind == Kind::kStatic && per_row_generate > 0
             ? 100.0 * per_row_inverse / per_row_generate
             : 0.0},
        {"data.decode_s", flow.decode_s},
        {"nn.inverse_gflop_per_s",
         flow.inverse_s > 0
             ? static_cast<double>(flow.rows) * flops / flow.inverse_s / 1e9
             : 0.0},
        {"guessing.match_s", match_s},
        {"guessing.match_probes_per_s",
         match_s > 0 ? probes / n / match_s : 0.0},
        {"guessing.match_hit_pct", probes > 0 ? 100.0 * hits / probes : 0.0},
        {"guessing.track_s", track_s},
        {"guessing.track_inserts_per_s",
         track_s > 0 ? static_cast<double>(ref.stream.size()) / track_s : 0.0},
        {"guessing.track_mb",
         static_cast<double>(tracker->memory_bytes()) / (1024.0 * 1024.0)},
        {"guessing.step_wait_s", step_wait_s},
        {"guessing.overlap_pct",
         traced_wall > 0 ? 100.0 * (generate_s + match_s) / traced_wall : 0.0},
        {"guessing.distinct_pct",
         100.0 * static_cast<double>(ref.distinct) /
             static_cast<double>(plan.budget)},
        {"guessing.feedback_calls", static_cast<double>(feedback_calls) / n},
        {"serve.batches", 0.0},
        {"serve.batch_mean", 0.0},
        {"serve.batch_mean_saturated", 0.0},
        {"serve.refused", 0.0},
        {"serve.queue_wait_ms_p50", 0.0},
        {"serve.service_ms_p50", 0.0},
        {"serve.membership_s", 0.0},
        {"flow.forward_ms.rows1", forward.rows1_ms},
        {"flow.forward_ms.rows8", forward.rows8_ms},
        {"flow.forward_ms.rows64", forward.rows64_ms},
        {"serve.score_ms.rows1", 0.0},
        {"serve.score_ms.rows64", 0.0},
        {"serve.guess_lookup_us", 0.0},
        {"nn.weight_bytes_per_row",
         program.model != nullptr ? 4.0 * flops / 2.0 / static_cast<double>(kChunk)
                                  : 0.0},
        {"dist.send_us_p50", 0.0},
        {"dist.recv_us_p50", 0.0},
        {"dist.frames", 0.0},
        {"dist.bytes", 0.0},
        {"trace.overhead_ratio", traced_work / work},
        {"trace.spans", static_cast<double>(spans.size())},
    };
    const std::string trace_problem = emit_trace(args, spans);
    if (!trace_problem.empty()) problems.push_back("trace: " + trace_problem);
    detail.number("untraced_work_per_s", work)
        .number("traced_work_per_s", traced_work)
        .integer("traced_reps", static_cast<long long>(traced.size()))
        .text("flops_note",
              "nn.inverse_gflop_per_s = rows x 2 x parameters / "
              "flow.inverse_s: computed, not counted")
        .integer("replay_rows", static_cast<long long>(flow.rows));
  }

  return finish_run(args, detail, problems, attempted, failed, values);
}

}  // namespace e2e
