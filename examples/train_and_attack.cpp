// Full attack pipeline: train PassFlow on a leaked subset and run the
// Dynamic Sampling + Gaussian Smoothing attack against a held-out target set
// — the paper's headline experiment as a single CLI, driven through the
// streaming AttackSession engine.
//
//   ./examples/train_and_attack [--guesses 100000] [--epochs 10]
//                               [--train-size 10000] [--strategy dynamic+gs]
//                               [--pipeline 4] [--sketch-unique false]
//                               [--state attack.state]
//                               [--scenarios static@0.8,static@1.0,dynamic+gs]
//                               [--deadline 30] [--rate-cap 0,50000,0]
//                               [--fleet-state fleet.ckpt]
//                               [--checkpoint-every 30]
//                               [--build-index targets.pfidx]
//                               [--index targets.pfidx]
//                               [--coordinator PORT | --worker HOST:PORT]
//                               [--shard-splits N]
//                               [--serve PORT] [--serve-batch K]
//
// Strategies: static | dynamic | dynamic+gs (Table II rows). --pipeline N
// keeps N chunks in flight (feedback-free strategies only; dynamic runs
// serially by construction). --sketch-unique bounds unique-tracking memory
// with the HLL sketch. --state freezes the session after every progress
// report and resumes from the file if it exists, so a long attack survives
// a restart (static strategy only — re-run with the same flags).
//
// --scenarios runs a comma-separated sweep of strategies concurrently as
// one fleet through AttackScheduler: every scenario gets its own sampler
// but they all share one matcher and one worker-pool budget. static@SIGMA
// sets the static sampler's prior stddev, so "static@0.6,static@1.0,
// static@1.4" reproduces a sigma ablation in a single run. Ignores
// --strategy/--state. --deadline and --rate-cap attach per-scenario QoS in
// fleet mode: each takes a comma-separated list matched positionally to
// --scenarios (a single value broadcasts to every scenario; 0 = none).
// Deadlines are soft wall-clock seconds — a scenario past its deadline is
// scheduled with boosted effective weight; rate caps are guesses/second
// enforced by per-scenario token buckets.
//
// --fleet-state makes the fleet crash-safe: the whole scheduler (every
// scenario's stream, the fair-share clocks, QoS ledgers) is frozen to a
// rotated, CRC-framed CheckpointStore at <path>.gNNNNNNNN every
// --checkpoint-every seconds, and SIGINT/SIGTERM drains in-flight slices
// and saves once more before exiting. Restarting with the same flags thaws
// the newest intact generation and resumes where the fleet left off
// (saved QoS ledgers win over the --deadline/--rate-cap flags on resume).
// The checkpoints are deleted when the fleet finishes cleanly.
//
// --build-index writes the target set to a disk index at the given path
// and attacks through the mmap-backed MappedMatcher instead of the
// in-memory hash set; --index attacks through an existing index file
// (e.g. one built offline from a multi-GB leak with IndexBuilder), so the
// target corpus never has to fit in RAM. Metrics are identical either way.
//
// --coordinator PORT serves the --scenarios sweep to worker processes over
// TCP instead of driving it in-process: each scenario — or, with
// --shard-splits N over a disk index, each contiguous shard range of its
// matcher — is assigned to a connected worker, session checkpoints stream
// back over the wire, and a worker that dies mid-scenario is reassigned
// from its last checkpoint onto a survivor. --worker HOST:PORT runs the
// other half: it trains the same model, dials the coordinator and serves
// assignments until Shutdown. Launch workers with the coordinator's exact
// flags — generators are rebuilt from spec strings, so differing
// --epochs/--train-size/--guesses would silently attack with a different
// model. Per-scenario metrics are bitwise identical to the in-process
// --scenarios run (timing aside); the coordinator itself never trains.
//
// --serve PORT skips the attack and instead runs the online
// credential-screening service: a long-lived StrengthServer on the dist
// transport answering batched StrengthQuery messages with per-candidate
// log-likelihood, Monte-Carlo guess numbers and membership in the same
// matcher the attack would have probed. --serve-batch K bounds how many
// candidates the server coalesces into one forward pass. SIGINT/SIGTERM
// stop the service and print its stats. Port 0 picks an ephemeral port.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "data/synthetic_rockyou.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "flow/trainer.hpp"
#include "guessing/dynamic_sampler.hpp"
#include "guessing/mapped_matcher.hpp"
#include "guessing/scheduler.hpp"
#include "guessing/session.hpp"
#include "guessing/static_sampler.hpp"
#include "serve/strength_server.hpp"
#include "util/checkpoint.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace pf = passflow;

namespace {
// SIGINT/SIGTERM request a drain-and-save instead of killing the fleet;
// sig_atomic_t is the only state a signal handler may touch.
volatile std::sig_atomic_t g_stop_requested = 0;
extern "C" void handle_stop_signal(int) { g_stop_requested = 1; }

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> items;
  std::stringstream stream(list);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

// Grammar of one --scenarios spec: static[@SIGMA] | dynamic | dynamic+gs.
// These specs double as the distributed fleet's generator_spec wire
// strings, so the grammar lives here once: the in-process fleet, the
// coordinator's pre-flight validation (a typo must fail before any worker
// sees it and dies on it) and every worker's ScenarioFactory agree by
// construction. sigma is -1 when the spec does not carry one.
bool validate_scenario_spec(const std::string& spec, double* sigma,
                            std::string* error) {
  *sigma = -1.0;
  if (spec == "static" || spec == "dynamic" || spec == "dynamic+gs") {
    return true;
  }
  if (spec.rfind("static@", 0) == 0) {
    try {
      *sigma = std::stod(spec.substr(7));
      return true;
    } catch (const std::exception&) {
      *error = "bad sigma in scenario spec '" + spec + "'";
      return false;
    }
  }
  *error = "unknown scenario spec '" + spec + "'";
  return false;
}

// Builds the sampler for one spec. `position` is the scenario's index in
// the fleet — which is also its distributed scenario_id — folded into the
// seed so identical-sigma scenarios still explore different latent draws
// AND a worker rebuilding scenario #i gets the bit-identical generator the
// in-process fleet would have used. That equivalence is what makes the
// distributed metrics match the single-process run exactly.
std::unique_ptr<pf::guessing::GuessGenerator> make_sampler(
    const std::string& spec, std::size_t position,
    const pf::flow::FlowModel& model, const pf::data::Encoder& encoder,
    std::size_t guesses) {
  double sigma = -1.0;
  std::string error;
  if (!validate_scenario_spec(spec, &sigma, &error)) {
    throw std::invalid_argument(error);
  }
  if (spec.rfind("static", 0) == 0) {
    pf::guessing::StaticSamplerConfig sampler_config;
    if (sigma >= 0.0) sampler_config.sigma = sigma;
    sampler_config.seed = 11 + position;
    return std::make_unique<pf::guessing::StaticSampler>(model, encoder,
                                                         sampler_config);
  }
  auto sampler_config = pf::guessing::table1_parameters(guesses);
  sampler_config.smoothing.enabled = (spec == "dynamic+gs");
  sampler_config.seed = 13 + position;
  return std::make_unique<pf::guessing::DynamicSampler>(model, encoder,
                                                        sampler_config);
}
}  // namespace

int main(int argc, char** argv) {
  pf::util::Flags flags(argc, argv);
  const auto guesses =
      static_cast<std::size_t>(flags.get_int("guesses", 100000));
  const auto epochs = static_cast<std::size_t>(flags.get_int("epochs", 10));
  const auto train_size =
      static_cast<std::size_t>(flags.get_int("train-size", 10000));
  const std::string strategy = flags.get_string("strategy", "dynamic+gs");
  const auto pipeline_depth =
      static_cast<std::size_t>(flags.get_int("pipeline", 4));
  const bool sketch_unique = flags.get_bool("sketch-unique", false);
  const std::string state_path = flags.get_string("state", "");
  const std::string scenarios_flag = flags.get_string("scenarios", "");
  const std::string deadline_flag = flags.get_string("deadline", "");
  const std::string rate_cap_flag = flags.get_string("rate-cap", "");
  const std::string fleet_state_path = flags.get_string("fleet-state", "");
  const double checkpoint_every =
      static_cast<double>(flags.get_int("checkpoint-every", 30));
  const std::string index_path = flags.get_string("index", "");
  const std::string build_index_path = flags.get_string("build-index", "");
  const int coordinator_port = flags.get_int("coordinator", -1);
  const std::string worker_flag = flags.get_string("worker", "");
  const auto shard_splits =
      static_cast<std::size_t>(flags.get_int("shard-splits", 1));
  const int serve_port = flags.get_int("serve", -1);
  const auto serve_batch =
      static_cast<std::size_t>(flags.get_int("serve-batch", 64));
  pf::util::set_log_level(pf::util::LogLevel::kInfo);

  if (coordinator_port >= 0 && !worker_flag.empty()) {
    std::fprintf(stderr,
                 "--coordinator and --worker are different processes; pick "
                 "one per invocation\n");
    return 1;
  }

  // Leak simulation: the attacker holds a subsample of one breach and
  // attacks the (disjoint, deduplicated) remainder — §IV-D's protocol.
  pf::data::CorpusConfig corpus_config;
  pf::data::SyntheticRockyou generator(corpus_config, 20220614);
  const auto corpus = generator.generate(std::max<std::size_t>(
      120000, train_size * 8));
  pf::util::Rng rng(1);
  const auto split =
      pf::data::make_rockyou_style_split(corpus, train_size, rng);
  std::printf("attacker knows %zu passwords; target set: %zu unique unseen\n",
              split.train.size(), split.test_unique.size());

  pf::guessing::SessionConfig session_config;
  session_config.budget = guesses;
  session_config.log_progress = true;
  session_config.chunk_size = 4096;
  session_config.pipeline_depth = pipeline_depth;
  session_config.unique_tracking = sketch_unique
                                       ? pf::guessing::UniqueTracking::kSketch
                                       : pf::guessing::UniqueTracking::kExact;

  // ---- distributed coordinator: serve scenarios to worker processes ----
  // No training here — the coordinator never builds a generator; it ships
  // spec strings and merges results. Workers (launched with the same
  // flags plus --worker) do the training.
  if (coordinator_port >= 0) {
    const auto specs = split_csv(scenarios_flag);
    if (specs.empty()) {
      std::fprintf(stderr, "--coordinator needs --scenarios\n");
      return 1;
    }
    for (const auto& spec : specs) {
      double sigma = -1.0;
      std::string spec_error;
      if (!validate_scenario_spec(spec, &sigma, &spec_error)) {
        std::fprintf(stderr, "%s\n", spec_error.c_str());
        return 1;
      }
    }
    std::string matcher_spec = "testset";
    std::size_t shard_count = 0;
    try {
      if (!build_index_path.empty()) {
        const auto stats = pf::guessing::IndexBuilder::build(
            split.test_unique, build_index_path);
        std::printf("built disk index %s: %zu keys, %.1f MB in %s\n",
                    build_index_path.c_str(), stats.keys_distinct,
                    static_cast<double>(stats.file_bytes) / (1024.0 * 1024.0),
                    pf::util::format_duration(stats.seconds).c_str());
        matcher_spec = "index:" + build_index_path;
      } else if (!index_path.empty()) {
        matcher_spec = "index:" + index_path;
      }
      if (matcher_spec.rfind("index:", 0) == 0) {
        // Open once to learn (and sanity-check) the shard space workers
        // will split; also catches a missing/corrupt index before any
        // worker dials in.
        shard_count =
            pf::guessing::MappedMatcher(matcher_spec.substr(6)).shard_count();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    if (shard_splits > 1 && matcher_spec == "testset") {
      std::fprintf(stderr,
                   "--shard-splits needs a disk index (--index or "
                   "--build-index); the in-memory matcher has no shard "
                   "space to split\n");
      return 1;
    }

    pf::dist::CoordinatorConfig coordinator_config;
    coordinator_config.port = static_cast<std::uint16_t>(coordinator_port);
    pf::dist::Coordinator coordinator(coordinator_config);
    for (const auto& spec : specs) {
      pf::dist::DistScenario scenario;
      scenario.name = spec;
      scenario.generator_spec = spec;
      scenario.matcher_spec = matcher_spec;
      scenario.session = session_config;
      scenario.session.log_progress = false;
      scenario.shard_splits = shard_splits;
      scenario.shard_count = shard_count;
      coordinator.add_scenario(std::move(scenario));
    }
    std::printf(
        "coordinator on 127.0.0.1:%u: %zu scenario(s), %zu split(s) each; "
        "start workers with this command's flags plus --worker "
        "127.0.0.1:%u\n",
        coordinator.port(), specs.size(), std::max<std::size_t>(shard_splits, 1),
        coordinator.port());
    pf::util::Timer fleet_timer;
    coordinator.run();

    const auto stats = coordinator.stats();
    std::printf("\n=== distributed fleet summary (%zu scenarios, %.1fs) ===\n",
                coordinator.scenario_count(), fleet_timer.elapsed_seconds());
    for (std::size_t id = 0; id < coordinator.scenario_count(); ++id) {
      const auto& outcome = coordinator.outcome(id);
      const auto& cp = outcome.result.final();
      std::printf("  %-14s %9zu guesses: %6zu matched (%.3f%%), %zu unique\n",
                  outcome.name.c_str(), cp.guesses, cp.matched,
                  cp.matched_percent, cp.unique);
      if (outcome.parts > 1 || outcome.reassignments > 0) {
        std::printf("  %-14s   dist: %zu part(s), %zu reassignment(s)\n", "",
                    outcome.parts, outcome.reassignments);
      }
    }
    std::printf(
        "fleet total: %zu guesses, %zu matches; %zu worker(s) served, "
        "%zu lost\n",
        stats.produced, stats.matched, stats.workers_registered,
        stats.workers_lost);
    if (stats.unique_union_valid) {
      std::printf("fleet-wide distinct guesses (merged sketch): ~%zu\n",
                  stats.unique_union);
    }
    return 0;
  }

  pf::data::Encoder encoder(pf::data::Alphabet::standard(), 10);
  pf::flow::FlowConfig config;
  config.num_couplings = 8;
  config.hidden = 96;
  pf::util::Rng model_rng(2);
  pf::flow::FlowModel model(config, model_rng);
  pf::flow::TrainConfig train_config;
  train_config.epochs = epochs;
  pf::flow::Trainer trainer(model, train_config);
  pf::util::Timer timer;
  trainer.train(split.train, encoder);
  std::printf("trained in %s\n",
              pf::util::format_duration(timer.elapsed_seconds()).c_str());

  // ---- distributed worker: serve assignments from a coordinator --------
  if (!worker_flag.empty()) {
    std::string host;
    std::uint16_t port = 0;
    const std::size_t colon = worker_flag.rfind(':');
    try {
      if (colon == std::string::npos || colon == 0) {
        throw std::invalid_argument("missing ':'");
      }
      host = worker_flag.substr(0, colon);
      const int parsed = std::stoi(worker_flag.substr(colon + 1));
      if (parsed <= 0 || parsed > 65535) throw std::out_of_range("port");
      port = static_cast<std::uint16_t>(parsed);
    } catch (const std::exception&) {
      std::fprintf(stderr,
                   "--worker wants HOST:PORT (e.g. 127.0.0.1:7000), got "
                   "'%s'\n",
                   worker_flag.c_str());
      return 1;
    }

    // The "testset" matcher spec resolves to the held-out split this
    // process just derived — deterministic from the shared flags, so every
    // worker (and the in-process run) probes the identical target set.
    const auto testset_matcher =
        std::make_shared<pf::guessing::HashSetMatcher>(split.test_unique);
    pf::dist::WorkerConfig worker_config;
    worker_config.host = host;
    worker_config.port = port;
    worker_config.label = "train_and_attack";
    worker_config.pool = &pf::util::shared_pool();
    pf::dist::Worker worker(
        worker_config,
        [&](const pf::dist::AssignedScenario& assigned) {
          pf::dist::WorkerBinding binding;
          binding.generator =
              make_sampler(assigned.generator_spec, assigned.scenario_id,
                           model, encoder, guesses);
          if (assigned.matcher_spec == "testset") {
            if (assigned.shard_end != 0) {
              throw std::runtime_error(
                  "testset matcher has no shard ranges to split");
            }
            binding.matcher = testset_matcher;
          } else if (assigned.matcher_spec.rfind("index:", 0) == 0) {
            const std::string path = assigned.matcher_spec.substr(6);
            binding.matcher =
                assigned.shard_end != 0
                    ? std::make_shared<pf::guessing::MappedMatcher>(
                          path, static_cast<std::size_t>(assigned.shard_begin),
                          static_cast<std::size_t>(assigned.shard_end))
                    : std::make_shared<pf::guessing::MappedMatcher>(path);
          } else {
            throw std::runtime_error("unknown matcher spec '" +
                                     assigned.matcher_spec + "'");
          }
          return binding;
        });
    std::printf("worker serving %s:%u\n", host.c_str(), port);
    try {
      worker.run();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    const auto& worker_stats = worker.stats();
    std::printf(
        "worker done: %zu assignment(s), %zu result(s), %zu checkpoint(s) "
        "shipped, %zu reconnect(s)\n",
        worker_stats.assignments, worker_stats.results_sent,
        worker_stats.checkpoints_sent, worker_stats.reconnects);
    return 0;
  }

  // The membership oracle the attack probes: in-memory by default, or an
  // mmap-paged disk index when --index/--build-index asks for one.
  std::shared_ptr<const pf::guessing::Matcher> matcher;
  if (!index_path.empty() || !build_index_path.empty()) {
    try {
      std::string path = index_path;
      if (!build_index_path.empty()) {
        const auto stats = pf::guessing::IndexBuilder::build(
            split.test_unique, build_index_path);
        std::printf("built disk index %s: %zu keys, %.1f MB in %s\n",
                    build_index_path.c_str(), stats.keys_distinct,
                    static_cast<double>(stats.file_bytes) / (1024.0 * 1024.0),
                    pf::util::format_duration(stats.seconds).c_str());
        path = build_index_path;
      }
      auto mapped = std::make_shared<pf::guessing::MappedMatcher>(path);
      std::printf("probing disk index %s: %zu targets in %zu shards\n",
                  path.c_str(), mapped->test_set_size(),
                  mapped->shard_count());
      matcher = std::move(mapped);
    } catch (const std::exception& e) {
      // Missing/corrupt/foreign index files are an operator error, not a
      // crash: report like every other bad flag.
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  } else {
    matcher = std::make_shared<pf::guessing::HashSetMatcher>(
        split.test_unique);
  }

  // ---- serve mode: online credential-screening service -----------------
  // Same trained model, same matcher the attack would probe — but instead
  // of generating guesses, answer strength queries over the dist transport
  // until a stop signal arrives.
  if (serve_port >= 0) {
    pf::serve::StrengthServerConfig serve_config;
    serve_config.port = static_cast<std::uint16_t>(serve_port);
    serve_config.max_batch = serve_batch;
    serve_config.pool = &pf::util::shared_pool();
    try {
      pf::serve::StrengthServer server(serve_config, model, encoder, matcher);
      std::signal(SIGINT, handle_stop_signal);
      std::signal(SIGTERM, handle_stop_signal);
      std::printf(
          "credential-screening service on 127.0.0.1:%u (max_batch=%zu, "
          "%zu index keys); Ctrl-C to stop\n",
          server.port(), serve_batch, matcher->test_set_size());
      while (!g_stop_requested) server.poll_once(200);
      const auto& serve_stats = server.stats();
      std::printf(
          "\nservice stopped: %zu client(s) (%zu dropped), %zu queries "
          "(%zu refused overloaded), %zu candidates scored in %zu "
          "batch(es), %zu replies\n",
          serve_stats.clients_accepted, serve_stats.clients_dropped,
          serve_stats.queries, serve_stats.overloaded,
          serve_stats.candidates_scored, serve_stats.batches,
          serve_stats.replies_sent);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    return 0;
  }

  // ---- fleet mode: a concurrent sweep over one shared matcher ----------
  if (!scenarios_flag.empty()) {
    std::vector<std::unique_ptr<pf::guessing::GuessGenerator>> samplers;
    std::vector<std::string> labels;
    for (const auto& spec : split_csv(scenarios_flag)) {
      try {
        samplers.push_back(
            make_sampler(spec, samplers.size(), model, encoder, guesses));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
      }
      labels.push_back(spec);
    }

    // Positional QoS lists: one value per scenario, or a single value
    // broadcast to all of them. 0 disables the knob for that scenario.
    const auto parse_per_scenario = [&](const std::string& list,
                                        const char* flag_name,
                                        std::vector<double>& out) {
      out.assign(samplers.size(), 0.0);
      if (list.empty()) return true;
      std::vector<double> values;
      std::stringstream stream(list);
      std::string item;
      while (std::getline(stream, item, ',')) {
        try {
          values.push_back(std::stod(item));
        } catch (const std::exception&) {
          std::fprintf(stderr, "bad value '%s' in --%s\n", item.c_str(),
                       flag_name);
          return false;
        }
      }
      if (values.size() == 1) {
        out.assign(samplers.size(), values[0]);
      } else if (values.size() == samplers.size()) {
        out = values;
      } else {
        std::fprintf(stderr,
                     "--%s needs 1 value or one per scenario (%zu), got %zu\n",
                     flag_name, samplers.size(), values.size());
        return false;
      }
      return true;
    };
    std::vector<double> deadlines, rate_caps;
    if (!parse_per_scenario(deadline_flag, "deadline", deadlines) ||
        !parse_per_scenario(rate_cap_flag, "rate-cap", rate_caps)) {
      return 1;
    }

    pf::guessing::SchedulerConfig fleet;
    fleet.pool = &pf::util::shared_pool();
    pf::guessing::AttackScheduler scheduler(fleet);

    // Crash-safe mode: thaw the newest intact checkpoint generation if one
    // exists; otherwise register the fleet fresh. The resolver re-binds
    // each saved scenario to its sampler by position and insists the
    // labels agree, so a resume with edited --scenarios fails loudly
    // instead of thawing a stream into the wrong strategy.
    std::unique_ptr<pf::util::CheckpointStore> store;
    bool resumed = false;
    if (!fleet_state_path.empty()) {
      store = std::make_unique<pf::util::CheckpointStore>(fleet_state_path);
      try {
        resumed = store->load([&](std::istream& in) {
          scheduler.load_state(
              in,
              [&](const pf::guessing::AttackScheduler::ScenarioThawInfo& info)
                  -> pf::guessing::AttackScheduler::ScenarioBinding {
                if (info.index >= samplers.size() ||
                    labels[info.index] != info.name) {
                  throw std::runtime_error(
                      "saved fleet scenario #" + std::to_string(info.index) +
                      " is '" + info.name +
                      "', which does not match --scenarios; resume with the "
                      "flags the fleet was started with");
                }
                return {*samplers[info.index], matcher};
              });
        });
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
      }
    }

    std::vector<std::size_t> ids;
    if (resumed) {
      for (const auto& snap : scheduler.scenarios()) ids.push_back(snap.id);
      std::printf("resumed fleet from %s at %zu guesses\n",
                  fleet_state_path.c_str(), scheduler.aggregate().produced);
    } else {
      for (std::size_t i = 0; i < samplers.size(); ++i) {
        pf::guessing::ScenarioOptions options;
        options.name = labels[i];
        options.session = session_config;
        options.session.log_progress = false;  // one summary table instead
        options.deadline_seconds = deadlines[i];
        options.rate_cap = rate_caps[i];
        ids.push_back(scheduler.add_scenario(*samplers[i], matcher, options));
      }
    }
    std::printf("running %zu scenarios concurrently over %zu targets\n",
                ids.size(), matcher->test_set_size());
    pf::util::Timer fleet_timer;

    if (store) {
      std::signal(SIGINT, handle_stop_signal);
      std::signal(SIGTERM, handle_stop_signal);

      // Drivers run in the background; this thread autosaves on a clock
      // and watches for a stop signal. save_state quiesces in-flight
      // slices through the aggregate() gate, so every generation on disk
      // is a chunk-boundary-consistent snapshot of the live fleet.
      std::atomic<bool> done{false};
      std::thread driver([&] {
        scheduler.run();
        done.store(true);
      });
      pf::util::Timer autosave_timer;
      while (!done.load() && !g_stop_requested) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (!done.load() && !g_stop_requested &&
            autosave_timer.elapsed_seconds() >= checkpoint_every) {
          store->save(
              [&](std::ostream& out) { scheduler.save_state(out); });
          autosave_timer.reset();
        }
      }
      if (g_stop_requested && !done.load()) {
        // Drain-and-save: freeze a final consistent snapshot, then pause
        // every scenario so run() lets its drivers go.
        store->save([&](std::ostream& out) { scheduler.save_state(out); });
        for (const auto& snap : scheduler.scenarios()) {
          scheduler.pause_scenario(snap.id);
        }
        driver.join();
        std::printf(
            "\ninterrupted: fleet state saved to %s (%zu guesses in); "
            "restart with the same flags to resume\n",
            fleet_state_path.c_str(), scheduler.aggregate().produced);
        return 0;
      }
      driver.join();
      store->clear();  // finished cleanly: nothing left to resume
    } else {
      scheduler.run();
    }

    std::printf("\n=== fleet summary (%zu scenarios, %.1fs) ===\n",
                ids.size(), fleet_timer.elapsed_seconds());
    for (const auto& snap : scheduler.scenarios()) {
      const auto scenario_result = scheduler.result(snap.id);
      const auto& cp = scenario_result.final();
      std::printf("  %-14s %9zu guesses: %6zu matched (%.3f%%), %zu unique\n",
                  snap.name.c_str(), cp.guesses, cp.matched,
                  cp.matched_percent, cp.unique);
      if (snap.deadline_seconds > 0.0 || snap.rate_cap > 0.0) {
        std::printf("  %-14s   qos:", "");
        if (snap.deadline_seconds > 0.0) {
          std::printf(" deadline %.3gs %s", snap.deadline_seconds,
                      snap.past_deadline ? "MISSED" : "met");
        }
        if (snap.rate_cap > 0.0) {
          std::printf(" cap %.0f g/s (achieved %.0f)", snap.rate_cap,
                      snap.achieved_guesses_per_second);
        }
        std::printf("\n");
      }
    }
    const auto aggregate = scheduler.aggregate();
    std::printf("fleet total: %zu guesses, %zu matches, %.0f guesses/s\n",
                aggregate.produced, aggregate.matched,
                aggregate.guesses_per_second);
    if (aggregate.deadline_missed > 0) {
      std::printf("deadlines missed: %zu\n", aggregate.deadline_missed);
    }
    if (aggregate.unique_union_valid) {
      std::printf("fleet-wide distinct guesses (merged sketch): ~%zu\n",
                  aggregate.unique_union);
    }
    return 0;
  }

  // Drive the session in ~10 slices so progress (and, with --state, a
  // restart point) lands between them rather than only at the end.
  const auto attack = [&](pf::guessing::GuessGenerator& sampler) {
    pf::guessing::SessionConfig config = session_config;
    // With a producer thread, the pool also keeps the tracker drain off
    // the consuming thread.
    config.pool = &pf::util::shared_pool();
    pf::guessing::AttackSession session(sampler, matcher, config);
    if (!state_path.empty()) {
      std::ifstream saved(state_path, std::ios::binary);
      if (saved.good()) {
        session.load_state(saved);
        std::printf("resumed from %s at %zu guesses\n", state_path.c_str(),
                    session.stats().produced);
      }
    }
    const std::size_t slice = std::max<std::size_t>(guesses / 10, 1);
    while (!session.finished()) {
      const auto& stats = session.run_until(session.stats().produced + slice);
      std::printf("  ... %zu guesses, %zu matched, %.0f guesses/s\n",
                  stats.produced, stats.matched, stats.guesses_per_second);
      if (!state_path.empty() &&
          sampler.supports_state_serialization() && !session.finished()) {
        std::ofstream out(state_path, std::ios::binary | std::ios::trunc);
        session.save_state(out);
      }
    }
    if (!state_path.empty()) std::remove(state_path.c_str());
    return session.result();
  };

  pf::guessing::RunResult result;
  if (strategy == "static") {
    pf::guessing::StaticSampler sampler(model, encoder);
    result = attack(sampler);
  } else {
    auto sampler_config = pf::guessing::table1_parameters(guesses);
    sampler_config.smoothing.enabled = (strategy == "dynamic+gs");
    if (strategy != "dynamic" && strategy != "dynamic+gs") {
      std::fprintf(stderr, "unknown --strategy %s\n", strategy.c_str());
      return 1;
    }
    pf::guessing::DynamicSampler sampler(model, encoder, sampler_config);
    result = attack(sampler);
  }

  std::printf("\n=== attack summary (%s) ===\n", strategy.c_str());
  for (const auto& cp : result.checkpoints) {
    std::printf("  %9zu guesses: %6zu matched (%.3f%%), %zu unique\n",
                cp.guesses, cp.matched, cp.matched_percent, cp.unique);
  }
  std::printf("cracked examples: ");
  for (std::size_t i = 0; i < std::min<std::size_t>(
                              8, result.matched_passwords.size()); ++i) {
    std::printf("%s ", result.matched_passwords[i].c_str());
  }
  std::printf("\ntotal time %s\n",
              pf::util::format_duration(result.seconds).c_str());
  return 0;
}
