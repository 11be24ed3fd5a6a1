// Guessing-engine throughput bench: the seed one-chunk-ahead harness vs the
// AttackSession pipeline at depths 1/2/4/8, on a feedback-free generator at
// the 10^7-guess scale. Emits the JSON recorded in BENCH_guessing.json.
//
//   ./guessing_bench [--budget 10000000] [--chunk 16384] [--period 6000000]
//                    [--testset 100000] [--depths 1,2,4,8] [--shards 4]
//                    [--out BENCH_guessing.json]
//
// The "before" arm reimplements the seed harness verbatim (one std::async
// ahead, pooled membership when >1 worker, serial unordered_set
// bookkeeping), since the library keeps only the AttackSession engine.
// The "after" arms run that engine, whose tracker drain runs on the pool
// behind the consuming thread. Every arm's final metrics are cross-checked
// for equality before anything is reported, so a speedup can never come
// from dropping work.
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "guessing/generator.hpp"
#include "guessing/matcher.hpp"
#include "guessing/metrics.hpp"
#include "guessing/session.hpp"
#include "util/flags.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace pf = passflow;

namespace {

// Deterministic feedback-free stream: guess i is "g<mix64(i) % period>",
// so the stream revisits values (unique < produced) and hits the test set
// throughout the run. Stands in for any sampler whose generation cost is
// small next to matching + unique tracking.
class HashStreamGenerator : public pf::guessing::GuessGenerator {
 public:
  explicit HashStreamGenerator(std::size_t period) : period_(period) {}

  void generate(std::size_t n, std::vector<std::string>& out) override {
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back("g" + std::to_string(pf::util::mix64(cursor_++) % period_));
    }
  }
  std::string name() const override { return "hash-stream"; }

 private:
  std::size_t period_;
  std::size_t cursor_ = 0;
};

// The seed harness (PR 1), kept verbatim as the "before" arm: generation
// pipelined exactly one chunk ahead via one std::async per chunk, pooled
// membership precompute, serial unordered_set bookkeeping.
pf::guessing::RunResult run_seed_one_ahead(
    pf::guessing::GuessGenerator& generator,
    const pf::guessing::Matcher& matcher, std::size_t budget,
    std::size_t chunk_size, pf::util::ThreadPool* pool) {
  using pf::guessing::Checkpoint;
  using pf::guessing::RunResult;

  std::vector<std::size_t> checkpoints =
      pf::guessing::power_of_ten_checkpoints(budget);

  RunResult result;
  std::unordered_set<std::string> unique_guesses;
  std::unordered_set<std::string> matched_set;
  std::unordered_set<std::string> non_matched_seen;
  constexpr std::size_t kNonMatchedSamples = 40;
  constexpr std::size_t kParallelMatchThreshold = 1024;

  std::size_t produced = 0;
  std::size_t checkpoint_index = 0;

  std::vector<char> membership;
  const auto precompute_membership =
      [&](const std::vector<std::string>& batch) {
        const bool parallel = pool != nullptr && pool->size() > 1 &&
                              batch.size() >= kParallelMatchThreshold;
        if (!parallel) return false;
        membership.assign(batch.size(), 0);
        pool->parallel_for(batch.size(), [&](std::size_t i) {
          membership[i] = matcher.contains(batch[i]) ? 1 : 0;
        });
        return true;
      };

  const auto consume_batch = [&](const std::vector<std::string>& batch) {
    const bool have_membership = precompute_membership(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string& guess = batch[i];
      unique_guesses.insert(guess);
      const bool hit =
          have_membership ? membership[i] != 0 : matcher.contains(guess);
      if (hit) {
        if (matched_set.insert(guess).second) {
          result.matched_passwords.push_back(guess);
        }
      } else if (result.sample_non_matched.size() < kNonMatchedSamples &&
                 !guess.empty() && non_matched_seen.insert(guess).second) {
        result.sample_non_matched.push_back(guess);
      }
    }
    produced += batch.size();
  };

  const auto emit_due_checkpoints = [&] {
    while (checkpoint_index < checkpoints.size() &&
           produced >= checkpoints[checkpoint_index]) {
      Checkpoint cp;
      cp.guesses = checkpoints[checkpoint_index];
      cp.unique = unique_guesses.size();
      cp.matched = matched_set.size();
      cp.matched_percent = 100.0 * static_cast<double>(cp.matched) /
                           static_cast<double>(matcher.test_set_size());
      result.checkpoints.push_back(cp);
      ++checkpoint_index;
    }
  };

  std::vector<std::size_t> schedule;
  {
    std::size_t planned = 0;
    std::size_t ci = 0;
    while (planned < budget) {
      const std::size_t next_stop =
          ci < checkpoints.size() ? checkpoints[ci] : budget;
      const std::size_t chunk = std::min(chunk_size, next_stop - planned);
      schedule.push_back(chunk);
      planned += chunk;
      while (ci < checkpoints.size() && planned >= checkpoints[ci]) ++ci;
    }
  }

  const auto produce = [&generator](std::size_t n) {
    std::vector<std::string> batch;
    batch.reserve(n);
    generator.generate(n, batch);
    return batch;
  };

  std::future<std::vector<std::string>> pending;
  for (std::size_t c = 0; c < schedule.size(); ++c) {
    std::vector<std::string> batch =
        c == 0 ? produce(schedule[0]) : pending.get();
    if (c + 1 < schedule.size()) {
      pending = std::async(std::launch::async, produce, schedule[c + 1]);
    }
    consume_batch(batch);
    emit_due_checkpoints();
  }
  return result;
}

struct ArmResult {
  std::string label;
  double seconds = 0.0;
  double guesses_per_second = 0.0;
  std::size_t matched = 0;
  std::size_t unique = 0;
};

void check_metrics_equal(const pf::guessing::RunResult& baseline,
                         const pf::guessing::RunResult& candidate,
                         const std::string& label, bool compare_unique) {
  bool same =
      baseline.checkpoints.size() == candidate.checkpoints.size() &&
      baseline.matched_passwords == candidate.matched_passwords &&
      baseline.sample_non_matched == candidate.sample_non_matched;
  if (same) {
    for (std::size_t i = 0; i < baseline.checkpoints.size(); ++i) {
      const auto& a = baseline.checkpoints[i];
      const auto& b = candidate.checkpoints[i];
      same = same && a.guesses == b.guesses && a.matched == b.matched &&
             (!compare_unique || a.unique == b.unique);
    }
  }
  if (!same) {
    std::fprintf(stderr, "FATAL: arm '%s' diverged from the baseline metrics\n",
                 label.c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  pf::util::Flags flags(argc, argv);
  const auto budget = static_cast<std::size_t>(
      flags.get_int("budget", 10000000));
  const auto chunk = static_cast<std::size_t>(flags.get_int("chunk", 16384));
  const auto period = static_cast<std::size_t>(
      flags.get_int("period", 6000000));
  const auto testset_size = static_cast<std::size_t>(
      flags.get_int("testset", 100000));
  const auto shards = static_cast<std::size_t>(flags.get_int("shards", 4));
  const std::string depths_flag = flags.get_string("depths", "1,2,4,8");
  const std::string out_path = flags.get_string("out", "");

  std::vector<std::size_t> depths;
  {
    std::stringstream ss(depths_flag);
    std::string token;
    while (std::getline(ss, token, ',')) {
      depths.push_back(static_cast<std::size_t>(std::stoul(token)));
    }
  }

  // Target set: an even sample of the stream's value space, so matches
  // accumulate across the whole run.
  std::vector<std::string> targets;
  targets.reserve(testset_size);
  const std::size_t stride = std::max<std::size_t>(1, period / testset_size);
  for (std::size_t v = 0; v < period && targets.size() < testset_size;
       v += stride) {
    targets.push_back("g" + std::to_string(v));
  }
  pf::guessing::HashSetMatcher matcher(targets);
  pf::util::ThreadPool& pool = pf::util::shared_pool();

  std::printf("guessing_bench: budget=%zu chunk=%zu period=%zu testset=%zu "
              "pool=%zu\n",
              budget, chunk, period, targets.size(), pool.size());

  std::vector<ArmResult> arms;
  pf::guessing::RunResult baseline_result;

  // ---- before: the seed one-chunk-ahead harness -------------------------
  {
    HashStreamGenerator generator(period);
    pf::util::Timer timer;
    baseline_result = run_seed_one_ahead(generator, matcher, budget, chunk,
                                         &pool);
    ArmResult arm;
    arm.label = "seed_one_ahead";
    arm.seconds = timer.elapsed_seconds();
    arm.guesses_per_second = static_cast<double>(budget) / arm.seconds;
    arm.matched = baseline_result.final().matched;
    arm.unique = baseline_result.final().unique;
    arms.push_back(arm);
    std::printf("  %-24s %7.2fs  %11.0f guesses/s\n", arm.label.c_str(),
                arm.seconds, arm.guesses_per_second);
  }

  // ---- after: AttackSession pipeline depth sweep ------------------------
  const auto run_session = [&](std::size_t depth,
                               pf::guessing::UniqueTracking tracking,
                               const std::string& label) {
    HashStreamGenerator generator(period);
    pf::guessing::SessionConfig config;
    config.budget = budget;
    config.chunk_size = chunk;
    config.pipeline_depth = depth;
    config.unique_tracking = tracking;
    config.unique_shards = shards;
    config.pool = &pool;
    pf::util::Timer timer;
    pf::guessing::AttackSession session(generator, matcher, config);
    session.run();
    const pf::guessing::RunResult result = session.result();
    ArmResult arm;
    arm.label = label;
    arm.seconds = timer.elapsed_seconds();
    arm.guesses_per_second = static_cast<double>(budget) / arm.seconds;
    arm.matched = result.final().matched;
    arm.unique = result.final().unique;
    check_metrics_equal(baseline_result, result, label,
                        tracking == pf::guessing::UniqueTracking::kExact);
    arms.push_back(arm);
    std::printf("  %-24s %7.2fs  %11.0f guesses/s  (%.2fx)\n", label.c_str(),
                arm.seconds, arm.guesses_per_second,
                arm.guesses_per_second / arms.front().guesses_per_second);
  };

  for (const std::size_t depth : depths) {
    run_session(depth, pf::guessing::UniqueTracking::kExact,
                "session_depth" + std::to_string(depth));
  }
  run_session(depths.back(), pf::guessing::UniqueTracking::kSketch,
              "session_depth" + std::to_string(depths.back()) + "_sketch");

  // ---- JSON record ------------------------------------------------------
  std::stringstream json;
  json << "{\n"
       << "  \"bench\": \"guessing_bench\",\n"
       << "  \"config\": { \"budget\": " << budget << ", \"chunk_size\": "
       << chunk << ", \"stream_period\": " << period
       << ", \"test_set_size\": " << targets.size()
       << ", \"pool_threads\": " << pool.size()
       << ", \"unique_shards\": " << shards << " },\n"
       << "  \"arms\": [\n";
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmResult& arm = arms[i];
    json << "    { \"label\": \"" << arm.label << "\", \"seconds\": "
         << arm.seconds << ", \"guesses_per_second\": "
         << static_cast<long long>(arm.guesses_per_second)
         << ", \"speedup_vs_seed\": "
         << arm.guesses_per_second / arms.front().guesses_per_second
         << ", \"matched\": " << arm.matched << ", \"unique\": "
         << arm.unique << " }" << (i + 1 < arms.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::printf("%s", json.str().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json.str();
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
