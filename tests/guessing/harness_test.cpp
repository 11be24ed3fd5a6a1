// Contract of the guessing loop that AttackSession runs (generate, match,
// feed matches back, count), pinned by hand-computed values on a scripted
// generator: the exact budget, matched % over the test-set size, the
// on_match index into the last batch, distinct non-matched samples, and
// chunks cut at checkpoints.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "guessing/session.hpp"

namespace passflow::guessing {
namespace {

// Replays a fixed script, recording generate() sizes and on_match() indices.
class ScriptedGenerator : public GuessGenerator {
 public:
  explicit ScriptedGenerator(std::vector<std::string> script)
      : script_(std::move(script)) {}

  void generate(std::size_t n, std::vector<std::string>& out) override {
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(script_[cursor_++ % script_.size()]);
    }
    call_sizes.push_back(n);
  }
  void on_match(std::size_t index_in_batch, const std::string&) override {
    match_indices.push_back(index_in_batch);
  }
  std::string name() const override { return "scripted"; }

  std::vector<std::size_t> call_sizes;
  std::vector<std::size_t> match_indices;

 private:
  std::vector<std::string> script_;
  std::size_t cursor_ = 0;
};

RunResult run_scripted(ScriptedGenerator& gen, const Matcher& matcher,
                       const SessionConfig& config) {
  AttackSession session(gen, matcher, config);
  session.run();
  return session.result();
}

TEST(Harness, GeneratesExactBudget) {
  ScriptedGenerator gen({"a", "b", "c"});
  HashSetMatcher matcher({"nothing"});
  SessionConfig config;
  config.budget = 95;
  config.chunk_size = 10;
  const RunResult result = run_scripted(gen, matcher, config);
  std::size_t requested = 0;
  for (const std::size_t n : gen.call_sizes) requested += n;
  EXPECT_EQ(requested, 95u);
  EXPECT_EQ(result.final().guesses, 95u);
}

TEST(Harness, MatchedPercentUsesTestSetSize) {
  ScriptedGenerator gen({"a", "b", "x", "y"});
  HashSetMatcher matcher({"a", "b", "c", "d"});  // 4 entries, 2 matched
  SessionConfig config;
  config.budget = 40;
  const RunResult result = run_scripted(gen, matcher, config);
  EXPECT_EQ(result.final().matched, 2u);
  EXPECT_DOUBLE_EQ(result.final().matched_percent, 50.0);
}

TEST(Harness, OnMatchIndexPointsIntoLastBatch) {
  // chunk_size=4 so batch = {m0,m1,m2,hit}; index of "hit" is 3.
  ScriptedGenerator gen({"m0", "m1", "m2", "hit"});
  HashSetMatcher matcher({"hit"});
  SessionConfig config;
  config.budget = 4;
  config.chunk_size = 4;
  run_scripted(gen, matcher, config);
  ASSERT_EQ(gen.match_indices.size(), 1u);
  EXPECT_EQ(gen.match_indices[0], 3u);
}

TEST(Harness, NonMatchedSamplesAreDistinctNonMatches) {
  ScriptedGenerator gen({"hit", "n1", "n2", "n1"});
  HashSetMatcher matcher({"hit"});
  SessionConfig config;
  config.budget = 100;
  config.non_matched_samples = 10;
  const RunResult result = run_scripted(gen, matcher, config);
  EXPECT_EQ(result.sample_non_matched.size(), 2u);
  for (const auto& s : result.sample_non_matched) {
    EXPECT_FALSE(matcher.contains(s));
  }
}

TEST(Harness, ChunksNeverCrossCheckpoints) {
  // With chunk_size larger than the checkpoint spacing, the session must
  // shrink chunks so metrics at checkpoints are exact.
  ScriptedGenerator gen({"a"});
  HashSetMatcher matcher({});
  SessionConfig config;
  config.budget = 100;
  config.chunk_size = 64;
  config.checkpoints = {10, 100};
  const RunResult result = run_scripted(gen, matcher, config);
  EXPECT_EQ(gen.call_sizes, (std::vector<std::size_t>{10, 64, 26}));
  EXPECT_EQ(result.checkpoints[0].guesses, 10u);
}

}  // namespace
}  // namespace passflow::guessing
