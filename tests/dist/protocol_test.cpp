// Unit coverage of the distributed fleet's pure pieces: protocol message
// round-trips and decode validation, shard-range splitting, the reconnect
// backoff schedule, and Worker construction contracts. No sockets here —
// transport and multi-process behavior live in distributed_fleet_test.
#include "dist/protocol.hpp"

#include <limits>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "dist/backoff.hpp"
#include "dist/worker.hpp"
#include "guessing/scheduler.hpp"
#include "guessing/unique_tracker.hpp"

namespace passflow::dist {
namespace {

AssignMsg sample_assign() {
  AssignMsg assign;
  assign.task_id = 42;
  assign.scenario_id = 7;
  assign.name = "markov static";
  assign.generator_spec = "mixing:4096";
  assign.matcher_spec = "index:/tmp/test.pfidx";
  assign.session.budget = 123456;
  assign.session.chunk_size = 777;
  assign.session.non_matched_samples = 13;
  assign.session.unique_tracking = guessing::UniqueTracking::kSketch;
  assign.session.unique_shards = 4;
  assign.session.sketch_precision_bits = 12;
  assign.session.pipeline_depth = 3;
  assign.session.log_progress = true;
  assign.session.checkpoints = {100, 10000, 123456};
  assign.shard_begin = 2;
  assign.shard_end = 5;
  assign.checkpoint_chunks = 8;
  assign.union_precision_bits = 14;
  assign.resume_state = std::string("state\0bytes\n\xff", 13);
  return assign;
}

TEST(Protocol, HelloRoundTrips) {
  HelloMsg hello;
  hello.pid = 12345;
  hello.label = "worker-a";
  const Message decoded = decode(encode(hello));
  const auto& out = std::get<HelloMsg>(decoded);
  EXPECT_EQ(out.protocol_version, kProtocolVersion);
  EXPECT_EQ(out.pid, 12345u);
  EXPECT_EQ(out.label, "worker-a");
}

TEST(Protocol, AssignRoundTripsEveryField) {
  const AssignMsg assign = sample_assign();
  const Message decoded = decode(encode(assign));
  const auto& out = std::get<AssignMsg>(decoded);
  EXPECT_EQ(out.task_id, assign.task_id);
  EXPECT_EQ(out.scenario_id, assign.scenario_id);
  EXPECT_EQ(out.name, assign.name);
  EXPECT_EQ(out.generator_spec, assign.generator_spec);
  EXPECT_EQ(out.matcher_spec, assign.matcher_spec);
  EXPECT_EQ(out.session.budget, assign.session.budget);
  EXPECT_EQ(out.session.chunk_size, assign.session.chunk_size);
  EXPECT_EQ(out.session.non_matched_samples,
            assign.session.non_matched_samples);
  EXPECT_EQ(out.session.unique_tracking, assign.session.unique_tracking);
  EXPECT_EQ(out.session.unique_shards, assign.session.unique_shards);
  EXPECT_EQ(out.session.sketch_precision_bits,
            assign.session.sketch_precision_bits);
  EXPECT_EQ(out.session.pipeline_depth, assign.session.pipeline_depth);
  EXPECT_EQ(out.session.log_progress, assign.session.log_progress);
  EXPECT_EQ(out.session.checkpoints, assign.session.checkpoints);
  EXPECT_EQ(out.session.pool, nullptr);  // never travels
  EXPECT_EQ(out.shard_begin, assign.shard_begin);
  EXPECT_EQ(out.shard_end, assign.shard_end);
  EXPECT_EQ(out.checkpoint_chunks, assign.checkpoint_chunks);
  EXPECT_EQ(out.union_precision_bits, assign.union_precision_bits);
  EXPECT_EQ(out.resume_state, assign.resume_state);
}

TEST(Protocol, ResultRoundTripsRunResult) {
  ResultMsg result;
  result.task_id = 9;
  result.test_set_size = 500;
  result.sketch = std::string("\x01\x02\x00\x03", 4);
  guessing::Checkpoint cp;
  cp.guesses = 1000;
  cp.unique = 900;
  cp.matched = 17;
  cp.matched_percent = 3.4;
  result.result.checkpoints = {cp};
  result.result.matched_passwords = {"alpha", "beta"};
  result.result.sample_non_matched = {"zzz"};
  result.result.seconds = 1.25;

  const Message decoded = decode(encode(result));
  const auto& out = std::get<ResultMsg>(decoded);
  EXPECT_EQ(out.task_id, 9u);
  EXPECT_EQ(out.test_set_size, 500u);
  EXPECT_EQ(out.sketch, result.sketch);
  ASSERT_EQ(out.result.checkpoints.size(), 1u);
  EXPECT_EQ(out.result.checkpoints[0].guesses, 1000u);
  EXPECT_EQ(out.result.checkpoints[0].unique, 900u);
  EXPECT_EQ(out.result.checkpoints[0].matched, 17u);
  EXPECT_DOUBLE_EQ(out.result.checkpoints[0].matched_percent, 3.4);
  EXPECT_EQ(out.result.matched_passwords, result.result.matched_passwords);
  EXPECT_EQ(out.result.sample_non_matched, result.result.sample_non_matched);
  EXPECT_DOUBLE_EQ(out.result.seconds, 1.25);
}

TEST(Protocol, SmallMessagesRoundTrip) {
  EXPECT_EQ(std::get<WelcomeMsg>(decode(encode(WelcomeMsg{31}))).worker_id,
            31u);
  EXPECT_EQ(std::get<HeartbeatMsg>(decode(encode(HeartbeatMsg{777})))
                .produced_total,
            777u);
  CheckpointMsg checkpoint;
  checkpoint.task_id = 3;
  checkpoint.state = std::string("\0\0frozen", 8);
  const Message decoded = decode(encode(checkpoint));
  const auto& out = std::get<CheckpointMsg>(decoded);
  EXPECT_EQ(out.task_id, 3u);
  EXPECT_EQ(out.state, checkpoint.state);
  EXPECT_TRUE(
      std::holds_alternative<ShutdownMsg>(decode(encode(ShutdownMsg{}))));
}

TEST(Protocol, MessageNamesAreStable) {
  EXPECT_STREQ(message_name(HelloMsg{}), "Hello");
  EXPECT_STREQ(message_name(AssignMsg{}), "Assign");
  EXPECT_STREQ(message_name(ShutdownMsg{}), "Shutdown");
  EXPECT_STREQ(message_name(StrengthQueryMsg{}), "StrengthQuery");
  EXPECT_STREQ(message_name(StrengthReplyMsg{}), "StrengthReply");
}

TEST(Protocol, StrengthQueryRoundTripsHostileCandidates) {
  StrengthQueryMsg query;
  query.request_id = 0xdeadbeefcafe1234ull;
  // Candidates are arbitrary bytes: empty, embedded NUL, non-ASCII.
  query.candidates = {"123456", "", std::string("we\x00ird", 6),
                      "p\xc3\xa4ss", std::string(300, 'q')};
  const Message decoded = decode(encode(query));
  const auto& out = std::get<StrengthQueryMsg>(decoded);
  EXPECT_EQ(out.request_id, query.request_id);
  EXPECT_EQ(out.candidates, query.candidates);
}

TEST(Protocol, StrengthReplyRoundTripsEstimatesAndInfinities) {
  StrengthReplyMsg reply;
  reply.request_id = 77;
  reply.status = StrengthStatus::kOk;
  StrengthEstimate weak;
  weak.log_prob = -2.5;
  weak.guess_number = 3.0;
  weak.in_index = true;
  weak.representable = true;
  StrengthEstimate unrepresentable;
  unrepresentable.log_prob = -std::numeric_limits<double>::infinity();
  unrepresentable.guess_number = std::numeric_limits<double>::infinity();
  unrepresentable.in_index = true;
  unrepresentable.representable = false;
  StrengthEstimate plain;
  plain.log_prob = -33.125;
  plain.guess_number = 1e9;
  reply.estimates = {weak, unrepresentable, plain};

  const Message decoded = decode(encode(reply));
  const auto& out = std::get<StrengthReplyMsg>(decoded);
  EXPECT_EQ(out.request_id, 77u);
  EXPECT_EQ(out.status, StrengthStatus::kOk);
  ASSERT_EQ(out.estimates.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out.estimates[i].log_prob, reply.estimates[i].log_prob);
    EXPECT_EQ(out.estimates[i].guess_number, reply.estimates[i].guess_number);
    EXPECT_EQ(out.estimates[i].in_index, reply.estimates[i].in_index);
    EXPECT_EQ(out.estimates[i].representable, reply.estimates[i].representable);
  }

  StrengthReplyMsg refusal;
  refusal.request_id = 78;
  refusal.status = StrengthStatus::kOverloaded;
  const StrengthReplyMsg refused =
      std::get<StrengthReplyMsg>(decode(encode(refusal)));
  EXPECT_EQ(refused.status, StrengthStatus::kOverloaded);
  EXPECT_TRUE(refused.estimates.empty());
}

TEST(Protocol, StrengthReplyRejectsInvalidStatusAndFlags) {
  StrengthReplyMsg reply;
  reply.request_id = 1;
  reply.estimates.resize(1);
  // Payload layout: tag u64 | request_id u64 | status u64 | count u64 |
  // estimate {log_prob f64 | guess_number f64 | flags u64}.
  std::string bad_status = encode(Message{reply});
  bad_status[16] = 7;
  EXPECT_THROW(decode(bad_status), std::runtime_error);
  std::string bad_flags = encode(Message{reply});
  bad_flags[48] = 0x0F;
  EXPECT_THROW(decode(bad_flags), std::runtime_error);
}

TEST(Protocol, StrengthMessagesRejectTruncationAndTrailingBytes) {
  StrengthQueryMsg query;
  query.request_id = 5;
  query.candidates = {"abc", "de"};
  const std::string query_payload = encode(Message{query});
  for (std::size_t length = 0; length < query_payload.size(); ++length) {
    EXPECT_THROW(decode(query_payload.substr(0, length)), std::runtime_error)
        << "query truncated at " << length;
  }
  EXPECT_THROW(decode(query_payload + "x"), std::runtime_error);

  StrengthReplyMsg reply;
  reply.estimates.resize(2);
  const std::string reply_payload = encode(Message{reply});
  for (std::size_t length = 0; length < reply_payload.size(); ++length) {
    EXPECT_THROW(decode(reply_payload.substr(0, length)), std::runtime_error)
        << "reply truncated at " << length;
  }
  EXPECT_THROW(decode(reply_payload + "x"), std::runtime_error);
}

TEST(Protocol, DecodeRejectsUnknownTag) {
  std::string payload(8, '\0');
  payload[0] = '\x63';  // tag 99
  EXPECT_THROW(decode(payload), std::runtime_error);
}

TEST(Protocol, DecodeRejectsTruncationAndTrailingBytes) {
  const std::string good = encode(sample_assign());
  EXPECT_THROW(decode(good.substr(0, good.size() / 2)), std::runtime_error);
  EXPECT_THROW(decode(good + "x"), std::runtime_error);
  EXPECT_THROW(decode(std::string()), std::runtime_error);
}

TEST(Protocol, DecodeRejectsInvalidTrackingMode) {
  AssignMsg assign = sample_assign();
  std::string payload = encode(assign);
  // The tracking-mode field sits at a fixed offset: tag + task + scenario
  // + 3 length-prefixed strings + 3 config u64s. Find it by flipping it
  // through encode of a modified struct instead of offset arithmetic.
  assign.session.unique_tracking = guessing::UniqueTracking::kOff;
  const std::string payload_off = encode(assign);
  ASSERT_EQ(payload.size(), payload_off.size());
  std::size_t diff = payload.size();
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (payload[i] != payload_off[i]) {
      diff = i;
      break;
    }
  }
  ASSERT_LT(diff, payload.size());
  payload[diff] = '\x17';  // tracking mode 23: out of range
  EXPECT_THROW(decode(payload), std::runtime_error);
}

TEST(ShardRanges, PartitionsWithBalancedSizes) {
  const auto ranges = guessing::split_shard_ranges(10, 3);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[0].end, 4u);  // remainder shard goes first
  EXPECT_EQ(ranges[1].begin, 4u);
  EXPECT_EQ(ranges[1].end, 7u);
  EXPECT_EQ(ranges[2].begin, 7u);
  EXPECT_EQ(ranges[2].end, 10u);
}

TEST(ShardRanges, CoversEveryShardExactlyOnce) {
  for (std::size_t shards = 1; shards <= 17; ++shards) {
    for (std::size_t parts = 1; parts <= 6; ++parts) {
      const auto ranges = guessing::split_shard_ranges(shards, parts);
      std::size_t covered = 0;
      std::size_t expect_begin = 0;
      for (const auto& range : ranges) {
        EXPECT_EQ(range.begin, expect_begin);
        EXPECT_LT(range.begin, range.end);
        covered += range.end - range.begin;
        expect_begin = range.end;
      }
      EXPECT_EQ(covered, shards);
      EXPECT_EQ(ranges.size(), std::min(parts, shards));
    }
  }
}

TEST(ShardRanges, RejectsZeroCounts) {
  EXPECT_THROW(guessing::split_shard_ranges(0, 2), std::invalid_argument);
  EXPECT_THROW(guessing::split_shard_ranges(8, 0), std::invalid_argument);
}

TEST(Backoff, GrowsToCapAndExhausts) {
  BackoffPolicy policy;
  policy.initial_delay_seconds = 0.1;
  policy.multiplier = 2.0;
  policy.max_delay_seconds = 0.5;
  policy.max_attempts = 4;
  Backoff backoff(policy);
  EXPECT_FALSE(backoff.exhausted());
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.1);
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.2);
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.4);
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.5);  // capped
  EXPECT_TRUE(backoff.exhausted());
  backoff.reset();
  EXPECT_FALSE(backoff.exhausted());
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.1);
}

TEST(Worker, RejectsNullFactory) {
  EXPECT_THROW(Worker(WorkerConfig{}, ScenarioFactory{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace passflow::dist
