// Streaming attack engine.
//
// An AttackSession owns the bookkeeping of one guessing attack: it drives a
// GuessGenerator against a Matcher in chunk-sized steps, tracks matches /
// distinct guesses / non-matched samples, snapshots metrics at the
// configured checkpoints, and can freeze itself to a stream (save_state)
// and thaw in another process (load_state) so a 10^8-guess attack survives
// a restart.
//
//   HashSetMatcher matcher(test_set);
//   SessionConfig config;
//   config.budget = 100000000;
//   config.pipeline_depth = 4;
//   config.pool = &util::shared_pool();
//   AttackSession session(sampler, matcher, config);
//   while (session.step()) {
//     if (want_progress) log(session.stats());
//     if (want_checkpoint) { std::ofstream out(path); session.save_state(out); }
//   }
//   RunResult result = session.result();
//
// Every step() runs the same body: take the next chunk (chunks thawed or
// left queued by a pause come first, then the producer thread's; with no
// producer the chunk is generated and matched right there), apply its
// match / sample bookkeeping in stream order on the calling thread, and
// hand it to the tracker stage, a serial drain that folds consumed chunks
// into the UniqueTracker in order.
//
// Pipelining: with pipeline_depth >= 1 and a generator that ignores match
// feedback (uses_match_feedback() == false), a persistent producer thread
// keeps up to `pipeline_depth` chunks generated and pre-matched ahead of
// consumption through a bounded queue. If the session also has a pool, the
// tracker drain runs there as at most one ThreadPool::submit() task at a
// time, off the consuming thread; otherwise it runs inline after each
// chunk. Chunk sizes and generate() call order are exactly the serial
// schedule, bookkeeping is applied in stream order, and set-union unique
// counting is order-independent, so every reported metric is bitwise
// identical to a serial run at any depth. Feedback-driven generators
// (Algorithm 1) must see each chunk's matches before producing the next,
// so for them the session generates inline and delivers on_match() exactly
// like the seed loop.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <future>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "guessing/generator.hpp"
#include "guessing/matcher.hpp"
#include "guessing/metrics.hpp"
#include "guessing/unique_tracker.hpp"
#include "util/annotated_sync.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace passflow::guessing {

struct SessionConfig {
  std::size_t budget = 100000;           // total guesses to generate
  // Guess counts to snapshot metrics at, each <= budget; empty => powers
  // of ten.
  std::vector<std::size_t> checkpoints;
  std::size_t chunk_size = 16384;        // guesses per generate() call
  std::size_t non_matched_samples = 40;  // reservoir for Table IV

  // Distinct-guess accounting: exact (seed behavior), HLL sketch (bounded
  // memory for huge runs), or off. See unique_tracker.hpp.
  UniqueTracking unique_tracking = UniqueTracking::kExact;
  std::size_t unique_shards = 1;        // exact-tracker shards
  unsigned sketch_precision_bits = 14;  // sketch resolution (16 KiB at 14)

  // Chunks a producer thread keeps generated ahead of consumption. 0 =
  // each step() generates its own chunk; 1 overlaps generation with one
  // chunk of matching; deeper queues smooth stage imbalance (bursty
  // generators, tracker growth spikes). Only engages for generators that
  // ignore match feedback.
  std::size_t pipeline_depth = 0;

  // Non-owning worker pool for bulk matching and sharded tracker inserts;
  // with a producer thread, the tracker drain runs on it too.
  util::ThreadPool* pool = nullptr;

  bool log_progress = false;
};

// Monotone snapshot of a session's progress, refreshed on every step().
struct SessionStats {
  std::size_t produced = 0;   // guesses generated and consumed so far
  std::size_t matched = 0;    // distinct test-set passwords matched
  std::size_t unique = 0;     // distinct guesses (estimate in sketch mode)
  std::size_t checkpoints_emitted = 0;
  double seconds = 0.0;       // active run time (excludes frozen time)
  double guesses_per_second = 0.0;
  bool finished = false;
};

// Handle to the matcher a session probes: either borrowed (construct from
// a reference the caller keeps alive) or shared (several concurrent
// sessions attacking one big test set hold joint ownership).
class MatcherRef {
 public:
  MatcherRef(const Matcher& matcher) : matcher_(&matcher) {}  // NOLINT
  MatcherRef(std::shared_ptr<const Matcher> matcher)          // NOLINT
      : matcher_(matcher.get()), owned_(std::move(matcher)) {}

  const Matcher& operator*() const { return *matcher_; }
  const Matcher* operator->() const { return matcher_; }
  const Matcher* get() const { return matcher_; }

 private:
  const Matcher* matcher_;
  std::shared_ptr<const Matcher> owned_;
};

class AttackSession {
 public:
  AttackSession(GuessGenerator& generator, MatcherRef matcher,
                SessionConfig config);
  ~AttackSession();

  AttackSession(const AttackSession&) = delete;
  AttackSession& operator=(const AttackSession&) = delete;

  // Processes the next chunk of the schedule: take it (generating and
  // matching it here when no producer runs ahead), record it, fold it.
  // Returns true while the budget is not exhausted; returns false (doing
  // nothing) once it is. A step that throws leaves the session retryable:
  // a chunk whose match or fold failed is requeued, never dropped.
  bool step();

  // Steps until at least `guess_target` total guesses have been produced
  // (clamped to the budget). Returns the refreshed stats snapshot.
  const SessionStats& run_until(std::size_t guess_target);

  // Runs to completion.
  const SessionStats& run();

  bool finished() const { return next_chunk_ >= schedule_.size(); }
  const SessionStats& stats() const { return stats_; }
  const SessionConfig& config() const { return config_; }

  // Metrics in the seed RunResult shape; callable mid-run (appends the
  // implicit final checkpoint for the guesses produced so far, exactly
  // like the seed loop did at the end of a run). While the tracker drain
  // runs on the pool, the unique count of a mid-run snapshot is the
  // tracker's value as of the last checkpoint sync; otherwise, and at
  // completion, it is exact.
  RunResult result() const;

  // Freezes the session: pauses the pipeline (chunks already generated but
  // not yet consumed are serialized as part of the state, so no guesses
  // are lost or repeated), then writes bookkeeping, tracker and generator
  // stream state. Requires generator->supports_state_serialization().
  // The session stays usable afterwards; the pipeline restarts on the
  // next step().
  void save_state(std::ostream& out);

  // Restores a save_state() stream into a freshly constructed session.
  // Must be called before the first step(); throws if the saved run shape
  // (budget / chunk size / checkpoints / tracking mode) does not match
  // this session's config. pipeline_depth, pool and shard counts may
  // differ — they do not affect metrics. A load that throws mid-stream
  // (truncated or corrupt state) leaves the session POISONED: every
  // subsequent step()/save_state()/result() throws std::logic_error, so a
  // half-thawed attack can never run and report silently-wrong metrics.
  void load_state(std::istream& in);

  // Folds this session's distinct-guess state into `out`, the fleet-wide
  // union accumulator (see UniqueTracker::merge_into): waits for any
  // background tracker work to drain first, so the contribution covers
  // every consumed chunk. Returns false when tracking is off. Must not be
  // called concurrently with step() — the scheduler quiesces its slices
  // before aggregating.
  bool merge_unique_sketch(util::CardinalitySketch& out);

 private:
  struct Chunk {
    std::vector<std::string> batch;
    std::vector<char> membership;
    bool has_membership = false;
    // Generated on the consuming thread, so on_match() indices point into
    // the generator's most recent batch.
    bool deliver_feedback = false;
  };

  void plan_schedule();
  void load_state_impl(std::istream& in);
  // Throws if a failed load_state left the session half-thawed.
  void check_usable() const;
  // The next chunk of the schedule, matched. Runs on the consuming thread.
  std::shared_ptr<Chunk> take_chunk();
  // Stream-order bookkeeping for one chunk; always runs on the consuming
  // thread.
  void consume_chunk(const Chunk& chunk);
  // Queues a consumed chunk for the tracker drain: spawns the pool drain
  // if none is in flight, or with no pool drain, folds it right here.
  void fold(std::shared_ptr<Chunk> chunk);
  // Folds queued chunks until none is left (true) or a fold throws (false,
  // with the error stored in pipeline_error_).
  bool tracker_drain();
  // Barrier: returns once every consumed chunk is folded (running the
  // drain here unless a pool drain is in flight), rethrowing stage errors.
  void sync_tracker();
  void emit_due_checkpoints();
  void refresh_stats();
  Checkpoint make_checkpoint(std::size_t guesses, std::size_t unique) const;

  void start_pipeline();
  // Joins the producer and waits out the pool drain, so only the calling
  // thread touches the session; then rethrows any error a stage stored.
  // Chunks generated ahead of consumption stay queued in ready_.
  void pause_pipeline();
  void producer_loop(std::size_t chunk_index);

  GuessGenerator* generator_;
  MatcherRef matcher_;
  SessionConfig config_;
  bool pipelined_ = false;      // config requests it and the generator allows it
  bool fold_on_pool_ = false;   // tracker drain runs as a pool task

  std::vector<std::size_t> schedule_;  // chunk sizes; fixed up front
  std::size_t next_chunk_ = 0;         // consumer cursor into schedule_
  std::size_t produced_ = 0;
  std::size_t checkpoint_index_ = 0;

  std::unique_ptr<UniqueTracker> tracker_;
  // Consumer-thread-only: refreshed at checkpoint syncs, which run on the
  // consuming thread after the drain has caught up — mu_ never guards it.
  std::size_t last_synced_unique_ = 0;
  std::unordered_set<std::string> matched_set_;
  std::unordered_set<std::string> non_matched_seen_;
  RunResult result_;
  SessionStats stats_;
  std::string generator_name_;  // captured before any background generate()

  util::Timer timer_;
  bool timer_started_ = false;  // armed on the first step()
  double seconds_accum_ = 0.0;  // run time carried across save/resume
  bool load_failed_ = false;    // poisoned by a throwing load_state

  // ---- stage state (guarded by mu_ unless noted) ----
  util::Mutex mu_;
  util::CondVar cv_;
  // Chunks ready for consumption, in stream order: thawed or requeued ones
  // at the head, then the producer's.
  std::deque<std::shared_ptr<Chunk>> ready_ PF_GUARDED_BY(mu_);
  // Consumed chunks owed to the tracker, folded FIFO by the drain. An
  // error requeues the failing chunk at the front, so the next drain
  // re-folds it (folds are set unions, so a partial fold is harmless).
  std::deque<std::shared_ptr<Chunk>> tracking_ PF_GUARDED_BY(mu_);
  std::size_t published_unique_ PF_GUARDED_BY(mu_) = 0;
  bool producer_stop_ PF_GUARDED_BY(mu_) = false;
  // The drain is a serial executor: at most one runs at a time, inline or
  // as a pool task, and whoever flips this on owns it until it flips off.
  bool drain_active_ PF_GUARDED_BY(mu_) = false;
  std::exception_ptr pipeline_error_ PF_GUARDED_BY(mu_);
  // Consumer-thread-only: flipped by start_pipeline/pause_pipeline, which
  // only run on the consuming thread while no producer exists — a
  // protocol mu_ cannot express, so it stays unannotated (see
  // annotated_sync.hpp usage rules).
  bool pipeline_running_ = false;
  std::thread producer_thread_;
  // Latest pool drain task. Consumer-thread-only: written by fold() when it
  // takes drain ownership, read only by pause_pipeline.
  std::future<void> tracker_future_;
};

}  // namespace passflow::guessing
