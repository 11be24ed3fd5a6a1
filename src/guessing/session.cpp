#include "guessing/session.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/logging.hpp"
#include "util/serial_io.hpp"

namespace passflow::guessing {

namespace {

constexpr char kMagic[] = "PFSESS1\n";
constexpr char kEndMagic[] = "PFSESSE\n";

namespace io = util::io;

}  // namespace

using util::MutexLock;
using util::ReleasableMutexLock;

AttackSession::AttackSession(GuessGenerator& generator, MatcherRef matcher,
                             SessionConfig config)
    : generator_(&generator),
      matcher_(std::move(matcher)),
      config_(std::move(config)) {
  if (config_.chunk_size == 0) {
    throw std::invalid_argument("SessionConfig::chunk_size must be > 0");
  }
  for (const std::size_t cp : config_.checkpoints) {
    if (cp > config_.budget) {
      // A chunk is sized up to the next checkpoint, so a checkpoint past
      // the budget would make the run overshoot it.
      throw std::invalid_argument("SessionConfig::checkpoints " +
                                  std::to_string(cp) + " exceeds the budget " +
                                  std::to_string(config_.budget));
    }
  }
  // Feedback-driven generators (Algorithm 1) must see each chunk's matches
  // before producing the next chunk, so generation cannot run ahead.
  pipelined_ =
      config_.pipeline_depth > 0 && !generator_->uses_match_feedback();
  fold_on_pool_ = pipelined_ && config_.pool != nullptr &&
                  config_.unique_tracking != UniqueTracking::kOff;
  tracker_ = make_unique_tracker(config_.unique_tracking,
                                 config_.unique_shards,
                                 config_.sketch_precision_bits);
  // name() is not covered by the uses_match_feedback() contract, so it is
  // captured before any background generate() could race with it.
  generator_name_ = config_.log_progress ? generator_->name() : "";
  plan_schedule();
  refresh_stats();
}

AttackSession::~AttackSession() {
  try {
    pause_pipeline();
  } catch (...) {
    // Destructor must not throw; a pipeline error on teardown is dropped.
  }
}

void AttackSession::plan_schedule() {
  if (config_.checkpoints.empty()) {
    config_.checkpoints = power_of_ten_checkpoints(config_.budget);
  }
  std::sort(config_.checkpoints.begin(), config_.checkpoints.end());

  // Chunk request sizes are a pure function of budget/checkpoints/
  // chunk_size (generate() appends exactly n), so the whole schedule is
  // fixed up front: chunks never cross a checkpoint, and the pipelined
  // producer issues exactly the serial generate() call sequence.
  std::size_t planned = 0;
  std::size_t ci = 0;
  while (planned < config_.budget) {
    const std::size_t next_stop = ci < config_.checkpoints.size()
                                      ? config_.checkpoints[ci]
                                      : config_.budget;
    const std::size_t chunk =
        std::min(config_.chunk_size, next_stop - planned);
    schedule_.push_back(chunk);
    planned += chunk;
    while (ci < config_.checkpoints.size() &&
           planned >= config_.checkpoints[ci]) {
      ++ci;
    }
  }
}

void AttackSession::check_usable() const {
  if (load_failed_) {
    throw std::logic_error(
        "AttackSession is unusable: a previous load_state failed partway, "
        "so its state is incomplete");
  }
}

bool AttackSession::step() {
  check_usable();
  if (finished()) {
    refresh_stats();
    return false;
  }
  if (!timer_started_) {
    timer_.reset();
    timer_started_ = true;
  }
  if (pipelined_ && !pipeline_running_) start_pipeline();
  // An error can abort a step between consuming its chunk and emitting its
  // checkpoint. Emit anything due *before* the next chunk, so the retried
  // checkpoint still reads the tracker at its own boundary.
  emit_due_checkpoints();
  std::shared_ptr<Chunk> chunk = take_chunk();
  consume_chunk(*chunk);
  ++next_chunk_;
  fold(std::move(chunk));
  emit_due_checkpoints();
  // Natural end of the run: join the producer and wait out the drain, so
  // result() reports the exact final unique count.
  if (finished()) pause_pipeline();
  refresh_stats();
  return true;
}

const SessionStats& AttackSession::run_until(std::size_t guess_target) {
  const std::size_t target = std::min(guess_target, config_.budget);
  while (produced_ < target && step()) {
  }
  return stats_;
}

const SessionStats& AttackSession::run() { return run_until(config_.budget); }

std::shared_ptr<AttackSession::Chunk> AttackSession::take_chunk() {
  std::shared_ptr<Chunk> chunk;
  {
    ReleasableMutexLock lock(mu_);
    while (pipeline_running_ && !pipeline_error_ && ready_.empty()) {
      cv_.wait(lock);
    }
    if (pipeline_error_) {
      lock.unlock();
      pause_pipeline();  // joins the producer and rethrows the stored error
      return nullptr;    // not reached
    }
    if (!ready_.empty()) {
      chunk = std::move(ready_.front());
      ready_.pop_front();
    }
  }
  cv_.notify_all();  // frees a producer slot while we consume
  if (chunk == nullptr) {
    // No producer runs ahead: generate the chunk here.
    chunk = std::make_shared<Chunk>();
    chunk->batch.reserve(schedule_[next_chunk_]);
    generator_->generate(schedule_[next_chunk_], chunk->batch);
    chunk->deliver_feedback = true;
  }
  if (!chunk->has_membership) {
    // Generated here, thawed (stored without membership; the matcher is
    // identical, so recomputing preserves every metric), or left unmatched
    // by a failed producer match.
    try {
      matcher_->contains_batch(chunk->batch, config_.pool, chunk->membership);
    } catch (...) {
      // The generator's stream is already past this chunk: keep it at the
      // head of the queue so the retried step matches it again.
      MutexLock lock(mu_);
      ready_.push_front(std::move(chunk));
      throw;
    }
    chunk->has_membership = true;
  }
  return chunk;
}

void AttackSession::consume_chunk(const Chunk& chunk) {
  // A "match" is counted once per distinct test-set password (re-guessing
  // an already matched password does not count again), mirroring |P| in
  // Algorithm 1.
  for (std::size_t i = 0; i < chunk.batch.size(); ++i) {
    const std::string& guess = chunk.batch[i];
    if (chunk.membership[i] != 0) {
      if (matched_set_.insert(guess).second) {
        result_.matched_passwords.push_back(guess);
        // Chunks from the producer (or a thawed stream) skip the callback:
        // the generator declared feedback unused, and may be producing a
        // later chunk right now.
        if (chunk.deliver_feedback) generator_->on_match(i, guess);
      }
    } else if (result_.sample_non_matched.size() <
                   config_.non_matched_samples &&
               !guess.empty() && non_matched_seen_.insert(guess).second) {
      result_.sample_non_matched.push_back(guess);
    }
  }
  produced_ += chunk.batch.size();
}

void AttackSession::fold(std::shared_ptr<Chunk> chunk) {
  bool spawn_drain = false;
  {
    MutexLock lock(mu_);
    tracking_.push_back(std::move(chunk));
    spawn_drain = fold_on_pool_ && !drain_active_;
    if (spawn_drain) drain_active_ = true;
  }
  if (spawn_drain) {
    // Overwriting the previous drain's future is safe: a new drain only
    // starts after the old one flipped drain_active_ off in its final
    // locked section, and only pause_pipeline's wait needs the latest one.
    tracker_future_ = config_.pool->submit([this] { tracker_drain(); });
  } else if (!fold_on_pool_) {
    sync_tracker();  // drains inline, rethrowing if the fold failed
  }
}

bool AttackSession::tracker_drain() {
  for (;;) {
    std::shared_ptr<Chunk> chunk;
    {
      MutexLock lock(mu_);
      if (tracking_.empty()) {
        // Final touch of session state, notified under the lock: once it
        // is released a successor drain can start and pause_pipeline can
        // wait on *that* future, so nothing may touch the session after.
        drain_active_ = false;
        cv_.notify_all();
        return true;
      }
      chunk = std::move(tracking_.front());
      tracking_.pop_front();
    }
    try {
      tracker_->add_batch(chunk->batch, config_.pool);
    } catch (...) {
      MutexLock lock(mu_);
      // The chunk was consumed, so its guesses are still owed to the
      // tracker: requeue it for the next drain instead of losing it.
      tracking_.push_front(std::move(chunk));
      pipeline_error_ = std::current_exception();
      drain_active_ = false;
      cv_.notify_all();
      return false;
    }
    MutexLock lock(mu_);
    published_unique_ = tracker_->count();
  }
}

void AttackSession::sync_tracker() {
  bool failed = false;
  bool drain_here = false;
  {
    ReleasableMutexLock lock(mu_);
    while (!pipeline_error_ && drain_active_) cv_.wait(lock);
    failed = pipeline_error_ != nullptr;
    drain_here = !failed && !tracking_.empty();
    if (drain_here) drain_active_ = true;
  }
  if (drain_here) failed = !tracker_drain();
  if (failed) pause_pipeline();  // joins the stages, rethrows the error
  last_synced_unique_ = tracker_->count();
}

Checkpoint AttackSession::make_checkpoint(std::size_t guesses,
                                          std::size_t unique) const {
  Checkpoint cp;
  cp.guesses = guesses;
  cp.unique = unique;
  cp.matched = matched_set_.size();
  cp.matched_percent =
      matcher_->test_set_size() > 0
          ? 100.0 * static_cast<double>(cp.matched) /
                static_cast<double>(matcher_->test_set_size())
          : 0.0;
  return cp;
}

void AttackSession::emit_due_checkpoints() {
  while (checkpoint_index_ < config_.checkpoints.size() &&
         produced_ >= config_.checkpoints[checkpoint_index_]) {
    // Checkpoints report the unique count at an exact chunk boundary.
    sync_tracker();
    const Checkpoint cp = make_checkpoint(
        config_.checkpoints[checkpoint_index_], last_synced_unique_);
    result_.checkpoints.push_back(cp);
    ++checkpoint_index_;
    if (config_.log_progress) {
      PF_LOG_INFO << generator_name_ << ": " << cp.guesses << " guesses, "
                  << cp.matched << " matched (" << cp.matched_percent
                  << "%), " << cp.unique << " unique";
    }
  }
}

void AttackSession::refresh_stats() {
  stats_.produced = produced_;
  stats_.matched = matched_set_.size();
  if (fold_on_pool_ && pipeline_running_) {
    MutexLock lock(mu_);
    stats_.unique = published_unique_;
  } else {
    stats_.unique = tracker_->count();
  }
  stats_.checkpoints_emitted = result_.checkpoints.size();
  stats_.seconds =
      seconds_accum_ + (timer_started_ ? timer_.elapsed_seconds() : 0.0);
  stats_.guesses_per_second =
      stats_.seconds > 0.0
          ? static_cast<double>(produced_) / stats_.seconds
          : 0.0;
  stats_.finished = finished();
}

RunResult AttackSession::result() const {
  check_usable();
  RunResult out = result_;
  if (out.checkpoints.empty() || out.checkpoints.back().guesses != produced_) {
    const std::size_t unique = fold_on_pool_ && pipeline_running_
                                   ? last_synced_unique_
                                   : tracker_->count();
    out.checkpoints.push_back(make_checkpoint(produced_, unique));
  }
  out.seconds =
      seconds_accum_ + (timer_started_ ? timer_.elapsed_seconds() : 0.0);
  return out;
}

bool AttackSession::merge_unique_sketch(util::CardinalitySketch& out) {
  check_usable();
  // Same barrier as a checkpoint: the contribution must cover exactly the
  // chunks consumed so far.
  sync_tracker();
  return tracker_->merge_into(out);
}

// ---- pipeline ------------------------------------------------------------

void AttackSession::start_pipeline() {
  std::size_t first_chunk = 0;
  {
    // No producer exists yet, but the state below is mu_-guarded once it
    // does — initialize it under the lock so the happens-before edge to the
    // spawned thread is the same one the protocol relies on.
    MutexLock lock(mu_);
    producer_stop_ = false;
    // Queued chunks are consumed first; the producer resumes generating
    // after them (the generator's stream is already positioned past them).
    first_chunk = next_chunk_ + ready_.size();
    published_unique_ = tracker_->count();
  }
  pipeline_running_ = true;
  producer_thread_ =
      std::thread(&AttackSession::producer_loop, this, first_chunk);
}

void AttackSession::pause_pipeline() {
  if (pipeline_running_) {
    {
      MutexLock lock(mu_);
      producer_stop_ = true;
    }
    cv_.notify_all();
    producer_thread_.join();
    // The drain task exits only once `tracking_` is empty (or on error);
    // its future is ready strictly after the task function has returned,
    // so the task can never touch session state after this wait — which is
    // what makes destruction safe.
    if (tracker_future_.valid()) tracker_future_.wait();
    pipeline_running_ = false;
  }
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    error = std::exchange(pipeline_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void AttackSession::producer_loop(std::size_t chunk_index) {
  try {
    for (; chunk_index < schedule_.size(); ++chunk_index) {
      {
        ReleasableMutexLock lock(mu_);
        while (!producer_stop_ && ready_.size() >= config_.pipeline_depth) {
          cv_.wait(lock);
        }
        if (producer_stop_) return;
      }
      auto chunk = std::make_shared<Chunk>();
      chunk->batch.reserve(schedule_[chunk_index]);
      generator_->generate(schedule_[chunk_index], chunk->batch);
      std::exception_ptr match_error;
      try {
        matcher_->contains_batch(chunk->batch, config_.pool,
                                 chunk->membership);
        chunk->has_membership = true;
      } catch (...) {
        // The generator's stream is already past this chunk: queue it
        // unmatched, so the retried step matches it like a thawed one.
        match_error = std::current_exception();
      }
      {
        MutexLock lock(mu_);
        ready_.push_back(std::move(chunk));
        if (match_error) pipeline_error_ = match_error;
      }
      cv_.notify_all();
      if (match_error) return;
    }
  } catch (...) {
    MutexLock lock(mu_);
    pipeline_error_ = std::current_exception();
    cv_.notify_all();
  }
}

// ---- save / resume -------------------------------------------------------

void AttackSession::save_state(std::ostream& out) {
  check_usable();
  if (!generator_->supports_state_serialization()) {
    throw std::logic_error(
        "AttackSession::save_state requires a generator with state "
        "serialization (generator '" +
        generator_->name() + "' has none)");
  }
  pause_pipeline();
  sync_tracker();  // the saved tracker must cover every consumed chunk

  out.write(kMagic, sizeof(kMagic) - 1);
  // Run-shape echo, validated on load: a resumed session must describe
  // the same attack or its metrics would silently diverge. The generator
  // name guards against thawing a stream into a different strategy (or a
  // differently-configured one, for generators whose name reflects
  // configuration, e.g. "PassFlow-Dynamic+GS" vs "PassFlow-Dynamic").
  io::write_string(out, generator_->name());
  io::write_u64(out, config_.budget);
  io::write_u64(out, config_.chunk_size);
  io::write_u64(out, config_.non_matched_samples);
  io::write_u64(out, static_cast<std::uint64_t>(config_.unique_tracking));
  io::write_u64(out, config_.checkpoints.size());
  for (const std::size_t cp : config_.checkpoints) io::write_u64(out, cp);

  io::write_u64(out, produced_);
  io::write_u64(out, next_chunk_);
  io::write_u64(out, checkpoint_index_);
  io::write_f64(out, seconds_accum_ +
                         (timer_started_ ? timer_.elapsed_seconds() : 0.0));

  io::write_u64(out, result_.checkpoints.size());
  for (const Checkpoint& cp : result_.checkpoints) {
    io::write_u64(out, cp.guesses);
    io::write_u64(out, cp.unique);
    io::write_u64(out, cp.matched);
    io::write_f64(out, cp.matched_percent);
  }
  io::write_string_vec(out, result_.matched_passwords);
  io::write_string_vec(out, result_.sample_non_matched);

  tracker_->save(out);

  {
    // Chunks generated ahead of consumption when the pipeline paused. The
    // generator's stream state (below) is already positioned past them.
    // The pipeline was paused above, so the lock is uncontended.
    MutexLock lock(mu_);
    io::write_u64(out, ready_.size());
    for (const auto& chunk : ready_) io::write_string_vec(out, chunk->batch);
  }

  generator_->save_state(out);
  out.write(kEndMagic, sizeof(kEndMagic) - 1);
  if (!out) throw std::runtime_error("AttackSession state write failed");
}

void AttackSession::load_state(std::istream& in) {
  check_usable();
  if (produced_ != 0 || next_chunk_ != 0 || !result_.checkpoints.empty()) {
    throw std::logic_error(
        "AttackSession::load_state must run before the first step()");
  }
  try {
    load_state_impl(in);
  } catch (...) {
    // The stream failed partway: bookkeeping, tracker and generator state
    // are now mutually inconsistent. Poison the session so the half-thawed
    // attack can never run — resuming it would report wrong metrics with
    // no sign anything was lost.
    load_failed_ = true;
    throw;
  }
}

void AttackSession::load_state_impl(std::istream& in) {
  io::expect_magic(in, kMagic, "AttackSession");

  const std::string saved_generator = io::read_string(in);
  if (saved_generator != generator_->name()) {
    throw std::runtime_error("saved session was produced by generator '" +
                             saved_generator + "', not '" +
                             generator_->name() + "'");
  }

  const auto check = [](std::uint64_t saved, std::uint64_t live,
                        const char* what) {
    if (saved != live) {
      throw std::runtime_error(
          std::string("saved session does not match this config: ") + what +
          " was " + std::to_string(saved) + ", live " + std::to_string(live));
    }
  };
  check(io::read_u64(in), config_.budget, "budget");
  check(io::read_u64(in), config_.chunk_size, "chunk_size");
  check(io::read_u64(in), config_.non_matched_samples,
        "non_matched_samples");
  check(io::read_u64(in),
        static_cast<std::uint64_t>(config_.unique_tracking),
        "unique_tracking");
  check(io::read_u64(in), config_.checkpoints.size(), "checkpoint count");
  for (std::size_t i = 0; i < config_.checkpoints.size(); ++i) {
    check(io::read_u64(in), config_.checkpoints[i], "checkpoint value");
  }

  produced_ = io::read_u64(in);
  next_chunk_ = io::read_u64(in);
  checkpoint_index_ = io::read_u64(in);
  seconds_accum_ = io::read_f64(in);
  timer_started_ = false;

  const std::uint64_t checkpoint_count = io::read_u64(in);
  result_.checkpoints.clear();
  for (std::uint64_t i = 0; i < checkpoint_count; ++i) {
    Checkpoint cp;
    cp.guesses = io::read_u64(in);
    cp.unique = io::read_u64(in);
    cp.matched = io::read_u64(in);
    cp.matched_percent = io::read_f64(in);
    result_.checkpoints.push_back(cp);
  }
  result_.matched_passwords = io::read_string_vec(in);
  result_.sample_non_matched = io::read_string_vec(in);
  matched_set_ = std::unordered_set<std::string>(
      result_.matched_passwords.begin(), result_.matched_passwords.end());
  // The reservoir stops inserting once full, so the seen-set is exactly
  // the sampled set.
  non_matched_seen_ = std::unordered_set<std::string>(
      result_.sample_non_matched.begin(), result_.sample_non_matched.end());

  tracker_->load(in);
  last_synced_unique_ = tracker_->count();

  const std::uint64_t pending_count = io::read_u64(in);
  {
    // load_state runs before the first step(), so no pipeline exists; the
    // lock keeps ready_ inside the annotated protocol.
    MutexLock lock(mu_);
    ready_.clear();
    for (std::uint64_t i = 0; i < pending_count; ++i) {
      auto chunk = std::make_shared<Chunk>();
      chunk->batch = io::read_string_vec(in);
      ready_.push_back(std::move(chunk));
    }
  }

  generator_->load_state(in);
  io::expect_magic(in, kEndMagic, "AttackSession trailer");
  refresh_stats();
}

}  // namespace passflow::guessing
