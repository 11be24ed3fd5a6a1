// The screening workload: an in-process StrengthServer on loopback.
//
// Inputs (all from the seed, before any clock starts): an index of about
// 10^6 standard-corpus keys written with IndexBuilder and fsync'd, a pool
// of candidates (half index members, half fresh draws), a Poisson arrival
// schedule and the query mix. Set-up is the server's launch-to-ready:
// paper-architecture model construction, MappedMatcher open, and the
// StrengthServer constructor (calibration and bind).
//
//   phase A  open loop: Poisson arrivals at kOfferedQps, 90% single-
//            candidate checks and 10% bulk queries of 32, one client
//            thread; each query is timed from its due time, and refused
//            or failed queries count as +inf latency.
//   phase B  closed loop: kOutstanding bulk queries of 32 kept in flight;
//            candidates scored per second is the saturation throughput.
//
// Each phase gets its own server, because StrengthServerStats is readable
// only after run() returns. Every Ok reply is checked bitwise against
// in-process StrengthServer::score() on the same candidates.
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "data/alphabet.hpp"
#include "data/synthetic_rockyou.hpp"
#include "dist/protocol.hpp"
#include "guessing/mapped_matcher.hpp"
#include "serve/strength_client.hpp"
#include "serve/strength_server.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace pf = passflow;
namespace g = passflow::guessing;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Phase A's offered rate: about a third of the saturation rate this mix
// reaches on a 4-core host, so queueing does not amplify host noise. A
// constant, so every commit is offered the same load.
constexpr double kOfferedQps = 500.0;
constexpr double kBulkShare = 0.10;
constexpr std::size_t kBulkSize = 32;
constexpr std::size_t kOutstanding = 8;  // phase B queries in flight
constexpr std::size_t kPoolSize = 4096;  // distinct candidates queried
// Phase A's percentiles are taken per third of its schedule and the median
// third reported: a host stall inside one third cannot move the run's
// figure, and at 20 s each third keeps over ten samples beyond its p99.
constexpr std::size_t kLatencyWindows = 3;

struct ScreenPlan {
  std::size_t index_keys = 0;  // draws before dedup
  double phase_a_s = 0.0;
  double phase_b_s = 0.0;
};

struct Query {
  double due = 0.0;  // seconds after the phase origin
  std::uint32_t begin = 0;  // candidates: pool[begin, begin + count)
  std::uint32_t count = 0;
};

struct ScreenInputs {
  std::string index_path;
  std::vector<std::string> pool;
  std::vector<Query> schedule;              // phase A
  std::vector<std::uint32_t> bulk_offsets;  // phase B query starts
  std::size_t index_keys = 0;
};

// Removes the index file and its spill files on every exit path.
struct IndexFile {
  std::string path;
  ~IndexFile() {
    if (!path.empty()) std::filesystem::remove(path);
  }
};

void fsync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot fsync " + path);
  }
  ::close(fd);
}

ScreenInputs make_inputs(const ScreenPlan& plan, const RunArgs& args,
                         const std::string& index_path) {
  ScreenInputs inputs;
  inputs.index_path = index_path;
  pf::data::SyntheticRockyou keys_source(pf::data::CorpusConfig{},
                                         derive_seed(args.seed, 11));
  std::vector<std::string> keys = keys_source.generate(plan.index_keys);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  inputs.index_keys = keys.size();

  // Candidates: half index members, half fresh draws (mostly misses).
  pf::util::Rng rng(derive_seed(args.seed, 12));
  pf::data::SyntheticRockyou fresh(pf::data::CorpusConfig{},
                                   derive_seed(args.seed, 13));
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    inputs.pool.push_back(i % 2 == 0 ? keys[rng.uniform_index(keys.size())]
                                     : fresh.sample(rng));
  }
  g::IndexBuilder::build(keys, index_path);
  keys.clear();
  keys.shrink_to_fit();
  fsync_file(index_path);

  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / kOfferedQps;
    if (t > plan.phase_a_s) break;
    Query query;
    query.due = t;
    query.count = rng.uniform() < kBulkShare ? kBulkSize : 1;
    query.begin = static_cast<std::uint32_t>(
        rng.uniform_index(kPoolSize - query.count + 1));
    inputs.schedule.push_back(query);
  }
  for (std::size_t i = 0; i < 64; ++i) {
    inputs.bulk_offsets.push_back(static_cast<std::uint32_t>(
        rng.uniform_index(kPoolSize - kBulkSize + 1)));
  }
  return inputs;
}

struct ScreenProgram {
  std::unique_ptr<pf::data::Encoder> encoder;
  std::unique_ptr<pf::flow::FlowModel> model;
  std::shared_ptr<const g::Matcher> index;
  std::unique_ptr<pf::serve::StrengthServer> server;
};

pf::serve::StrengthServerConfig server_config() {
  pf::serve::StrengthServerConfig config;  // default batch and calibration
  config.pool = &pf::util::shared_pool();
  return config;
}

ScreenProgram set_up(const ScreenInputs& inputs, SetupTimes& times) {
  ScreenProgram program;
  const double t0 = now_s();
  {
    Tracer::Scope span(tracer(), "setup.model", 0);
    program.encoder = std::make_unique<pf::data::Encoder>(
        pf::data::Alphabet::standard(), 10);
    pf::util::Rng rng(kPaperWeightSeed);
    program.model =
        std::make_unique<pf::flow::FlowModel>(paper_flow_config(), rng);
  }
  const double t1 = now_s();
  {
    Tracer::Scope span(tracer(), "setup.matcher", 0);
    program.index = std::make_shared<g::MappedMatcher>(inputs.index_path);
  }
  const double t2 = now_s();
  {
    Tracer::Scope span(tracer(), "setup.server", 0);
    program.server = std::make_unique<pf::serve::StrengthServer>(
        server_config(), *program.model, *program.encoder, program.index);
  }
  const double t3 = now_s();
  times = {t1 - t0, t2 - t1, t3 - t2, t3 - t0};
  return program;
}

// Runs a server's event loop on its own thread for the lifetime of this
// object; the destructor stops and joins it.
class ServerThread {
 public:
  explicit ServerThread(pf::serve::StrengthServer& server)
      : server_(server), thread_([this] {
          try {
            server_.run();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  // Reached without stop() only while another exception unwinds; that one
  // is the failure to report, so a loop error is only logged here.
  ~ServerThread() {
    join();
    if (error_) {
      std::fprintf(stderr, "passflow_e2e: server loop failed during unwind\n");
    }
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  // Stops the loop; rethrows what run() threw.
  void stop() {
    join();
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  void join() {
    if (!thread_.joinable()) return;
    server_.request_stop();
    thread_.join();
  }

  pf::serve::StrengthServer& server_;
  std::exception_ptr error_;
  std::thread thread_;
};

struct Reply {
  std::size_t begin = 0;
  std::vector<pf::dist::StrengthEstimate> estimates;
};

struct PhaseResult {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t refused = 0;
  std::size_t errors = 0;
  std::size_t candidates_ok = 0;
  double seconds = 0.0;
  double ended_at = 0.0;           // now_s() when the last reply landed
  std::vector<double> latency_s;   // phase A: from due time; +inf if failed
  std::vector<double> lateness_s;  // phase A: send time - due time
  std::vector<double> due_at;      // phase A: absolute due times
  std::vector<double> read_at;     // phase A: absolute reply read times
  std::vector<Reply> replies;      // Ok replies, for the bitwise check
  std::vector<double> send_s;      // client call durations
  std::vector<double> recv_s;
  std::size_t frame_bytes = 0;     // traced runs: computed wire bytes
  pf::serve::StrengthServerStats stats;
};

std::size_t frame_size(const pf::dist::Message& message) {
  return pf::util::encode_checkpoint_frame(pf::dist::encode(message)).size();
}

PhaseResult run_open_loop(pf::serve::StrengthServer& server,
                          const ScreenInputs& inputs) {
  const std::vector<Query>& schedule = inputs.schedule;
  const std::size_t n = schedule.size();
  PhaseResult phase;
  phase.attempted = n;
  phase.latency_s.assign(n, kInf);
  phase.lateness_s.assign(n, 0.0);
  phase.due_at.assign(n, 0.0);
  phase.read_at.assign(n, kInf);

  ServerThread loop(server);
  pf::serve::StrengthClient client("127.0.0.1", server.port());
  std::vector<std::string> candidates;
  const bool traced = tracer().enabled();
  const double origin = now_s() + 0.02;
  for (std::size_t i = 0; i < n; ++i) phase.due_at[i] = origin + schedule[i].due;
  std::size_t next = 0;
  std::size_t received = 0;
  double last_progress = now_s();
  try {
    while (received < n) {
      double now = now_s();
      while (next < n && phase.due_at[next] <= now) {
        const Query& query = schedule[next];
        candidates.assign(inputs.pool.begin() + query.begin,
                          inputs.pool.begin() + query.begin + query.count);
        const double start = now_s();
        {
          Tracer::Scope span(tracer(), "dist.send", next + 1);
          client.send_query(candidates);  // ids run 1, 2, ... per client
        }
        const double end = now_s();
        phase.send_s.push_back(end - start);
        phase.lateness_s[next] = start - phase.due_at[next];
        if (traced) {
          phase.frame_bytes += frame_size(pf::dist::Message{
              pf::dist::StrengthQueryMsg{next + 1, candidates}});
        }
        ++next;
        now = end;
      }
      // Block in poll() for whole milliseconds while the next send is that
      // far away; closer, poll without blocking between short naps, so the
      // client thread takes little CPU from the server and pool threads.
      const double until = next < n ? phase.due_at[next] - now : 1.0;
      bool ready = until >= 0.001
                       ? client.reply_ready(static_cast<int>(until * 1e3))
                       : client.reply_ready(0);
      while (ready) {
        const double start = now_s();
        pf::dist::StrengthReplyMsg reply = client.recv_reply();
        const double end = now_s();
        phase.recv_s.push_back(end - start);
        const std::size_t index = reply.request_id - 1;
        if (reply.request_id == 0 || index >= next ||
            phase.read_at[index] != kInf) {
          throw std::runtime_error("reply for unknown request " +
                                   std::to_string(reply.request_id));
        }
        if (traced) {
          tracer().add("dist.recv", start, end, reply.request_id);
          phase.frame_bytes += frame_size(pf::dist::Message{reply});
        }
        phase.read_at[index] = end;
        if (reply.status == pf::dist::StrengthStatus::kOk) {
          phase.latency_s[index] = end - phase.due_at[index];
          ++phase.ok;
          phase.candidates_ok += reply.estimates.size();
          phase.replies.push_back({schedule[index].begin,
                                   std::move(reply.estimates)});
        } else {
          ++phase.refused;
        }
        ++received;
        last_progress = end;
        ready = client.reply_ready(0);
      }
      if (until > 0.0002 && until < 0.001) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      if (now_s() - last_progress > 30.0) {
        throw std::runtime_error("no reply for 30 s");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "passflow_e2e: phase A transport error: %s\n",
                 e.what());
    phase.errors = n - received;
  }
  phase.ended_at = now_s();
  phase.seconds = phase.ended_at - origin;
  client.close();
  loop.stop();
  phase.stats = server.stats();
  return phase;
}

// Span request ids continue after phase A's (`rid_base` = its query count).
PhaseResult run_closed_loop(pf::serve::StrengthServer& server,
                            const ScreenInputs& inputs, double seconds,
                            std::uint64_t rid_base) {
  PhaseResult phase;
  ServerThread loop(server);
  pf::serve::StrengthClient client("127.0.0.1", server.port());
  const bool traced = tracer().enabled();
  std::vector<std::size_t> begin_of;  // request id - 1 -> pool offset
  std::vector<std::string> candidates;
  const auto send_next = [&] {
    const std::size_t begin =
        inputs.bulk_offsets[begin_of.size() % inputs.bulk_offsets.size()];
    candidates.assign(inputs.pool.begin() + static_cast<std::ptrdiff_t>(begin),
                      inputs.pool.begin() +
                          static_cast<std::ptrdiff_t>(begin + kBulkSize));
    const double start = now_s();
    {
      Tracer::Scope span(tracer(), "dist.send", rid_base + begin_of.size() + 1);
      client.send_query(candidates);
    }
    phase.send_s.push_back(now_s() - start);
    if (traced) {
      phase.frame_bytes += frame_size(pf::dist::Message{
          pf::dist::StrengthQueryMsg{begin_of.size() + 1, candidates}});
    }
    begin_of.push_back(begin);
    ++phase.attempted;
  };
  const double start = now_s();
  double last = start;
  std::size_t outstanding = 0;
  try {
    for (; outstanding < kOutstanding; ++outstanding) send_next();
    while (outstanding > 0) {
      const double t0 = now_s();
      pf::dist::StrengthReplyMsg reply = client.recv_reply();
      last = now_s();
      phase.recv_s.push_back(last - t0);
      if (traced) {
        tracer().add("dist.recv", t0, last, rid_base + reply.request_id);
        phase.frame_bytes += frame_size(pf::dist::Message{reply});
      }
      --outstanding;
      if (reply.request_id == 0 || reply.request_id > begin_of.size()) {
        throw std::runtime_error("reply for unknown request");
      }
      if (reply.status == pf::dist::StrengthStatus::kOk) {
        ++phase.ok;
        phase.candidates_ok += reply.estimates.size();
        phase.replies.push_back(
            {begin_of[reply.request_id - 1], std::move(reply.estimates)});
      } else {
        ++phase.refused;
      }
      if (last - start < seconds) {
        send_next();
        ++outstanding;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "passflow_e2e: phase B transport error: %s\n",
                 e.what());
    phase.errors = outstanding;
  }
  phase.seconds = last - start;
  phase.ended_at = last;
  client.close();
  loop.stop();
  phase.stats = server.stats();
  return phase;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_estimate(const pf::dist::StrengthEstimate& a,
                   const pf::dist::StrengthEstimate& b) {
  return same_bits(a.log_prob, b.log_prob) &&
         same_bits(a.guess_number, b.guess_number) &&
         a.in_index == b.in_index && a.representable == b.representable;
}

// Ok replies equal to in-process score() of the same candidates.
std::size_t count_bitwise_equal(
    const PhaseResult& phase,
    const std::vector<pf::dist::StrengthEstimate>& expected) {
  std::size_t equal = 0;
  for (const Reply& reply : phase.replies) {
    bool same = reply.begin + reply.estimates.size() <= expected.size();
    for (std::size_t i = 0; same && i < reply.estimates.size(); ++i) {
      same = same_estimate(reply.estimates[i], expected[reply.begin + i]);
    }
    if (same) ++equal;
  }
  return equal;
}

// Median over kLatencyWindows consecutive slices of phase A (in due-time
// order) of each slice's q-quantile, in ms.
double windowed_latency_ms(const PhaseResult& phase, double q) {
  const std::size_t n = phase.latency_s.size();
  std::vector<double> per_window;
  for (std::size_t w = 0; w < kLatencyWindows; ++w) {
    const std::vector<double> slice(
        phase.latency_s.begin() + static_cast<std::ptrdiff_t>(n * w / kLatencyWindows),
        phase.latency_s.begin() +
            static_cast<std::ptrdiff_t>(n * (w + 1) / kLatencyWindows));
    per_window.push_back(quantile(slice, q));
  }
  return median(per_window) * 1e3;
}

double batch_mean(const pf::serve::StrengthServerStats& stats) {
  return stats.batches == 0 ? 0.0
                            : static_cast<double>(stats.candidates_scored) /
                                  static_cast<double>(stats.batches);
}

// Splits each phase-A query's latency at the start of the batch that
// scored its first candidate. score() probes membership before anything
// else, so the traced matcher's call starts mark batch starts; batches
// take pending candidates in arrival order, which on one connection is
// send order, so cumulative candidate counts map batches to queries.
void queue_and_service(const PhaseResult& phase, const ScreenInputs& inputs,
                       const std::vector<std::pair<double, std::size_t>>& log,
                       std::vector<double>& queue_ms,
                       std::vector<double>& service_ms) {
  std::size_t batch = 0;
  std::size_t batch_end = log.empty() ? 0 : log[0].second;
  std::size_t consumed = 0;  // candidates of earlier admitted queries
  for (std::size_t q = 0; q < inputs.schedule.size(); ++q) {
    if (phase.latency_s[q] == kInf) continue;  // refused: never batched
    while (batch < log.size() && consumed >= batch_end) {
      ++batch;
      if (batch < log.size()) batch_end += log[batch].second;
    }
    if (batch >= log.size()) break;
    const double started = log[batch].first;
    queue_ms.push_back((started - phase.due_at[q]) * 1e3);
    service_ms.push_back((phase.read_at[q] - started) * 1e3);
    tracer().add("serve.queue_wait", phase.due_at[q], started, q + 1);
    tracer().add("serve.service", started, phase.read_at[q], q + 1);
    consumed += inputs.schedule[q].count;
  }
}

}  // namespace

int run_screen(const RunArgs& args) {
  if (!pf::dist::transport_available()) {
    throw std::runtime_error("screen needs the POSIX socket transport");
  }
  ScreenPlan plan;
  plan.index_keys = args.tiny ? 20000 : 8000000;
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  plan.phase_a_s = 0.7 * window;
  plan.phase_b_s = 0.3 * window;

  const std::string work_dir = args.root + "/.bench_build/work";
  std::filesystem::create_directories(work_dir);
  IndexFile index{work_dir + "/screen-" + std::to_string(::getpid()) +
                  ".pfidx"};
  const double inputs_start = now_s();
  const ScreenInputs inputs = make_inputs(plan, args, index.path);
  const double inputs_s = now_s() - inputs_start;
  malloc_trim(0);
  const bool rss_reset = reset_peak_rss();

  // ---- set-up and work ------------------------------------------------------
  // Five complete launches, median reported: three before phase A (the
  // last one serves it) and two before phase B, so set-up is sampled at
  // two points of the run. A traced run launches once per phase.
  tracer().set_enabled(args.trace);
  std::vector<double> setup_samples;
  std::vector<double> model_samples;
  std::vector<double> server_samples;
  SetupTimes first_setup;
  ScreenProgram program;
  const auto launch = [&](std::size_t times_over) {
    for (std::size_t i = 0; i < times_over; ++i) {
      program = ScreenProgram();  // tear the previous launch down first
      SetupTimes times;
      program = set_up(inputs, times);
      if (setup_samples.empty()) first_setup = times;
      setup_samples.push_back(times.total_s);
      model_samples.push_back(times.model_s);
      server_samples.push_back(times.server_s);
    }
  };
  const std::size_t launches_a = args.trace || args.tiny ? 1 : 3;
  const std::size_t launches_b = args.trace || args.tiny ? 1 : 2;
  launch(launches_a);
  tracer().set_enabled(false);
  PhaseResult a = run_open_loop(*program.server, inputs);
  launch(launches_b);
  PhaseResult b = run_closed_loop(*program.server, inputs, plan.phase_b_s, a.attempted);
  const double untraced_work = static_cast<double>(b.candidates_ok) / b.seconds;
  const auto make_server = [&](std::shared_ptr<const g::Matcher> matcher) {
    return std::make_unique<pf::serve::StrengthServer>(
        server_config(), *program.model, *program.encoder, std::move(matcher));
  };

  // Traced run: both phases again, on servers whose matcher is decorated.
  PhaseResult ta;
  PhaseResult tb;
  std::shared_ptr<const TracedMatcher> traced_index;
  std::vector<std::pair<double, std::size_t>> phase_a_log;
  if (args.trace) {
    traced_index = std::make_shared<TracedMatcher>(*program.index, false);
    auto server_ta = make_server(traced_index);
    auto server_tb = make_server(traced_index);
    tracer().set_enabled(true);
    ta = run_open_loop(*server_ta, inputs);
    phase_a_log = traced_index->batch_log();
    tb = run_closed_loop(*server_tb, inputs, plan.phase_b_s, ta.attempted);
    tracer().set_enabled(false);
  }
  const double peak_mb = peak_rss_mb();

  // ---- checks ----------------------------------------------------------------
  std::vector<std::string> problems;
  const std::vector<pf::dist::StrengthEstimate> expected =
      program.server->score(inputs.pool);
  std::size_t ok = 0;
  std::size_t equal = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const PhaseResult* phase : {&a, &b, &ta, &tb}) {
    ok += phase->ok;
    equal += count_bitwise_equal(*phase, expected);
    attempted += phase->attempted;
    failed += phase->refused + phase->errors;
  }
  if (equal != ok) {
    problems.push_back(std::to_string(ok - equal) + " of " +
                       std::to_string(ok) +
                       " replies differ from in-process score()");
  }
  if (a.errors + b.errors + ta.errors + tb.errors > 0) {
    problems.push_back("transport errors");
  }
  std::uint64_t digest = 0;
  for (const Query& query : inputs.schedule) {
    digest = fold_digest(digest, inputs.pool[query.begin]);
  }

  JsonObject detail;
  detail.text("workload", args.workload)
      .number("inputs_s", inputs_s)
      .integer("index_keys", static_cast<long long>(inputs.index_keys))
      .number("offered_qps", kOfferedQps)
      .integer("queries_a", static_cast<long long>(a.attempted))
      .integer("latency_samples", static_cast<long long>(a.latency_s.size()))
      .integer("latency_windows", static_cast<long long>(kLatencyWindows))
      .integer("samples_beyond_p99_per_window",
               static_cast<long long>(a.latency_s.size() / kLatencyWindows / 100))
      .number("latency_p99_ms_whole_phase", quantile(a.latency_s, 0.99) * 1e3)
      .number("lateness_ms_p50", quantile(a.lateness_s, 0.5) * 1e3)
      .number("lateness_ms_p99", quantile(a.lateness_s, 0.99) * 1e3)
      .number("lateness_ms_max", quantile(a.lateness_s, 1.0) * 1e3)
      .integer("refused_a", static_cast<long long>(a.refused))
      .number("batch_mean_a", batch_mean(a.stats))
      .integer("queries_b", static_cast<long long>(b.attempted))
      .number("batch_mean_b", batch_mean(b.stats))
      .integer("outstanding_b", static_cast<long long>(kOutstanding))
      .text("stream_digest", std::to_string(digest))
      .boolean("peak_rss_reset", rss_reset)
      .raw("setup_samples_s", json_array(setup_samples))
      .raw("setup_model_samples_s", json_array(model_samples))
      .raw("setup_server_samples_s", json_array(server_samples));

  Values values;
  const double ok_pct =
      attempted == 0 ? 0.0
                     : 100.0 * static_cast<double>(attempted - failed) /
                           static_cast<double>(attempted);
  if (!args.trace) {
    values = {
        {"work_per_s", untraced_work},
        {"latency_p50_ms", windowed_latency_ms(a, 0.50)},
        {"latency_p99_ms", windowed_latency_ms(a, 0.99)},
        {"quality_pct", ok == 0 ? 0.0
                                : 100.0 * static_cast<double>(equal) /
                                      static_cast<double>(ok)},
        {"ok_pct", ok_pct},
        {"peak_rss_mb", peak_mb},
        {"setup_s", median(setup_samples)},
    };
  } else {
    tracer().set_enabled(true);
    std::vector<double> queue_ms;
    std::vector<double> service_ms;
    queue_and_service(ta, inputs, phase_a_log, queue_ms, service_ms);

    // Replays of public calls the server makes, checked bitwise.
    std::vector<std::string> representable;
    for (std::size_t i = 0; i < inputs.pool.size(); ++i) {
      if (expected[i].representable) representable.push_back(inputs.pool[i]);
    }
    const ForwardReplay forward =
        replay_forward(*program.model, *program.encoder, representable,
                       &pf::util::shared_pool(), args.tiny);
    if (!forward.bitwise_equal) {
      problems.push_back("log_prob_batch rows differ batched vs alone");
    }
    const auto time_score = [&](std::size_t rows) {
      const std::vector<std::string> batch(
          inputs.pool.begin(),
          inputs.pool.begin() + static_cast<std::ptrdiff_t>(rows));
      std::vector<double> ms;
      for (int r = 0; r < (args.tiny ? 3 : 25); ++r) {
        const double t0 = now_s();
        std::vector<pf::dist::StrengthEstimate> got;
        {
          Tracer::Scope span(tracer(), "serve.score", 0);
          got = program.server->score(batch);
        }
        ms.push_back((now_s() - t0) * 1e3);
        for (std::size_t i = 0; i < rows; ++i) {
          if (!same_estimate(got[i], expected[i])) {
            problems.push_back("score() replay differs from the pool score");
            break;
          }
        }
      }
      return median(ms);
    };
    const double score1 = time_score(1);
    const double score64 = time_score(64);
    double lookup_s = 0.0;
    {
      Tracer::Scope span(tracer(), "serve.guess_lookup", 0);
      const double t0 = now_s();
      for (const auto& e : expected) {
        if (!e.representable) continue;
        if (!same_bits(program.server->guess_number_for_log_prob(e.log_prob),
                       e.guess_number)) {
          problems.push_back("guess_number_for_log_prob replay differs");
          break;
        }
      }
      lookup_s = now_s() - t0;
    }
    // The calibration's draw -> inverse -> decode at its 512-row shape.
    const pf::serve::StrengthServerConfig defaults = server_config();
    pf::guessing::StaticSamplerConfig calibration;
    calibration.sigma = 1.0;
    calibration.batch_size = defaults.calibration_batch;
    calibration.seed = defaults.calibration_seed;
    calibration.pool = defaults.pool;
    std::vector<std::string> calibration_rows;
    tracer().set_enabled(false);
    pf::guessing::StaticSampler(*program.model, *program.encoder, calibration)
        .generate(defaults.calibration_samples, calibration_rows);
    tracer().set_enabled(true);
    const FlowReplay flow = replay_static_sampler(
        *program.model, *program.encoder, calibration, calibration_rows);
    if (!flow.bitwise_equal) {
      problems.push_back("flow replay diverged from StaticSampler output");
    }
    tracer().set_enabled(false);

    const std::vector<Span> spans = tracer().spans();
    double match_s = 0.0;
    double membership_a_s = 0.0;
    for (const Span& span : spans) {
      if (std::string_view(span.name) != "guessing.match") continue;
      match_s += span.end - span.start;
      if (span.start <= ta.ended_at) membership_a_s += span.end - span.start;
    }
    std::size_t lookups = 0;
    for (const auto& e : expected) lookups += e.representable ? 1 : 0;
    const double flops = flops_per_row(*program.model);
    const double traced_work =
        static_cast<double>(tb.candidates_ok) / tb.seconds;
    std::vector<double> send_us;
    std::vector<double> recv_us;
    for (double s : ta.send_s) send_us.push_back(s * 1e6);
    for (double s : ta.recv_s) recv_us.push_back(s * 1e6);
    values = {
        {"setup.model_s", first_setup.model_s},
        {"setup.matcher_s", first_setup.matcher_s},
        {"setup.server_s", first_setup.server_s},
        {"guessing.generate_s", 0.0},
        {"guessing.generate_calls", 0.0},
        {"guessing.latent_draw_s", flow.latent_s},
        {"flow.inverse_s", flow.inverse_s},
        {"flow.inverse_rows_per_s",
         flow.inverse_s > 0 ? static_cast<double>(flow.rows) / flow.inverse_s : 0.0},
        {"flow.inverse_share_pct", 0.0},
        {"data.decode_s", flow.decode_s},
        {"nn.inverse_gflop_per_s",
         flow.inverse_s > 0
             ? static_cast<double>(flow.rows) * flops / flow.inverse_s / 1e9
             : 0.0},
        {"guessing.match_s", match_s},
        {"guessing.match_probes_per_s",
         match_s > 0 ? static_cast<double>(traced_index->probes()) / match_s : 0.0},
        {"guessing.match_hit_pct",
         traced_index->probes() > 0
             ? 100.0 * static_cast<double>(traced_index->hits()) /
                   static_cast<double>(traced_index->probes())
             : 0.0},
        {"guessing.track_s", 0.0},
        {"guessing.track_inserts_per_s", 0.0},
        {"guessing.track_mb", 0.0},
        {"guessing.step_wait_s", 0.0},
        {"guessing.overlap_pct", 0.0},
        {"guessing.distinct_pct", 0.0},
        {"guessing.feedback_calls", 0.0},
        {"serve.batches", static_cast<double>(ta.stats.batches)},
        {"serve.batch_mean", batch_mean(ta.stats)},
        {"serve.batch_mean_saturated", batch_mean(tb.stats)},
        {"serve.refused",
         static_cast<double>(ta.stats.overloaded + tb.stats.overloaded)},
        {"serve.queue_wait_ms_p50", quantile(queue_ms, 0.5)},
        {"serve.service_ms_p50", quantile(service_ms, 0.5)},
        {"serve.membership_s", membership_a_s},
        {"flow.forward_ms.rows1", forward.rows1_ms},
        {"flow.forward_ms.rows8", forward.rows8_ms},
        {"flow.forward_ms.rows64", forward.rows64_ms},
        {"serve.score_ms.rows1", score1},
        {"serve.score_ms.rows64", score64},
        {"serve.guess_lookup_us",
         lookups == 0 ? 0.0 : lookup_s * 1e6 / static_cast<double>(lookups)},
        {"nn.weight_bytes_per_row",
         batch_mean(ta.stats) > 0 ? 4.0 * flops / 2.0 / batch_mean(ta.stats)
                                  : 0.0},
        {"dist.send_us_p50", quantile(send_us, 0.5)},
        {"dist.recv_us_p50", quantile(recv_us, 0.5)},
        {"dist.frames",
         static_cast<double>(ta.send_s.size() + ta.recv_s.size() +
                             tb.send_s.size() + tb.recv_s.size())},
        {"dist.bytes", static_cast<double>(ta.frame_bytes + tb.frame_bytes)},
        {"trace.overhead_ratio", traced_work / untraced_work},
        {"trace.spans", static_cast<double>(spans.size())},
    };
    const std::string trace_problem = emit_trace(args, spans);
    if (!trace_problem.empty()) problems.push_back("trace: " + trace_problem);
    detail        .number("untraced_work_per_s", untraced_work)
        .number("traced_work_per_s", traced_work)
        .text("flops_note",
              "nn.inverse_gflop_per_s = rows x 2 x parameters / "
              "flow.inverse_s and nn.weight_bytes_per_row = 4 x parameters "
              "/ serve.batch_mean: computed, not counted; dist.bytes "
              "re-encodes every frame");
  }

  return finish_run(args, detail, problems, attempted, failed, values);
}

}  // namespace e2e
