// In-memory span recorder for the traced benchmark run.
//
// A span is one call across a layer boundary: name, start, end, the span
// that was open on the same thread when it began (its parent), and a
// request id (the 1-based chunk ordinal for attacks, the query id for
// screening; 0 for spans that serve no single request, such as set-up and
// replays).
// Spans stay in memory and are written once, at exit, as Chrome
// trace-event JSON (chrome://tracing, Perfetto) together with a per-layer
// table. Every span lives in the benchmark's own code: decorators around
// the generator and matcher the program is handed, scopes around setup and
// client calls, and replays of public calls the program makes internally.
//
// When the tracer is disabled a Scope costs one relaxed load, so the same
// decorators can stay in place for untraced runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/annotated_sync.hpp"

namespace e2e {

// Seconds on the steady clock since the first call in this process.
double now_s();

struct Span {
  const char* name = "";  // a string literal: recording never allocates
  double start = 0.0;  // seconds, now_s() clock
  double end = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = no enclosing span on this thread
  std::uint64_t rid = 0;     // request id
  std::uint32_t tid = 0;     // small per-thread ordinal
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // RAII span: opened at construction, closed (and stored) at destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t rid);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when tracing was off at open
    Span span_;
  };

  // Stores a span computed from measured timestamps rather than opened
  // live (e.g. a query's queue wait). Returns its id.
  std::uint64_t add(const char* name, double start, double end,
                    std::uint64_t rid, std::uint64_t parent = 0);

  std::vector<Span> spans() const PF_EXCLUDES(mu_);
  std::size_t open_count() const {
    return open_.load(std::memory_order_relaxed);
  }

 private:
  void store(Span span) PF_EXCLUDES(mu_);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::size_t> open_{0};
  mutable passflow::util::Mutex mu_;
  std::vector<Span> closed_ PF_GUARDED_BY(mu_);
};

// The process-wide tracer every decorator and scope records into.
Tracer& tracer();

// Per-layer aggregate over spans of one name.
struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double busy_s = 0.0;  // sum of span durations
  double self_s = 0.0;  // busy minus the part covered by direct children
  // Sum over spans of the gap between the end of the previous span of the
  // same request (in start order) and this span's start; 0 on overlap and
  // for spans of no request.
  double wait_s = 0.0;
};

std::vector<LayerRow> layer_table(const std::vector<Span>& spans);

// Self time of one span: its duration minus the union of its direct
// children's intervals (clipped to the parent).
double self_time(const Span& span, const std::vector<const Span*>& children);

// Empty when well formed: every span closed (end >= start), unique ids,
// every parent present and every child inside its parent's interval.
std::string check_well_formed(const std::vector<Span>& spans,
                              std::size_t open_spans);

// Writes {"traceEvents": [...], "metadata": {...}, "layers": [...]}.
// `metadata_json` must be a JSON object.
void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        const std::vector<LayerRow>& layers,
                        const std::string& metadata_json);

}  // namespace e2e
