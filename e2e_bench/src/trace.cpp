#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "report.hpp"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point& epoch() {
  static const Clock::time_point start = Clock::now();
  return start;
}

std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t ordinal = next.fetch_add(1);
  return ordinal;
}

// Ids of the spans currently open on this thread, innermost last.
std::vector<std::uint64_t>& open_stack() {
  thread_local std::vector<std::uint64_t> stack;
  return stack;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t rid) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  auto& stack = open_stack();
  span_.name = name;
  span_.id = tracer.next_id_.fetch_add(1);
  span_.parent = stack.empty() ? 0 : stack.back();
  span_.rid = rid;
  span_.tid = thread_ordinal();
  stack.push_back(span_.id);
  tracer.open_.fetch_add(1);
  span_.start = now_s();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end = now_s();
  auto& stack = open_stack();
  if (!stack.empty() && stack.back() == span_.id) stack.pop_back();
  tracer_->store(std::move(span_));
  tracer_->open_.fetch_sub(1);
}

std::uint64_t Tracer::add(const char* name, double start, double end,
                          std::uint64_t rid, std::uint64_t parent) {
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.id = next_id_.fetch_add(1);
  span.parent = parent;
  span.rid = rid;
  span.tid = thread_ordinal();
  const std::uint64_t id = span.id;
  store(std::move(span));
  return id;
}

void Tracer::store(Span span) {
  passflow::util::MutexLock lock(mu_);
  closed_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  {
    passflow::util::MutexLock lock(mu_);
    out = closed_;
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

double self_time(const Span& span, const std::vector<const Span*>& children) {
  std::vector<std::pair<double, double>> covered;
  covered.reserve(children.size());
  for (const Span* child : children) {
    const double begin = std::max(span.start, child->start);
    const double end = std::min(span.end, child->end);
    if (end > begin) covered.emplace_back(begin, end);
  }
  std::sort(covered.begin(), covered.end());
  double union_s = 0.0;
  double reach = span.start;
  for (const auto& [begin, end] : covered) {
    const double from = std::max(begin, reach);
    if (end > from) union_s += end - from;
    reach = std::max(reach, end);
  }
  return (span.end - span.start) - union_s;
}

std::vector<LayerRow> layer_table(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  std::map<std::uint64_t, std::vector<const Span*>> by_request;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
    if (span.rid != 0) by_request[span.rid].push_back(&span);
  }
  std::map<std::string, LayerRow> rows;
  for (const Span& span : spans) {
    LayerRow& row = rows[span.name];
    row.name = span.name;
    ++row.count;
    row.busy_s += span.end - span.start;
    const auto it = children.find(span.id);
    row.self_s += it == children.end()
                      ? span.end - span.start
                      : self_time(span, it->second);
  }
  for (auto& [rid, list] : by_request) {
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      return a->start < b->start;
    });
    double previous_end = -1.0;
    for (const Span* span : list) {
      if (previous_end >= 0.0 && span->start > previous_end) {
        rows[span->name].wait_s += span->start - previous_end;
      }
      previous_end = std::max(previous_end, span->end);
    }
  }
  std::vector<LayerRow> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) out.push_back(row);
  return out;
}

std::string check_well_formed(const std::vector<Span>& spans,
                              std::size_t open_spans) {
  if (open_spans != 0) {
    return std::to_string(open_spans) + " span(s) still open";
  }
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& span : spans) {
    if (span.end < span.start) {
      return std::string("span '") + span.name + "' ends early";
    }
    if (!by_id.emplace(span.id, &span).second) return "duplicate span id";
  }
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    const auto it = by_id.find(span.parent);
    if (it == by_id.end()) {
      return std::string("span '") + span.name + "' has a missing parent";
    }
    const Span& parent = *it->second;
    if (span.start < parent.start || span.end > parent.end) {
      return std::string("span '") + span.name + "' escapes its parent '" +
             parent.name + "'";
    }
  }
  return {};
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        const std::vector<LayerRow>& layers,
                        const std::string& metadata_json) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata_json
      << ",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":" << json_string(span.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tid
        << ",\"ts\":" << json_number(span.start * 1e6)
        << ",\"dur\":" << json_number((span.end - span.start) * 1e6)
        << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"rid\":" << span.rid << "}}";
  }
  out << "\n],\"layers\":[";
  first = true;
  for (const LayerRow& row : layers) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":" << json_string(row.name) << ",\"count\":" << row.count
        << ",\"busy_s\":" << json_number(row.busy_s)
        << ",\"self_s\":" << json_number(row.self_s)
        << ",\"wait_s\":" << json_number(row.wait_s) << "}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write on trace file " + path);
}

}  // namespace e2e
