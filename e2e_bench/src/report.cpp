#include "report.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "nn/gemm.hpp"
#include "util/thread_pool.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace e2e {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return std::isnan(value) ? "0" : (value > 0 ? "1e300" : "-1e300");
  }
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string json_array(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) out += (out.empty() ? "" : ",") + json_number(v);
  return "[" + out + "]";
}

JsonObject& JsonObject::number(const std::string& key, double value) {
  return raw(key, json_number(value));
}

JsonObject& JsonObject::integer(const std::string& key, long long value) {
  return raw(key, std::to_string(value));
}

JsonObject& JsonObject::text(const std::string& key,
                             const std::string& value) {
  return raw(key, json_string(value));
}

JsonObject& JsonObject::boolean(const std::string& key, bool value) {
  return raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"work_per_s", "1/s"},      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},   {"quality_pct", "%"},
      {"ok_pct", "%"},            {"peak_rss_mb", "MB"},
      {"setup_s", "s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup.model_s", "s"},
      {"setup.matcher_s", "s"},
      {"setup.server_s", "s"},
      {"guessing.generate_s", "s"},
      {"guessing.generate_calls", "count"},
      {"guessing.latent_draw_s", "s"},
      {"flow.inverse_s", "s"},
      {"flow.inverse_rows_per_s", "1/s"},
      {"flow.inverse_share_pct", "%"},
      {"data.decode_s", "s"},
      {"nn.inverse_gflop_per_s", "GFLOP/s"},
      {"guessing.match_s", "s"},
      {"guessing.match_probes_per_s", "1/s"},
      {"guessing.match_hit_pct", "%"},
      {"guessing.track_s", "s"},
      {"guessing.track_inserts_per_s", "1/s"},
      {"guessing.track_mb", "MB"},
      {"guessing.step_wait_s", "s"},
      {"guessing.overlap_pct", "%"},
      {"guessing.distinct_pct", "%"},
      {"guessing.feedback_calls", "count"},
      {"serve.batches", "count"},
      {"serve.batch_mean", "rows"},
      {"serve.batch_mean_saturated", "rows"},
      {"serve.refused", "count"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.service_ms_p50", "ms"},
      {"serve.membership_s", "s"},
      {"flow.forward_ms.rows1", "ms"},
      {"flow.forward_ms.rows8", "ms"},
      {"flow.forward_ms.rows64", "ms"},
      {"serve.score_ms.rows1", "ms"},
      {"serve.score_ms.rows64", "ms"},
      {"serve.guess_lookup_us", "us"},
      {"nn.weight_bytes_per_row", "B"},
      {"dist.send_us_p50", "us"},
      {"dist.recv_us_p50", "us"},
      {"dist.frames", "count"},
      {"dist.bytes", "B"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.spans", "count"},
  };
  return specs;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<MetricSpec>& catalogue,
                  const Values& values) {
  JsonObject metrics;
  for (const MetricSpec& spec : catalogue) {
    const auto it =
        std::find_if(values.begin(), values.end(),
                     [&](const auto& kv) { return kv.first == spec.name; });
    if (it == values.end()) {
      throw std::logic_error(std::string("metric not measured: ") +
                             spec.name);
    }
    metrics.raw(spec.name, JsonObject()
                               .number("value", it->second)
                               .text("unit", spec.unit)
                               .dump());
  }
  const std::string line = JsonObject()
                               .boolean("correct", correct)
                               .integer("attempted", static_cast<long long>(
                                                         attempted))
                               .integer("failed",
                                        static_cast<long long>(failed))
                               .raw("metrics", metrics.dump())
                               .dump();
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

namespace {

std::string cpuinfo_field(const std::string& key) {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string value = line.substr(colon + 1);
        value.erase(0, value.find_first_not_of(' '));
        return value;
      }
    }
  }
  return "unknown";
}

bool has_flag(const std::string& flags, const std::string& flag) {
  std::istringstream in(flags);
  std::string token;
  while (in >> token) {
    if (token == flag) return true;
  }
  return false;
}

std::string env_or(const char* name, const char* fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once, before any thread.
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

}  // namespace

std::string provenance_json(const RunArgs& args) {
  const std::string flags = cpuinfo_field("flags");
  JsonObject isa;
  for (const char* flag : {"avx2", "avx512f", "avx512_bf16", "avx512_vnni",
                           "amx_tile", "amx_bf16", "amx_int8"}) {
    isa.boolean(flag, has_flag(flags, flag));
  }
  namespace gemm = passflow::nn::gemm;
#ifdef _OPENMP
  const long long omp_threads = omp_get_max_threads();
#else
  const long long omp_threads = 1;
#endif
  return JsonObject()
      .text("workload", args.workload)
      .integer("seed", static_cast<long long>(args.seed))
      .number("seconds", args.seconds)
      .boolean("trace", args.trace)
      .boolean("tiny", args.tiny)
      .integer("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .text("cpu_model", cpuinfo_field("model name"))
      .raw("isa", isa.dump())
      .text("compiler", E2E_CXX_COMPILER)
      .text("cxx_flags", E2E_CXX_FLAGS)
      .text("build_type", E2E_BUILD_TYPE)
      .text("git_sha", args.git_sha)
      .text("source_digest", args.source_digest)
      .text("gemm_backend", gemm::backend_name(gemm::active_backend()))
      .text("gemm_backend_default", E2E_GEMM_DEFAULT)
      .text("gemm_backend_env", env_or("PASSFLOW_GEMM_BACKEND", "unset"))
      .integer("pool_workers", static_cast<long long>(
                                   passflow::util::shared_pool().size()))
      .integer("omp_threads", omp_threads)
      .text("omp_num_threads_env", env_or("OMP_NUM_THREADS", "unset"))
      .dump();
}

}  // namespace e2e
