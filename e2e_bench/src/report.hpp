// Output side of the benchmark: JSON helpers, order statistics, process
// memory, the provenance header, and the metric catalogue every run prints.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

std::string json_string(const std::string& text);
// Shortest round-trip decimal; non-finite values (which JSON cannot
// carry) become 1e300 with the sign kept.
std::string json_number(double value);

std::string json_array(const std::vector<double>& values);

// Ordered JSON object builder.
class JsonObject {
 public:
  JsonObject& number(const std::string& key, double value);
  JsonObject& integer(const std::string& key, long long value);
  JsonObject& text(const std::string& key, const std::string& value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

double median(std::vector<double> values);
// Nearest-rank quantile (q in [0, 1]) of unsorted values; +inf entries
// sort last, so refused requests push the upper percentiles out.
double quantile(std::vector<double> values, double q);

// Peak resident set of this process in MB (VmHWM), and a reset of that
// high-water mark to the current RSS (Linux clear_refs "5"). The reset
// returns false where the kernel refuses it.
double peak_rss_mb();
bool reset_peak_rss();

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The seven end-to-end metrics (untraced runs) and the per-layer metrics
// (traced runs), in BENCHMARK.json order.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

// Values by name; print_result() emits exactly the catalogue it is given,
// in catalogue order, and throws if a value is missing.
using Values = std::vector<std::pair<std::string, double>>;

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<MetricSpec>& catalogue,
                  const Values& values);

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // test-sized inputs and budgets
  std::string root = ".";
  std::string trace_out;  // traced runs: Chrome trace path
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

// nproc, CPU model and ISA flags, compiler/flags/build type, git sha,
// GEMM backend (with the environment override), pool workers, OpenMP
// threads, seed — the common record header.
std::string provenance_json(const RunArgs& args);

}  // namespace e2e
