// passflow_e2e: one end-to-end benchmark run of one workload.
//
//   passflow_e2e --workload attack-static|attack-dynamic|attack-rules|screen
//                --seed N --seconds S --trace 0|1 --root CHECKOUT
//                [--tiny 1] [--trace-out PATH] [--git-sha SHA]
//                [--source-digest HEX]
//
// Prints a provenance header line, a detail line, (traced runs) a
// per-layer table, and as the last line the result object
// {"correct", "attempted", "failed", "metrics"}. Exits non-zero when any
// output check fails. e2e_bench/run.py builds and invokes it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "util/logging.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr, "passflow_e2e: %s\n", problem.c_str());
  std::exit(2);
}

e2e::RunArgs parse(int argc, char** argv) {
  e2e::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--tiny") {
        args.tiny = value == "1";
      } else if (flag == "--root") {
        args.root = value;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--git-sha") {
        args.git_sha = value;
      } else if (flag == "--source-digest") {
        args.source_digest = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  bool known = false;
  for (const auto& info : e2e::workloads()) known |= args.workload == info.name;
  if (!known) usage("unknown --workload '" + args.workload + "'");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  if (args.trace && args.trace_out.empty()) {
    args.trace_out = args.root + "/.bench_build/traces/" + args.workload +
                     "-seed" + std::to_string(args.seed) + ".json";
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::RunArgs args = parse(argc, argv);
  passflow::util::set_log_level(passflow::util::LogLevel::kWarn);
  e2e::print_provenance(args);
  try {
    return args.workload == "screen" ? e2e::run_screen(args)
                                     : e2e::run_attack(args);
  } catch (const std::exception& e) {
    // No result line: a run that cannot finish reports nothing.
    std::fprintf(stderr, "passflow_e2e: %s\n", e.what());
    return 1;
  }
}
