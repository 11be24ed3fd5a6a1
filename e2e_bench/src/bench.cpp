#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "nn/matrix.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace pf = passflow;

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> table = {
      {"attack-static",
       "paper-size flow inverse on 2048-row batches is >99% of the cycles; "
       "the engine sits idle"},
      {"attack-dynamic",
       "the only trained model: its matched % is the guess-quality gate, "
       "through on_match and the Eq. 14 mixture"},
      {"attack-rules",
       "bypasses the flow: session pipeline, matcher probes and the exact "
       "tracker do all the work"},
      {"screen",
       "the flow in the opposite regime: 1-64 row forward passes behind "
       "transport, admission and micro-batching"},
  };
  return table;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t state = seed ^ (tag * 0x9e3779b97f4a7c15ULL);
  pf::util::splitmix64_next(state);
  return pf::util::splitmix64_next(state);
}

std::uint64_t fold_digest(std::uint64_t digest, const std::string& item) {
  return pf::util::hash64(item) ^ (digest * 0x100000001b3ULL + 0x9e37ULL);
}

pf::flow::FlowConfig paper_flow_config() {
  pf::flow::FlowConfig config;
  config.dim = 10;
  config.num_couplings = 18;
  config.hidden = 256;
  config.residual_blocks = 2;
  return config;
}

void print_provenance(const RunArgs& args) {
  std::printf("%s\n",
              JsonObject().raw("provenance", provenance_json(args)).dump()
                  .c_str());
}

std::string emit_trace(const RunArgs& args, const std::vector<Span>& spans) {
  const std::vector<LayerRow> layers = layer_table(spans);
  std::printf("%-26s %8s %12s %12s %12s\n", "layer", "count", "busy_s",
              "self_s", "wait_s");
  for (const LayerRow& row : layers) {
    std::printf("%-26s %8zu %12.6f %12.6f %12.6f\n", row.name.c_str(),
                row.count, row.busy_s, row.self_s, row.wait_s);
  }
  write_chrome_trace(args.trace_out, spans, layers, provenance_json(args));
  return check_well_formed(spans, tracer().open_count());
}

int finish_run(const RunArgs& args, JsonObject& detail,
               const std::vector<std::string>& problems,
               std::size_t attempted, std::size_t failed,
               const Values& values) {
  std::string list;
  for (const std::string& problem : problems) {
    list += (list.empty() ? "" : ",") + json_string(problem);
  }
  detail.raw("problems", "[" + list + "]");
  if (args.trace) detail.text("trace_file", args.trace_out);
  std::printf("%s\n", JsonObject().raw("detail", detail.dump()).dump().c_str());
  print_result(problems.empty(), attempted, failed,
               args.trace ? per_layer_metrics() : end_to_end_metrics(), values);
  return problems.empty() ? 0 : 1;
}

void TracedGenerator::generate(std::size_t n, std::vector<std::string>& out) {
  {
    Tracer::Scope span(tracer(), "guessing.generate",
                       rid_base_ + calls_ + 1);
    inner_.generate(n, out);
  }
  ++calls_;
}

void TracedMatcher::contains_batch(const std::vector<std::string>& batch,
                                   pf::util::ThreadPool* pool,
                                   std::vector<char>& out) const {
  const std::size_t call = calls_.fetch_add(1) + 1;
  if (tracer().enabled()) {
    pf::util::MutexLock lock(mu_);
    log_.emplace_back(now_s(), batch.size());
  }
  {
    Tracer::Scope span(tracer(), "guessing.match", calls_are_requests_ ? call : 0);
    inner_.contains_batch(batch, pool, out);
  }
  probes_ += batch.size();
  hits_ += static_cast<std::size_t>(std::count(out.begin(), out.end(), 1));
}

std::vector<std::pair<double, std::size_t>> TracedMatcher::batch_log() const {
  pf::util::MutexLock lock(mu_);
  return log_;
}

FlowReplay replay_static_sampler(const pf::flow::FlowModel& model,
                                 const pf::data::Encoder& encoder,
                                 const pf::guessing::StaticSamplerConfig& config,
                                 const std::vector<std::string>& expected) {
  // Mirrors StaticSampler::generate call for call (no smoothing).
  FlowReplay replay;
  replay.bitwise_equal = true;
  pf::util::Rng rng(config.seed);
  while (replay.rows < expected.size()) {
    const std::size_t count =
        std::min(config.batch_size, expected.size() - replay.rows);
    pf::nn::Matrix z(count, model.dim());
    double t0 = now_s();
    {
      Tracer::Scope span(tracer(), "guessing.latent_draw", 0);
      for (std::size_t i = 0; i < z.size(); ++i) {
        z.data()[i] = static_cast<float>(rng.normal(0.0, config.sigma));
      }
    }
    double t1 = now_s();
    replay.latent_s += t1 - t0;
    pf::nn::Matrix x;
    {
      Tracer::Scope span(tracer(), "flow.inverse", 0);
      x = model.inverse(z, config.pool);
    }
    double t2 = now_s();
    replay.inverse_s += t2 - t1;
    std::vector<std::string> decoded;
    {
      Tracer::Scope span(tracer(), "data.decode", 0);
      decoded = encoder.decode_batch(x, config.pool);
    }
    replay.decode_s += now_s() - t2;
    for (std::size_t i = 0; i < count; ++i) {
      if (decoded[i] != expected[replay.rows + i]) replay.bitwise_equal = false;
    }
    replay.rows += count;
  }
  return replay;
}

ForwardReplay replay_forward(const pf::flow::FlowModel& model,
                             const pf::data::Encoder& encoder,
                             const std::vector<std::string>& passwords,
                             pf::util::ThreadPool* pool, bool tiny) {
  ForwardReplay replay;
  const std::vector<std::string> rows64(
      passwords.begin(),
      passwords.begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(64, passwords.size())));
  const pf::nn::Matrix x64 = encoder.encode_batch(rows64);
  const auto time_rows = [&](std::size_t rows, int repeats) {
    const pf::nn::Matrix x = x64.slice_rows(0, std::min(rows, x64.rows()));
    std::vector<double> ms;
    for (int r = 0; r < repeats; ++r) {
      const double t0 = now_s();
      {
        Tracer::Scope span(tracer(), "flow.forward", 0);
        (void)model.log_prob_batch(x, pool);
      }
      ms.push_back((now_s() - t0) * 1e3);
    }
    return median(ms);
  };
  const int repeats = tiny ? 3 : 25;
  replay.rows1_ms = time_rows(1, repeats);
  replay.rows8_ms = time_rows(8, repeats);
  replay.rows64_ms = time_rows(64, repeats);

  // Batch invariance: each row scores bitwise the same inside the batch as
  // alone (the serving layer's micro-batching relies on it).
  const std::vector<double> batched = model.log_prob_batch(x64, pool);
  replay.bitwise_equal = batched.size() == x64.rows();
  for (std::size_t r = 0; replay.bitwise_equal && r < x64.rows(); ++r) {
    const double alone = model.log_prob_batch(x64.slice_rows(r, r + 1), pool)[0];
    replay.bitwise_equal = std::memcmp(&alone, &batched[r], sizeof(double)) == 0;
  }
  return replay;
}

double flops_per_row(pf::flow::FlowModel& model) {
  return 2.0 * static_cast<double>(model.parameter_count());
}

}  // namespace e2e
