// google-benchmark microbenchmarks for the flow itself: forward, inverse and
// NLL-backward throughput at paper architecture (18x256x2) and at the bench
// default (8x96x2), plus encoder and sampler throughput, the GEMM backend
// size sweep and the train-step (serial vs pooled) comparison behind
// BENCH_gemm.json. The GEMM and flow benches are labeled with the GEMM
// kernel this host dispatches to (nn::gemm::kernel_name()). The serial flow
// benches also count the heap allocations and bytes of one pass, through a
// counting global operator new; those counts repeat exactly run to run.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "data/encoder.hpp"
#include "flow/flow_model.hpp"
#include "guessing/matcher.hpp"
#include "guessing/session.hpp"
#include "guessing/static_sampler.hpp"
#include "nn/gemm.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

// Every allocation through the global operator new, counted for the
// allocs_per_pass and bytes_per_pass counters.
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_bytes{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace pf = passflow;

struct HeapTally {
  std::uint64_t allocs;
  std::uint64_t bytes;
};

HeapTally heap_tally() {
  return {g_heap_allocs.load(std::memory_order_relaxed),
          g_heap_bytes.load(std::memory_order_relaxed)};
}

// Reports the heap traffic since `before`, per iteration of the timed loop.
void report_heap_per_pass(benchmark::State& state, const HeapTally& before) {
  const HeapTally after = heap_tally();
  const double passes = static_cast<double>(state.iterations());
  state.counters["allocs_per_pass"] =
      static_cast<double>(after.allocs - before.allocs) / passes;
  state.counters["bytes_per_pass"] =
      static_cast<double>(after.bytes - before.bytes) / passes;
}

pf::nn::Matrix random_batch(std::size_t rows, std::size_t cols,
                            std::uint64_t seed) {
  pf::util::Rng rng(seed);
  pf::nn::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.normal(0.5, 0.2));
  }
  return m;
}

// Pins OpenMP to one thread while alive, so a timed loop on the calling
// thread measures one core rather than the whole OpenMP team.
class SerialOmp {
 public:
#ifdef _OPENMP
  SerialOmp() : saved_(omp_get_max_threads()) { omp_set_num_threads(1); }
  ~SerialOmp() { omp_set_num_threads(saved_); }
#else
  SerialOmp() {}
  ~SerialOmp() {}
#endif
  SerialOmp(const SerialOmp&) = delete;
  SerialOmp& operator=(const SerialOmp&) = delete;

 private:
#ifdef _OPENMP
  int saved_;
#endif
};

pf::flow::FlowConfig config_for(int couplings, int hidden) {
  pf::flow::FlowConfig config;
  config.dim = 10;
  config.num_couplings = static_cast<std::size_t>(couplings);
  config.hidden = static_cast<std::size_t>(hidden);
  config.residual_blocks = 2;
  return config;
}

// The serial flow benches time one core: on the main thread the GEMM's
// `omp parallel for` would otherwise split a 2048-row pass across the whole
// OpenMP team.
void BM_FlowForward(benchmark::State& state) {
  pf::util::Rng rng(1);
  pf::flow::FlowModel model(
      config_for(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1))),
      rng);
  const pf::nn::Matrix x = random_batch(
      static_cast<std::size_t>(state.range(2)), 10, 2);
  {
    const SerialOmp serial;
    const HeapTally before = heap_tally();
    for (auto _ : state) {
      const auto z = model.forward_inference(x);
      benchmark::DoNotOptimize(z.data());
    }
    report_heap_per_pass(state, before);
  }
  state.SetLabel(pf::nn::gemm::kernel_name());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(2));
}
BENCHMARK(BM_FlowForward)
    ->Args({8, 96, 2048})    // bench default architecture
    ->Args({18, 256, 2048})  // paper architecture (§IV-D)
    ->Args({18, 256, 512})
    ->Args({18, 256, 1});    // one strength query's candidate

void BM_FlowInverse(benchmark::State& state) {
  pf::util::Rng rng(3);
  pf::flow::FlowModel model(
      config_for(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1))),
      rng);
  const pf::nn::Matrix z = random_batch(
      static_cast<std::size_t>(state.range(2)), 10, 4);
  {
    const SerialOmp serial;
    const HeapTally before = heap_tally();
    for (auto _ : state) {
      const auto x = model.inverse(z);
      benchmark::DoNotOptimize(x.data());
    }
    report_heap_per_pass(state, before);
  }
  state.SetLabel(pf::nn::gemm::kernel_name());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(2));
}
// 18x256x512 is one attack pool worker's share of a 2048-row chunk on four
// cores.
BENCHMARK(BM_FlowInverse)
    ->Args({8, 96, 2048})
    ->Args({18, 256, 2048})
    ->Args({18, 256, 512});

void BM_FlowNllBackward(benchmark::State& state) {
  pf::util::Rng rng(5);
  pf::flow::FlowModel model(
      config_for(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1))),
      rng);
  const pf::nn::Matrix x = random_batch(512, 10, 6);
  for (auto _ : state) {
    model.zero_grad();
    benchmark::DoNotOptimize(model.nll_backward(x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_FlowNllBackward)->Args({8, 96})->Args({18, 256});

void BM_EncoderDecodeBatch(benchmark::State& state) {
  pf::data::Encoder encoder(pf::data::Alphabet::standard(), 10);
  const pf::nn::Matrix x = random_batch(4096, 10, 7);
  for (auto _ : state) {
    const auto decoded = encoder.decode_batch(x);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_EncoderDecodeBatch);

void BM_StaticGuessThroughput(benchmark::State& state) {
  pf::util::Rng rng(8);
  pf::flow::FlowModel model(config_for(8, 96), rng);
  pf::data::Encoder encoder(pf::data::Alphabet::standard(), 10);
  pf::guessing::StaticSampler sampler(model, encoder);
  std::vector<std::string> out;
  for (auto _ : state) {
    out.clear();
    sampler.generate(4096, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_StaticGuessThroughput);

// ---- multi-core guessing hot path ----------------------------------------
// The *Parallel variants run the same work through util::shared_pool();
// comparing them against the serial benchmarks above gives the wall-clock
// speedup of the batched inverse+decode path (output is bitwise identical).

void BM_FlowInverseParallel(benchmark::State& state) {
  pf::util::Rng rng(3);
  pf::flow::FlowModel model(
      config_for(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1))),
      rng);
  const pf::nn::Matrix z = random_batch(
      static_cast<std::size_t>(state.range(2)), 10, 4);
  pf::util::ThreadPool& pool = pf::util::shared_pool();
  for (auto _ : state) {
    const auto x = model.inverse(z, &pool);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetLabel(pf::nn::gemm::kernel_name());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(2));
}
BENCHMARK(BM_FlowInverseParallel)->Args({8, 96, 2048})->Args({18, 256, 2048});

void BM_StaticGuessThroughputParallel(benchmark::State& state) {
  pf::util::Rng rng(8);
  pf::flow::FlowModel model(config_for(8, 96), rng);
  pf::data::Encoder encoder(pf::data::Alphabet::standard(), 10);
  pf::guessing::StaticSamplerConfig config;
  config.pool = &pf::util::shared_pool();
  pf::guessing::StaticSampler sampler(model, encoder, config);
  std::vector<std::string> out;
  for (auto _ : state) {
    out.clear();
    sampler.generate(4096, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_StaticGuessThroughputParallel);

// End-to-end AttackSession run (generate -> match at 32k budget); range(0)
// selects the serial session (0) or pool matching + pipelined generation
// one chunk ahead (1).
void BM_GuessingHarness(benchmark::State& state) {
  pf::util::Rng rng(9);
  pf::flow::FlowModel model(config_for(8, 96), rng);
  pf::data::Encoder encoder(pf::data::Alphabet::standard(), 10);
  const bool parallel = state.range(0) != 0;

  // Target set drawn from the sampler itself so matches actually occur.
  pf::guessing::StaticSamplerConfig warmup_config;
  warmup_config.seed = 77;
  pf::guessing::StaticSampler warmup(model, encoder, warmup_config);
  std::vector<std::string> targets;
  warmup.generate(4096, targets);
  pf::guessing::HashSetMatcher matcher(targets);

  for (auto _ : state) {
    pf::guessing::StaticSamplerConfig config;
    config.seed = 42;
    if (parallel) config.pool = &pf::util::shared_pool();
    pf::guessing::StaticSampler sampler(model, encoder, config);
    pf::guessing::SessionConfig session_config;
    session_config.budget = 32768;
    session_config.chunk_size = 8192;
    if (parallel) {
      session_config.pool = &pf::util::shared_pool();
      session_config.pipeline_depth = 1;
    }
    pf::guessing::AttackSession session(sampler, matcher, session_config);
    session.run();
    const auto result = session.result();
    benchmark::DoNotOptimize(result.checkpoints.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 32768);
}
BENCHMARK(BM_GuessingHarness)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---- GEMM backend size sweep ---------------------------------------------
// Single-threaded on purpose (OpenMP pinned to one thread for the timed
// region) so the numbers isolate kernel quality from core count; this is
// the bench behind the ">=3x blocked vs naive at 256^3" acceptance line in
// BENCH_gemm.json. range(0) selects the backend, range(1) the square size.
// Caveat: the pinning only reaches OpenMP — a BLAS with its own thread
// pool (e.g. pthread OpenBLAS) ignores it, so for a fair blas datapoint
// also export OPENBLAS_NUM_THREADS=1 (or the vendor equivalent).

// "blocked/avx512", "naive", ...: the backend, and the kernel when the
// backend is the blocked one.
std::string gemm_label(pf::nn::gemm::Backend backend) {
  std::string label = pf::nn::gemm::backend_name(backend);
  if (backend == pf::nn::gemm::Backend::kBlocked) {
    label += std::string("/") + pf::nn::gemm::kernel_name();
  }
  return label;
}

void BM_GemmSquare(benchmark::State& state) {
  const auto backend = static_cast<pf::nn::gemm::Backend>(state.range(0));
  if (!pf::nn::gemm::available(backend)) {
    state.SkipWithError("backend not compiled in");
    return;
  }
  const auto size = static_cast<std::size_t>(state.range(1));
  const pf::nn::Matrix a = random_batch(size, size, 11);
  const pf::nn::Matrix b = random_batch(size, size, 12);
  pf::nn::Matrix out;
  {
    const SerialOmp serial;
    for (auto _ : state) {
      pf::nn::gemm::gemm_nn(backend, a, b, out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetLabel(gemm_label(backend));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(size) *
                          static_cast<int64_t>(size) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_GemmSquare)
    ->ArgNames({"backend", "n"})
    ->Args({0, 64})->Args({1, 64})
    ->Args({0, 128})->Args({1, 128})
    ->Args({0, 256})->Args({1, 256})
    ->Args({0, 384})->Args({1, 384})
    ->Args({2, 256});  // skipped unless a BLAS was compiled in

// The three GEMM flavors at the training hot-path shape (batch 512, hidden
// 256): nn is the forward matmul, tn the weight gradient, nt the input
// gradient.
void BM_GemmTrainShapes(benchmark::State& state) {
  const auto backend = static_cast<pf::nn::gemm::Backend>(state.range(0));
  if (!pf::nn::gemm::available(backend)) {
    state.SkipWithError("backend not compiled in");
    return;
  }
  const pf::nn::Matrix x = random_batch(512, 256, 13);
  const pf::nn::Matrix w = random_batch(256, 256, 14);
  pf::nn::Matrix h, dw, dx;
  {
    const SerialOmp serial;
    for (auto _ : state) {
      pf::nn::gemm::gemm_nn(backend, x, w, h);     // forward
      pf::nn::gemm::gemm_tn(backend, x, h, dw);    // weight gradient
      pf::nn::gemm::gemm_nt(backend, h, w, dx);    // input gradient
      benchmark::DoNotOptimize(dw.data());
      benchmark::DoNotOptimize(dx.data());
    }
  }
  state.SetLabel(gemm_label(backend));
}
BENCHMARK(BM_GemmTrainShapes)->ArgNames({"backend"})->Arg(0)->Arg(1);

// ---- training step: serial vs batch-parallel -----------------------------
// One zero_grad + nll_backward at batch 512; range(2) = 0 runs the serial
// path, 1 shards the batch across util::shared_pool() with the
// deterministic tree reduction.

void BM_TrainStep(benchmark::State& state) {
  pf::util::Rng rng(15);
  pf::flow::FlowModel model(
      config_for(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1))),
      rng);
  const pf::nn::Matrix x = random_batch(512, 10, 16);
  pf::util::ThreadPool* pool =
      state.range(2) != 0 ? &pf::util::shared_pool() : nullptr;
  for (auto _ : state) {
    model.zero_grad();
    benchmark::DoNotOptimize(model.nll_backward(x, pool));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_TrainStep)
    ->ArgNames({"couplings", "hidden", "pooled"})
    ->Args({8, 96, 0})->Args({8, 96, 1})
    ->Args({18, 256, 0})->Args({18, 256, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
