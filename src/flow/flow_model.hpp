// The PassFlow model: a composition of affine coupling layers with exact
// log-likelihood (Eq. 1-8) under a factorized standard-normal prior.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "flow/coupling.hpp"
#include "nn/adam.hpp"

namespace passflow::util {
class ThreadPool;
}

namespace passflow::flow {

struct FlowConfig {
  std::size_t dim = 10;            // password max length (§IV-D)
  std::size_t num_couplings = 18;  // paper architecture (§IV-D)
  std::size_t hidden = 256;        // s/t hidden width (§IV-D)
  std::size_t residual_blocks = 2; // s/t depth (§IV-D)
  MaskConfig mask;                 // char-run m=1 by default (§IV-D)
};

class FlowModel {
 public:
  FlowModel(FlowConfig config, util::Rng& rng);

  const FlowConfig& config() const { return config_; }
  std::size_t dim() const { return config_.dim; }

  // Training forward x -> z; fills per-sample log|det J| (overwritten).
  nn::Matrix forward(const nn::Matrix& x, std::vector<double>& log_det);
  // Inference forward without caching. Each call owns one scratch that
  // every coupling reuses, so a pass makes a fixed handful of allocations
  // whatever the depth, and never touches the training workspaces.
  nn::Matrix forward_inference(const nn::Matrix& x,
                               std::vector<double>* log_det = nullptr) const;
  // Exact inverse z -> x, on a scratch of its own like forward_inference.
  nn::Matrix inverse(const nn::Matrix& z) const;

  // Batched-parallel inference: rows are split into contiguous chunks, one
  // per pool worker, and each chunk runs the serial path. Both the forward
  // and inverse maps are row-independent, so results are bitwise identical
  // to the serial overloads. Inference state is const (no caches) and each
  // chunk owns its scratch, making concurrent calls on one model safe; a
  // null/singleton pool or a small batch falls back to the serial path.
  nn::Matrix forward_inference(const nn::Matrix& x, std::vector<double>* log_det,
                               util::ThreadPool* pool) const;
  nn::Matrix inverse(const nn::Matrix& z, util::ThreadPool* pool) const;

  // Exact log p(x) per sample (Eq. 5 with standard-normal prior).
  std::vector<double> log_prob(const nn::Matrix& x) const;

  // Per-sample log p(x) over a batch, optionally row-chunked across the
  // pool. Built on forward_inference (a scratch per call or chunk, never
  // the training workspaces), so concurrent calls on one model are safe and
  // every row's value is bitwise identical whether scored alone, inside any
  // batch, or with any pool size — the guarantee the serving layer's
  // micro-batching relies on. log_prob() is the serial special case.
  std::vector<double> log_prob_batch(const nn::Matrix& x,
                                     util::ThreadPool* pool = nullptr) const;

  // Computes mean NLL of the batch (Eq. 7-8), accumulates parameter
  // gradients, and returns the loss. Callers zero_grad + optimizer-step.
  double nll_backward(const nn::Matrix& x);

  // Batch-parallel training step: splits the batch into one contiguous
  // shard per pool worker, runs forward+backward on a persistent per-worker
  // model replica (its own caches, its own gradient buffers), then combines
  // the shard gradients with a fixed-shape pairwise tree reduction weighted
  // by shard size. Shard boundaries, tree shape and summation order depend
  // only on (batch size, pool size), so gradients are bitwise reproducible
  // across runs at a fixed pool size. Falls back to the serial path for a
  // null/singleton pool or a small batch. Replicas sync parameter values
  // from this model at the start of every call.
  double nll_backward(const nn::Matrix& x, util::ThreadPool* pool);

  // Same loss without gradients (validation).
  double nll(const nn::Matrix& x) const;
  // Pooled variant: row-chunked forward_inference, bitwise identical.
  double nll(const nn::Matrix& x, util::ThreadPool* pool) const;

  std::vector<nn::Param*> parameters();
  std::size_t parameter_count();
  void zero_grad();

  void save(const std::string& path);
  void load(const std::string& path);

 private:
  void ensure_replicas(std::size_t count);

  FlowConfig config_;
  std::vector<std::unique_ptr<AffineCoupling>> couplings_;

  // Training-only workspaces for nll_backward: activations and gradients
  // ping-pong between two buffers instead of reallocating per coupling.
  nn::Matrix fwd_ws_a_;
  nn::Matrix fwd_ws_b_;
  nn::Matrix grad_ws_a_;
  nn::Matrix grad_ws_b_;
  std::vector<double> log_det_ws_;
  std::vector<double> grad_log_det_ws_;

  // Batch-parallel training state: one model replica and one input-shard
  // buffer per pool worker, created lazily and reused across steps.
  std::vector<std::unique_ptr<FlowModel>> replicas_;
  std::vector<nn::Matrix> shard_ws_;
};

// log N(z; 0, I) for one row.
double standard_normal_log_density(const float* z, std::size_t dim);

}  // namespace passflow::flow
