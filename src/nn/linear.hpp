// Fully connected layer: y = x W + b, with He/Xavier initialization.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/gemm.hpp"
#include "nn/module.hpp"
#include "util/annotated_sync.hpp"
#include "util/rng.hpp"

namespace passflow::nn {

enum class Init {
  kHe,      // N(0, sqrt(2/fan_in)) — for ReLU trunks
  kXavier,  // N(0, sqrt(2/(fan_in+fan_out))) — for tanh/linear heads
  kZero,    // all zeros — for output heads that should start as identity
};

// The packed copy (gemm::PackedB) of the weights one inference product
// reads: a Linear's W, or the fused [W_s | W_t] of ResNetST's heads. It is
// built on first use and rebuilt when the backend or the version of any
// source Param has moved, so a product never reads a stale copy. A built
// copy is published through an atomic key, the backend and the sum of the
// source versions (which only grows), so steady-state calls take no lock;
// mu_ serialises the builds, so concurrent first calls build once.
class PackedWeights {
 public:
  // The product reads [sources[0]->value() | sources[1]->value() | ...],
  // the blocks side by side; the Params must outlive this object.
  explicit PackedWeights(std::vector<const Param*> sources)
      : sources_(std::move(sources)) {}
  PackedWeights(const PackedWeights&) = delete;
  PackedWeights& operator=(const PackedWeights&) = delete;

  // out = input * [W_0 | W_1 | ...], with the bits of the matmul over that
  // matrix.
  void matmul(const Matrix& input, Matrix& out) const;

 private:
  const std::vector<const Param*> sources_;
  mutable util::Mutex mu_;
  mutable std::atomic<std::uint64_t> key_{0};
  // Written only under mu_, before key_ publishes it; read without the
  // lock once key_ matches.
  mutable gemm::PackedB packed_;
};

class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features,
         util::Rng& rng, Init init = Init::kHe,
         const std::string& name = "linear");

  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;
  Matrix forward_inference(const Matrix& input) override;
  // Allocation-free once warm; out must not alias input.
  void forward_into(const Matrix& input, Matrix& out) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_input) override;
  void forward_inference_into(const Matrix& input, Matrix& out) override;
  std::vector<Param*> parameters() override;

  // Inference: out = input W + b, a product on the packed W into `out`,
  // then the bias add. Concurrent calls on one layer are safe as long as
  // each caller owns its `out`, which must not alias the input.
  void apply_into(const Matrix& input, Matrix& out) const;

  std::size_t in_features() const { return weight_.value().rows(); }
  std::size_t out_features() const { return weight_.value().cols(); }

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  const Param& weight() const { return weight_; }
  const Param& bias() const { return bias_; }

 private:
  Param weight_;  // (in x out)
  Param bias_;    // (1 x out)
  PackedWeights packed_weight_;  // inference only
  Matrix cached_input_;
  // Training-only workspaces (dW, db); never touched on inference paths.
  Matrix dw_ws_;
  Matrix db_ws_;
};

}  // namespace passflow::nn
