// Sequential MLP container plus the two-headed ResNet used by couplings.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/linear.hpp"
#include "nn/residual.hpp"

namespace passflow::nn {

// Plain feed-forward stack: Linear -> act -> ... -> Linear. Used by the
// CWAE encoder/decoder and the GAN generator/discriminator.
class Mlp : public Module {
 public:
  // hidden_sizes may be empty (single Linear). `final_act` of kTanh/kSigmoid
  // appends an output activation; pass std::nullopt-like kNone via
  // `has_final_act=false`.
  Mlp(std::size_t in_features, const std::vector<std::size_t>& hidden_sizes,
      std::size_t out_features, util::Rng& rng,
      ActKind hidden_act = ActKind::kRelu, bool has_final_act = false,
      ActKind final_act = ActKind::kTanh, const std::string& name = "mlp");

  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;
  Matrix forward_inference(const Matrix& input) override;
  // Allocation-free training variants: activations ping-pong between two
  // member buffers. out/grad_input must not alias the input.
  void forward_into(const Matrix& input, Matrix& out) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_input) override;
  std::vector<Param*> parameters() override;

 private:
  std::vector<std::unique_ptr<Module>> layers_;
  Matrix ping_ws_;  // training-only inter-layer scratch
  Matrix pong_ws_;
};

// Shared-trunk network producing the coupling layer's scale and translation:
//
//   trunk: Linear(in -> hidden) -> ReLU -> ResBlock^depth
//   s head: Linear(hidden -> out), zero-init
//   t head: Linear(hidden -> out), zero-init
//
// Zero-initialized heads make every coupling start as the identity map, the
// standard RealNVP/Glow trick that stabilizes deep flows at the start of
// training.
class ResNetST {
 public:
  ResNetST(std::size_t in_features, std::size_t hidden, std::size_t depth,
           std::size_t out_features, util::Rng& rng,
           const std::string& name = "st");

  struct Output {
    Matrix s_raw;  // pre-tanh scale logits
    Matrix t;      // translation
  };

  Output forward(const Matrix& input);
  // Training forward writing into caller buffers; allocation-free once warm
  // (trunk activations live in member workspaces). Outputs must not alias
  // the input or each other.
  void forward_into(const Matrix& input, Matrix& s_raw, Matrix& t);

  // Caller-owned buffers for one inference pass. The couplings of a flow
  // share shapes, so one scratch serves a whole pass and a warm pass does
  // not allocate.
  struct Scratch {
    Matrix trunk;   // trunk activation (rows x hidden)
    Matrix next;    // residual block output, swapped into trunk
    Matrix hidden;  // a residual block's fc1/ReLU output
    Matrix st;      // s_raw in columns [0, out), t in [out, 2*out)
  };
  // Inference into scratch.st. The two heads run as one product over the
  // packed [W_s | W_t]; each column is the same dot product as in its own
  // head's product, so s_raw and t keep the training forward's bits.
  // Concurrent calls on one net are safe when each caller owns its scratch.
  void forward_inference(const Matrix& input, Scratch& scratch) const;

  // Backward for the two heads; returns dL/d(input).
  Matrix backward(const Matrix& grad_s_raw, const Matrix& grad_t);
  void backward_into(const Matrix& grad_s_raw, const Matrix& grad_t,
                     Matrix& grad_input);

  std::vector<Param*> parameters();

 private:
  Linear in_proj_;
  Activation in_act_;
  std::vector<std::unique_ptr<ResidualBlock>> blocks_;
  Linear s_head_;
  Linear t_head_;
  PackedWeights packed_heads_;  // [W_s | W_t], inference only
  Matrix trunk_ws_;  // training-only trunk activation ping-pong
  Matrix trunk_ws2_;
};

}  // namespace passflow::nn
