// Elementwise activations with cached-input backward passes.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace passflow::nn {

enum class ActKind { kRelu, kLeakyRelu, kTanh, kSigmoid };

class Activation : public Module {
 public:
  explicit Activation(ActKind kind, float leak = 0.01f)
      : kind_(kind), leak_(leak) {}

  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;
  Matrix forward_inference(const Matrix& input) override;
  // Elementwise, so out may alias input (in-place activation); the _into
  // forms are allocation-free once warm.
  void forward_into(const Matrix& input, Matrix& out) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_input) override;
  void forward_inference_into(const Matrix& input, Matrix& out) override;
  std::vector<Param*> parameters() override { return {}; }

  // The activation alone, without caching; out may alias input (in place).
  // Touches no member state, so concurrent calls are safe.
  void apply_into(const Matrix& input, Matrix& out) const;

  ActKind kind() const { return kind_; }

 private:
  ActKind kind_;
  float leak_;
  Matrix cached_input_;
};

// Free-function forms used by code that does not need a Module.
float activate(ActKind kind, float x, float leak = 0.01f);
float activate_grad(ActKind kind, float x, float leak = 0.01f);

}  // namespace passflow::nn
