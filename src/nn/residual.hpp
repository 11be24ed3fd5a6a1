// Residual block: y = x + W2 * relu(W1 * x + b1) + b2.
//
// This is the building block of the s/t networks in PassFlow's coupling
// layers (§IV-D: "2 residual blocks with a hidden size of 256").
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/linear.hpp"

namespace passflow::nn {

class ResidualBlock : public Module {
 public:
  ResidualBlock(std::size_t features, util::Rng& rng,
                const std::string& name = "resblock");

  Matrix forward(const Matrix& input) override;
  Matrix backward(const Matrix& grad_output) override;
  // Runs the scratch form below on locals.
  Matrix forward_inference(const Matrix& input) override;
  // The inference body: fc1 into `hidden`, ReLU in place, fc2 into `out`,
  // then the skip add, in the training forward's order. Const and
  // cache-free, so concurrent calls on one block are safe when each caller
  // owns `hidden` and `out`; neither may alias the input.
  void forward_inference(const Matrix& input, Matrix& hidden,
                         Matrix& out) const;
  // Allocation-free training variants (member workspaces); out/grad_input
  // must not alias the input.
  void forward_into(const Matrix& input, Matrix& out) override;
  void backward_into(const Matrix& grad_output, Matrix& grad_input) override;
  std::vector<Param*> parameters() override;

 private:
  Linear fc1_;
  Activation act_;
  Linear fc2_;
  Matrix hidden_ws_;  // training-only scratch for the fc1/act output
};

}  // namespace passflow::nn
