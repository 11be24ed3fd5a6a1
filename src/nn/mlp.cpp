#include "nn/mlp.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/ops.hpp"

namespace passflow::nn {

Mlp::Mlp(std::size_t in_features, const std::vector<std::size_t>& hidden_sizes,
         std::size_t out_features, util::Rng& rng, ActKind hidden_act,
         bool has_final_act, ActKind final_act, const std::string& name) {
  std::size_t prev = in_features;
  for (std::size_t i = 0; i < hidden_sizes.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(
        prev, hidden_sizes[i], rng, Init::kHe,
        name + ".fc" + std::to_string(i)));
    layers_.push_back(std::make_unique<Activation>(hidden_act));
    prev = hidden_sizes[i];
  }
  layers_.push_back(std::make_unique<Linear>(prev, out_features, rng,
                                             Init::kXavier, name + ".out"));
  if (has_final_act) {
    layers_.push_back(std::make_unique<Activation>(final_act));
  }
}

Matrix Mlp::forward(const Matrix& input) {
  Matrix out;
  forward_into(input, out);
  return out;
}

void Mlp::forward_into(const Matrix& input, Matrix& out) {
  const Matrix* cur = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Matrix& dst = (i + 1 == layers_.size())
                      ? out
                      : (cur == &ping_ws_ ? pong_ws_ : ping_ws_);
    layers_[i]->forward_into(*cur, dst);
    cur = &dst;
  }
}

Matrix Mlp::forward_inference(const Matrix& input) {
  Matrix h = input;
  for (auto& layer : layers_) h = layer->forward_inference(h);
  return h;
}

Matrix Mlp::backward(const Matrix& grad_output) {
  Matrix g;
  backward_into(grad_output, g);
  return g;
}

void Mlp::backward_into(const Matrix& grad_output, Matrix& grad_input) {
  const Matrix* cur = &grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    Matrix& dst =
        (i == 0) ? grad_input : (cur == &ping_ws_ ? pong_ws_ : ping_ws_);
    layers_[i]->backward_into(*cur, dst);
    cur = &dst;
  }
}

std::vector<Param*> Mlp::parameters() {
  std::vector<Param*> params;
  for (auto& layer : layers_) {
    const auto p = layer->parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

ResNetST::ResNetST(std::size_t in_features, std::size_t hidden,
                   std::size_t depth, std::size_t out_features, util::Rng& rng,
                   const std::string& name)
    : in_proj_(in_features, hidden, rng, Init::kHe, name + ".in"),
      in_act_(ActKind::kRelu),
      s_head_(hidden, out_features, rng, Init::kZero, name + ".s"),
      t_head_(hidden, out_features, rng, Init::kZero, name + ".t") {
  for (std::size_t i = 0; i < depth; ++i) {
    blocks_.push_back(std::make_unique<ResidualBlock>(
        hidden, rng, name + ".block" + std::to_string(i)));
  }
}

ResNetST::Output ResNetST::forward(const Matrix& input) {
  Output out;
  forward_into(input, out.s_raw, out.t);
  return out;
}

void ResNetST::forward_into(const Matrix& input, Matrix& s_raw, Matrix& t) {
  in_proj_.forward_into(input, trunk_ws_);
  in_act_.forward_into(trunk_ws_, trunk_ws_);
  for (auto& block : blocks_) {
    block->forward_into(trunk_ws_, trunk_ws2_);
    std::swap(trunk_ws_, trunk_ws2_);
  }
  s_head_.forward_into(trunk_ws_, s_raw);
  t_head_.forward_into(trunk_ws_, t);
}

namespace {
// out = [left | right]; both have the same row count.
void concat_columns(const Matrix& left, const Matrix& right, Matrix& out) {
  out.resize(left.rows(), left.cols() + right.cols());
  for (std::size_t r = 0; r < left.rows(); ++r) {
    float* dst = out.row(r);
    dst = std::copy(left.row(r), left.row(r) + left.cols(), dst);
    std::copy(right.row(r), right.row(r) + right.cols(), dst);
  }
}
}  // namespace

void ResNetST::forward_inference(const Matrix& input, Scratch& scratch) const {
  in_proj_.apply_into(input, scratch.trunk);
  in_act_.apply_into(scratch.trunk, scratch.trunk);
  for (const auto& block : blocks_) {
    block->forward_inference(scratch.trunk, scratch.hidden, scratch.next);
    std::swap(scratch.trunk, scratch.next);
  }
  concat_columns(s_head_.weight().value, t_head_.weight().value,
                 scratch.head_weight);
  concat_columns(s_head_.bias().value, t_head_.bias().value,
                 scratch.head_bias);
  matmul(scratch.trunk, scratch.head_weight, scratch.st);
  add_row_vector(scratch.st, scratch.head_bias);
}

Matrix ResNetST::backward(const Matrix& grad_s_raw, const Matrix& grad_t) {
  Matrix grad_input;
  backward_into(grad_s_raw, grad_t, grad_input);
  return grad_input;
}

void ResNetST::backward_into(const Matrix& grad_s_raw, const Matrix& grad_t,
                             Matrix& grad_input) {
  s_head_.backward_into(grad_s_raw, trunk_ws_);
  t_head_.backward_into(grad_t, trunk_ws2_);
  add_inplace(trunk_ws_, trunk_ws2_);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    (*it)->backward_into(trunk_ws_, trunk_ws2_);
    std::swap(trunk_ws_, trunk_ws2_);
  }
  in_act_.backward_into(trunk_ws_, trunk_ws_);
  in_proj_.backward_into(trunk_ws_, grad_input);
}

std::vector<Param*> ResNetST::parameters() {
  std::vector<Param*> params = in_proj_.parameters();
  for (auto& block : blocks_) {
    const auto p = block->parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  for (Param* p : s_head_.parameters()) params.push_back(p);
  for (Param* p : t_head_.parameters()) params.push_back(p);
  return params;
}

}  // namespace passflow::nn
