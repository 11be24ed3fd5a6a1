#include "nn/linear.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/ops.hpp"

namespace passflow::nn {

namespace {
Matrix init_weight(std::size_t in, std::size_t out, util::Rng& rng,
                   Init init) {
  Matrix w(in, out);
  double stddev = 0.0;
  switch (init) {
    case Init::kHe:
      stddev = std::sqrt(2.0 / static_cast<double>(in));
      break;
    case Init::kXavier:
      stddev = std::sqrt(2.0 / static_cast<double>(in + out));
      break;
    case Init::kZero:
      return w;
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    w.data()[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  return w;
}
}  // namespace

Linear::Linear(std::size_t in_features, std::size_t out_features,
               util::Rng& rng, Init init, const std::string& name)
    : weight_(name + ".weight", init_weight(in_features, out_features, rng, init)),
      bias_(name + ".bias", Matrix(1, out_features)),
      packed_weight_({&weight_}) {}

void PackedWeights::matmul(const Matrix& input, Matrix& out) const {
  const gemm::Backend backend = gemm::active_backend();
  std::uint64_t versions = 0;
  for (const Param* p : sources_) versions += p->version();
  const std::uint64_t key = versions << 2 | static_cast<std::uint64_t>(backend);
  if (key_.load(std::memory_order_acquire) != key) {
    const util::MutexLock lock(mu_);
    if (key_.load(std::memory_order_relaxed) != key) {
      std::vector<const Matrix*> blocks;
      for (const Param* p : sources_) blocks.push_back(&p->value());
      packed_.pack(backend, blocks);
      key_.store(key, std::memory_order_release);
    }
  }
  gemm::gemm_nn(input, packed_, out);
}

void Linear::apply_into(const Matrix& input, Matrix& out) const {
  packed_weight_.matmul(input, out);
  add_row_vector(out, bias_.value());
}

Matrix Linear::forward(const Matrix& input) {
  Matrix out;
  forward_into(input, out);
  return out;
}

// Training packs W per call: it changes every step.
void Linear::forward_into(const Matrix& input, Matrix& out) {
  cached_input_ = input;  // capacity-reusing copy once shapes are stable
  matmul(input, weight_.value(), out);
  add_row_vector(out, bias_.value());
}

Matrix Linear::forward_inference(const Matrix& input) {
  Matrix out;
  apply_into(input, out);
  return out;
}

void Linear::forward_inference_into(const Matrix& input, Matrix& out) {
  apply_into(input, out);
}

Matrix Linear::backward(const Matrix& grad_output) {
  Matrix dx;
  backward_into(grad_output, dx);
  return dx;
}

void Linear::backward_into(const Matrix& grad_output, Matrix& grad_input) {
  // dW += x^T g ; db += column_sum(g) ; dx = g W^T
  matmul_tn(cached_input_, grad_output, dw_ws_);
  add_inplace(weight_.sized_grad(), dw_ws_);

  column_sum(grad_output, db_ws_);
  add_inplace(bias_.sized_grad(), db_ws_);

  matmul_nt(grad_output, weight_.value(), grad_input);
}

std::vector<Param*> Linear::parameters() { return {&weight_, &bias_}; }

}  // namespace passflow::nn
