// Module interface for the manual-backprop layer stack.
//
// Training works the classic way: forward() caches whatever backward() needs;
// backward() receives dL/d(output), accumulates dL/d(param) into each
// Param::grad and returns dL/d(input). The optimizer then walks parameters().
//
// Layers keep exactly one cached activation set, so a module instance must
// not be shared across concurrent forward/backward pairs. Inference-only
// paths (sampling) use the *_inference entry points, which skip caching.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/matrix.hpp"

namespace passflow::nn {

// A learnable tensor with its accumulated gradient.
//
// The value is read through value() and written only through write() or
// assign(), which advance version() once the write has landed. Inference
// products read a packed copy of their weights (PackedWeights in
// nn/linear.hpp) that is valid only for the versions it was built from, so
// no write can leave a stale copy behind. Writes must not overlap reads of
// the same Param on other threads; reads may run concurrently.
//
// The gradient is allocated by the first accumulation into it
// (sized_grad()), so a model that only runs inference holds none.
class Param {
 public:
  Param() = default;
  Param(std::string n, Matrix v) : name(std::move(n)), value_(std::move(v)) {}

  std::string name;
  // dL/d(value) summed over backward passes; empty until sized_grad().
  Matrix grad;

  const Matrix& value() const { return value_; }
  std::uint64_t version() const { return version_; }

  // Runs write_fn(Matrix&) on the value, then advances the version. The
  // version advances also when write_fn throws, as part of the write may
  // have landed.
  template <class WriteFn>
  void write(WriteFn&& write_fn) {
    struct Advance {
      std::uint64_t& version;
      ~Advance() { ++version; }
    } advance{version_};
    write_fn(value_);
  }
  void assign(const Matrix& value) {
    write([&value](Matrix& v) { v = value; });
  }

  // grad, sized to value() and zero-filled when nothing has accumulated
  // into it yet. Backward passes accumulate through this.
  Matrix& sized_grad() {
    if (!grad.same_shape(value_)) {
      grad.resize(value_.rows(), value_.cols());
      grad.zero();
    }
    return grad;
  }

 private:
  Matrix value_;
  std::uint64_t version_ = 1;
};

class Module {
 public:
  virtual ~Module() = default;

  // Training-mode forward; caches activations for the next backward().
  virtual Matrix forward(const Matrix& input) = 0;

  // Propagates gradients; must be called after a matching forward().
  virtual Matrix backward(const Matrix& grad_output) = 0;

  // Inference forward without caching; default falls back to forward().
  virtual Matrix forward_inference(const Matrix& input) {
    return forward(input);
  }

  // Out-parameter variants. The result is written into the caller's matrix,
  // reusing its storage when the shape already matches (Matrix::resize), so
  // steady-state training loops stop allocating. `out`/`grad_input` must
  // not alias the input unless the layer is purely elementwise (Activation
  // documents aliasing support). Defaults fall back to the returning forms;
  // layers on the training hot path override with allocation-free bodies.
  virtual void forward_into(const Matrix& input, Matrix& out) {
    out = forward(input);
  }
  virtual void backward_into(const Matrix& grad_output, Matrix& grad_input) {
    grad_input = backward(grad_output);
  }
  virtual void forward_inference_into(const Matrix& input, Matrix& out) {
    out = forward_inference(input);
  }

  // Flat list of learnable parameters (owned by the module).
  virtual std::vector<Param*> parameters() = 0;

  void zero_grad() {
    for (Param* p : parameters()) p->grad.zero();
  }

  std::size_t parameter_count() {
    std::size_t n = 0;
    for (Param* p : parameters()) n += p->value().size();
    return n;
  }
};

}  // namespace passflow::nn
