#include "flow/coupling.hpp"

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nn/ops.hpp"

namespace passflow::flow {

namespace {
void apply_mask_into(const nn::Matrix& x, const std::vector<float>& mask,
                     nn::Matrix& out) {
  out.resize(x.rows(), x.cols());
  const float* md = mask.data();
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const float* xr = x.row(r);
    float* outr = out.row(r);
#pragma omp simd
    for (std::size_t c = 0; c < x.cols(); ++c) outr[c] = xr[c] * md[c];
  }
}

// s = scale * tanh(s_raw), the Real NVP bounded-scale transform. Shared by
// the training and inference paths so the formula lives in one place.
float bounded_scale(float scale, float s_raw) {
  return scale * std::tanh(s_raw);
}

// Training form over a whole matrix; `s` must not alias `s_raw`.
void bounded_scale_into(const nn::Matrix& s_raw, const nn::Matrix& scale_vec,
                        nn::Matrix& s) {
  s.resize(s_raw.rows(), s_raw.cols());
  const float* scale = scale_vec.data();
  for (std::size_t r = 0; r < s_raw.rows(); ++r) {
    const float* raw = s_raw.row(r);
    float* sr = s.row(r);
    for (std::size_t c = 0; c < s_raw.cols(); ++c) {
      sr[c] = bounded_scale(scale[c], raw[c]);
    }
  }
}
}  // namespace

AffineCoupling::AffineCoupling(std::size_t dim, std::size_t hidden,
                               std::size_t depth, std::vector<float> mask,
                               util::Rng& rng, const std::string& name)
    : mask_(std::move(mask)),
      net_(dim, hidden, depth, dim, rng, name + ".net"),
      s_scale_(name + ".s_scale", nn::Matrix(1, dim, 1.0f)) {
  if (mask_.size() != dim) {
    throw std::invalid_argument("mask size does not match dim");
  }
}

void AffineCoupling::condition(const nn::Matrix& input,
                               Scratch& scratch) const {
  apply_mask_into(input, mask_, scratch.masked);
  net_.forward_inference(scratch.masked, scratch.net);
}

nn::Matrix AffineCoupling::forward(const nn::Matrix& x,
                                   std::vector<double>& log_det) {
  nn::Matrix z;
  forward_into(x, log_det, z);
  return z;
}

void AffineCoupling::forward_into(const nn::Matrix& x,
                                  std::vector<double>& log_det,
                                  nn::Matrix& z) {
  if (log_det.size() != x.rows()) {
    throw std::invalid_argument("log_det size mismatch");
  }
  cached_x_ = x;
  apply_mask_into(x, mask_, masked_ws_);
  net_.forward_into(masked_ws_, cached_s_raw_, t_ws_);
  bounded_scale_into(cached_s_raw_, s_scale_.value, cached_s_);

  z.resize(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const float* xr = x.row(r);
    const float* sr = cached_s_.row(r);
    const float* tr = t_ws_.row(r);
    float* zr = z.row(r);
    double ld = 0.0;
    for (std::size_t c = 0; c < x.cols(); ++c) {
      const float b = mask_[c];
      const float cb = 1.0f - b;
      zr[c] = b * xr[c] + cb * (xr[c] * std::exp(sr[c]) + tr[c]);
      ld += static_cast<double>(cb) * sr[c];
    }
    log_det[r] += ld;
  }
}

void AffineCoupling::forward_inference(const nn::Matrix& x,
                                       std::vector<double>* log_det,
                                       Scratch& scratch, nn::Matrix& z) const {
  condition(x, scratch);
  const std::size_t dim = x.cols();
  const float* scale = s_scale_.value.data();
  z.resize(x.rows(), dim);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const float* xr = x.row(r);
    const float* s_raw = scratch.net.st.row(r);
    const float* tr = s_raw + dim;
    float* zr = z.row(r);
    double ld = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      const float b = mask_[c];
      const float cb = 1.0f - b;
      const float s = bounded_scale(scale[c], s_raw[c]);
      zr[c] = b * xr[c] + cb * (xr[c] * std::exp(s) + tr[c]);
      ld += static_cast<double>(cb) * s;
    }
    if (log_det) (*log_det)[r] += ld;
  }
}

void AffineCoupling::inverse(const nn::Matrix& z, Scratch& scratch,
                             nn::Matrix& x) const {
  // The conditioning input b.z equals b.x because masked coordinates pass
  // through unchanged, so s and t are recoverable from z alone.
  condition(z, scratch);
  const std::size_t dim = z.cols();
  const float* scale = s_scale_.value.data();
  x.resize(z.rows(), dim);
  for (std::size_t r = 0; r < z.rows(); ++r) {
    const float* zr = z.row(r);
    const float* s_raw = scratch.net.st.row(r);
    const float* tr = s_raw + dim;
    float* xr = x.row(r);
    for (std::size_t c = 0; c < dim; ++c) {
      if (mask_[c] > 0.5f) {
        xr[c] = zr[c];
      } else {
        xr[c] = (zr[c] - tr[c]) * std::exp(-bounded_scale(scale[c], s_raw[c]));
      }
    }
  }
}

nn::Matrix AffineCoupling::backward(const nn::Matrix& grad_z,
                                    const std::vector<double>& grad_log_det) {
  nn::Matrix grad_x;
  backward_into(grad_z, grad_log_det, grad_x);
  return grad_x;
}

void AffineCoupling::backward_into(const nn::Matrix& grad_z,
                                   const std::vector<double>& grad_log_det,
                                   nn::Matrix& grad_x) {
  if (!grad_z.same_shape(cached_x_)) {
    throw std::invalid_argument("backward called without matching forward");
  }
  const std::size_t rows = grad_z.rows();
  const std::size_t cols = grad_z.cols();

  nn::Matrix& grad_s = grad_s_ws_;
  nn::Matrix& grad_t = grad_t_ws_;
  grad_s.resize(rows, cols);
  grad_t.resize(rows, cols);
  grad_x.resize(rows, cols);

  for (std::size_t r = 0; r < rows; ++r) {
    const float* gz = grad_z.row(r);
    const float* xr = cached_x_.row(r);
    const float* sr = cached_s_.row(r);
    const float gld = static_cast<float>(grad_log_det[r]);
    float* gs = grad_s.row(r);
    float* gt = grad_t.row(r);
    float* gx = grad_x.row(r);
    for (std::size_t c = 0; c < cols; ++c) {
      const float b = mask_[c];
      const float cb = 1.0f - b;
      const float e = std::exp(sr[c]);
      // Direct paths: identity part + x inside the affine part.
      gx[c] = gz[c] * (b + cb * e);
      // dz/ds = x*e on transformed coords; log-det contributes gld per coord.
      gs[c] = cb * (gz[c] * xr[c] * e + gld);
      gt[c] = cb * gz[c];
    }
  }

  // Backprop s = s_scale * tanh(s_raw).
  nn::Matrix& grad_s_raw = grad_s_raw_ws_;
  grad_s_raw.resize(rows, cols);
  const float* scale = s_scale_.value.data();
  float* gscale = s_scale_.grad.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* gs = grad_s.row(r);
    const float* raw = cached_s_raw_.row(r);
    float* gsr = grad_s_raw.row(r);
    for (std::size_t c = 0; c < cols; ++c) {
      const float th = std::tanh(raw[c]);
      gscale[c] += gs[c] * th;
      gsr[c] = gs[c] * scale[c] * (1.0f - th * th);
    }
  }

  // Backprop through the s/t network into its masked input, then through
  // the masking (h = b.x) into x.
  net_.backward_into(grad_s_raw, grad_t, grad_h_ws_);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* gh = grad_h_ws_.row(r);
    float* gx = grad_x.row(r);
    for (std::size_t c = 0; c < cols; ++c) {
      gx[c] += mask_[c] * gh[c];
    }
  }
}

std::vector<nn::Param*> AffineCoupling::parameters() {
  std::vector<nn::Param*> params = net_.parameters();
  params.push_back(&s_scale_);
  return params;
}

}  // namespace passflow::flow
