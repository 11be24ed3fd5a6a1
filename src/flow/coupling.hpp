// Affine coupling layer (Dinh et al. Real NVP, as adapted by PassFlow §III-A).
//
// With mask b (1 = identity part):
//
//   forward:  z = b.x + (1-b).(x . exp(s(b.x)) + t(b.x))        (Eq. 13)
//   inverse:  x = b.z + (1-b).((z - t(b.z)) . exp(-s(b.z)))
//   log|det J| = sum_j ((1-b) . s)_j                            (Eq. 12)
//
// s and t are the two heads of one ResNet (§IV-D: 2 residual blocks, hidden
// 256). The raw s head passes through scale * tanh(.) with a learned
// per-dimension scale — the standard Real NVP stabilization; since the heads
// are zero-initialized, every coupling starts exactly at the identity.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "flow/mask.hpp"
#include "nn/mlp.hpp"

namespace passflow::flow {

class AffineCoupling {
 public:
  AffineCoupling(std::size_t dim, std::size_t hidden, std::size_t depth,
                 std::vector<float> mask, util::Rng& rng,
                 const std::string& name = "coupling");

  std::size_t dim() const { return mask_.size(); }
  const std::vector<float>& mask() const { return mask_; }

  // Training forward x -> z. Adds each sample's log-det contribution into
  // `log_det` (size = batch rows). Caches activations for backward().
  nn::Matrix forward(const nn::Matrix& x, std::vector<double>& log_det);
  // Same, writing z into a caller buffer (must not alias x); allocation-free
  // once warm via member workspaces, so only safe from one trainer thread.
  void forward_into(const nn::Matrix& x, std::vector<double>& log_det,
                    nn::Matrix& z);

  // Caller-owned buffers for one inference pass. Every coupling of a flow
  // has the same shapes, so one scratch serves a whole pass and a warm pass
  // does not allocate.
  struct Scratch {
    nn::Matrix masked;  // b . input, the s/t net's input
    nn::ResNetST::Scratch net;
  };

  // Inference forward x -> z into `z` (no caching, no gradients); adds each
  // sample's log-det contribution into *log_det when non-null. Const and
  // cache-free, so concurrent calls on one layer are safe when each caller
  // owns its scratch. `z` must not alias x.
  void forward_inference(const nn::Matrix& x, std::vector<double>* log_det,
                         Scratch& scratch, nn::Matrix& z) const;
  // Exact inverse z -> x into `x` (inference only; flows never backprop the
  // inverse). Same contract as above; `x` must not alias z.
  void inverse(const nn::Matrix& z, Scratch& scratch, nn::Matrix& x) const;

  // Backward for loss terms L(z, log_det): takes dL/dz and dL/d(log_det) per
  // sample, accumulates parameter gradients, returns dL/dx.
  nn::Matrix backward(const nn::Matrix& grad_z,
                      const std::vector<double>& grad_log_det);
  void backward_into(const nn::Matrix& grad_z,
                     const std::vector<double>& grad_log_det,
                     nn::Matrix& grad_x);

  std::vector<nn::Param*> parameters();

 private:
  // Runs the s/t net on b . input: s_raw lands in columns [0, dim) of
  // scratch.net.st and t in [dim, 2*dim).
  void condition(const nn::Matrix& input, Scratch& scratch) const;

  std::vector<float> mask_;  // b
  nn::ResNetST net_;
  nn::Param s_scale_;        // learned per-dim bound on the scale (1 x dim)

  // Training-forward caches.
  nn::Matrix cached_x_;
  nn::Matrix cached_s_;
  nn::Matrix cached_s_raw_;

  // Training-only workspaces. The inference paths are const, so the
  // compiler keeps them from touching these or the caches above.
  nn::Matrix masked_ws_;
  nn::Matrix t_ws_;
  nn::Matrix grad_s_ws_;
  nn::Matrix grad_t_ws_;
  nn::Matrix grad_s_raw_ws_;
  nn::Matrix grad_h_ws_;
};

}  // namespace passflow::flow
