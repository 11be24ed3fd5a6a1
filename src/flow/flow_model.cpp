#include "flow/flow_model.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/ops.hpp"
#include "nn/serialize.hpp"
#include "util/thread_pool.hpp"

namespace passflow::flow {

namespace {
constexpr double kLog2Pi = 1.8378770664093453;  // log(2*pi)

// Below this many rows per worker, chunking costs more than it saves.
constexpr std::size_t kMinRowsPerWorker = 16;

bool worth_chunking(const util::ThreadPool* pool, std::size_t rows) {
  return pool != nullptr && pool->size() > 1 &&
         rows >= 2 * kMinRowsPerWorker;
}
}

double standard_normal_log_density(const float* z, std::size_t dim) {
  double sq = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    sq += static_cast<double>(z[i]) * z[i];
  }
  return -0.5 * (sq + static_cast<double>(dim) * kLog2Pi);
}

FlowModel::FlowModel(FlowConfig config, util::Rng& rng) : config_(config) {
  couplings_.reserve(config_.num_couplings);
  for (std::size_t i = 0; i < config_.num_couplings; ++i) {
    couplings_.push_back(std::make_unique<AffineCoupling>(
        config_.dim, config_.hidden, config_.residual_blocks,
        mask_for_layer(config_.mask, config_.dim, i), rng,
        "coupling" + std::to_string(i)));
  }
}

nn::Matrix FlowModel::forward(const nn::Matrix& x,
                              std::vector<double>& log_det) {
  log_det.assign(x.rows(), 0.0);
  nn::Matrix h = x;
  for (auto& coupling : couplings_) h = coupling->forward(h, log_det);
  return h;
}

// Both inference passes give every coupling the pass's one scratch and
// ping-pong the activations between two matrices, so a pass allocates a
// fixed handful of buffers whatever the depth.
nn::Matrix FlowModel::forward_inference(const nn::Matrix& x,
                                        std::vector<double>* log_det) const {
  if (log_det) log_det->assign(x.rows(), 0.0);
  AffineCoupling::Scratch scratch;
  nn::Matrix h = x;
  nn::Matrix next;
  for (const auto& coupling : couplings_) {
    coupling->forward_inference(h, log_det, scratch, next);
    std::swap(h, next);
  }
  return h;
}

nn::Matrix FlowModel::inverse(const nn::Matrix& z) const {
  AffineCoupling::Scratch scratch;
  nn::Matrix h = z;
  nn::Matrix next;
  for (auto it = couplings_.rbegin(); it != couplings_.rend(); ++it) {
    (*it)->inverse(h, scratch, next);
    std::swap(h, next);
  }
  return h;
}

nn::Matrix FlowModel::forward_inference(const nn::Matrix& x,
                                        std::vector<double>* log_det,
                                        util::ThreadPool* pool) const {
  if (!worth_chunking(pool, x.rows())) return forward_inference(x, log_det);
  if (log_det) log_det->assign(x.rows(), 0.0);
  nn::Matrix z(x.rows(), x.cols());
  pool->parallel_chunks(
      x.rows(), [&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<double> chunk_log_det;
        const nn::Matrix chunk = forward_inference(
            x.slice_rows(begin, end), log_det ? &chunk_log_det : nullptr);
        z.set_rows(begin, chunk);
        if (log_det) {
          std::copy(chunk_log_det.begin(), chunk_log_det.end(),
                    log_det->begin() + static_cast<std::ptrdiff_t>(begin));
        }
      });
  return z;
}

nn::Matrix FlowModel::inverse(const nn::Matrix& z,
                              util::ThreadPool* pool) const {
  if (!worth_chunking(pool, z.rows())) return inverse(z);
  nn::Matrix x(z.rows(), z.cols());
  pool->parallel_chunks(
      z.rows(), [&](std::size_t, std::size_t begin, std::size_t end) {
        x.set_rows(begin, inverse(z.slice_rows(begin, end)));
      });
  return x;
}

std::vector<double> FlowModel::log_prob(const nn::Matrix& x) const {
  return log_prob_batch(x, nullptr);
}

std::vector<double> FlowModel::log_prob_batch(const nn::Matrix& x,
                                              util::ThreadPool* pool) const {
  std::vector<double> log_det;
  const nn::Matrix z = forward_inference(x, &log_det, pool);
  std::vector<double> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out[r] = standard_normal_log_density(z.row(r), z.cols()) + log_det[r];
  }
  return out;
}

double FlowModel::nll_backward(const nn::Matrix& x) {
  const std::size_t n = x.rows();
  log_det_ws_.assign(n, 0.0);

  // Forward ladder: activations ping-pong between the two workspaces, so a
  // warm trainer performs no allocations here.
  const nn::Matrix* h = &x;
  for (auto& coupling : couplings_) {
    nn::Matrix& dst = (h == &fwd_ws_a_) ? fwd_ws_b_ : fwd_ws_a_;
    coupling->forward_into(*h, log_det_ws_, dst);
    h = &dst;
  }
  const nn::Matrix& z = *h;

  // L = (1/n) sum_i [ 0.5*||z_i||^2 + D/2 log(2pi) - log_det_i ]
  double loss = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    loss += -standard_normal_log_density(z.row(r), z.cols()) - log_det_ws_[r];
  }
  loss /= static_cast<double>(n);

  // dL/dz = z / n ; dL/d(log_det_i) = -1/n.
  grad_ws_a_ = z;
  nn::scale_inplace(grad_ws_a_, 1.0f / static_cast<float>(n));
  grad_log_det_ws_.assign(n, -1.0 / static_cast<double>(n));

  const nn::Matrix* g = &grad_ws_a_;
  for (auto it = couplings_.rbegin(); it != couplings_.rend(); ++it) {
    nn::Matrix& dst = (g == &grad_ws_a_) ? grad_ws_b_ : grad_ws_a_;
    (*it)->backward_into(*g, grad_log_det_ws_, dst);
    g = &dst;
    // grad_log_det flows unchanged through earlier layers: each layer's
    // log-det enters the loss additively, so every coupling sees -1/n.
  }
  return loss;
}

namespace {
// Shards smaller than this are not worth a replica sync + reduction.
constexpr std::size_t kMinRowsPerShard = 32;
}  // namespace

void FlowModel::ensure_replicas(std::size_t count) {
  while (replicas_.size() < count) {
    // Initial weights are irrelevant — every pooled step overwrites them
    // with this model's parameters before use.
    util::Rng rng(0x9e3779b9 + replicas_.size());
    replicas_.push_back(std::make_unique<FlowModel>(config_, rng));
  }
  if (shard_ws_.size() < count) shard_ws_.resize(count);
}

double FlowModel::nll_backward(const nn::Matrix& x, util::ThreadPool* pool) {
  const std::size_t rows = x.rows();
  const std::size_t shards =
      (pool != nullptr && pool->size() > 1)
          ? std::min<std::size_t>(pool->size(), rows / kMinRowsPerShard)
          : 0;
  if (shards < 2) return nll_backward(x);
  ensure_replicas(shards);

  const auto params = parameters();
  std::vector<double> shard_loss(shards, 0.0);
  std::vector<std::size_t> shard_rows(shards, 0);

  // Each worker syncs its replica's parameters, then runs the serial
  // forward+backward on its contiguous shard. The balanced split below
  // (shard s covers [s*rows/shards, (s+1)*rows/shards)) keeps every shard
  // non-empty and in range for any shards <= rows, unlike a ceil-division
  // partition whose tail shards can start past the end. Replicas are
  // worker-private, so no state is shared; OpenMP inside pool workers is
  // pinned to one thread, so the GEMMs stay serial per worker.
  pool->parallel_for(shards, [&](std::size_t s) {
    const std::size_t begin = s * rows / shards;
    const std::size_t end = (s + 1) * rows / shards;
    FlowModel& replica = *replicas_[s];
    const auto rparams = replica.parameters();
    for (std::size_t i = 0; i < params.size(); ++i) {
      rparams[i]->value = params[i]->value;
    }
    replica.zero_grad();

    nn::Matrix& shard = shard_ws_[s];
    shard.resize(end - begin, x.cols());
    std::copy(x.row(begin), x.row(begin) + shard.size(), shard.data());

    shard_loss[s] = replica.nll_backward(shard);
    shard_rows[s] = end - begin;
  });

  // Combine: grad = sum_s (n_s / n) * grad_s, reduced pairwise over a tree
  // whose shape depends only on the shard count, parallelized across
  // parameters (each parameter's arithmetic happens on exactly one worker
  // in a fixed order, so results are bitwise reproducible).
  std::vector<std::vector<nn::Param*>> rparams(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    rparams[s] = replicas_[s]->parameters();
  }
  pool->parallel_for(params.size(), [&](std::size_t pi) {
    for (std::size_t s = 0; s < shards; ++s) {
      const float w = static_cast<float>(
          static_cast<double>(shard_rows[s]) / static_cast<double>(rows));
      nn::scale_inplace(rparams[s][pi]->grad, w);
    }
    for (std::size_t stride = 1; stride < shards; stride *= 2) {
      for (std::size_t s = 0; s + stride < shards; s += 2 * stride) {
        nn::add_inplace(rparams[s][pi]->grad, rparams[s + stride][pi]->grad);
      }
    }
    nn::add_inplace(params[pi]->grad, rparams[0][pi]->grad);
  });

  double loss = 0.0;
  for (std::size_t s = 0; s < shards; ++s) {
    loss += shard_loss[s] * static_cast<double>(shard_rows[s]) /
            static_cast<double>(rows);
  }
  return loss;
}

double FlowModel::nll(const nn::Matrix& x) const {
  return nll(x, nullptr);
}

double FlowModel::nll(const nn::Matrix& x, util::ThreadPool* pool) const {
  std::vector<double> log_det;
  const nn::Matrix z = forward_inference(x, &log_det, pool);
  double loss = 0.0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    loss -= standard_normal_log_density(z.row(r), z.cols()) + log_det[r];
  }
  return loss / static_cast<double>(x.rows());
}

std::vector<nn::Param*> FlowModel::parameters() {
  std::vector<nn::Param*> params;
  for (auto& coupling : couplings_) {
    const auto p = coupling->parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

std::size_t FlowModel::parameter_count() {
  std::size_t n = 0;
  for (nn::Param* p : parameters()) n += p->value.size();
  return n;
}

void FlowModel::zero_grad() {
  for (nn::Param* p : parameters()) p->grad.zero();
}

void FlowModel::save(const std::string& path) {
  nn::save_params_file(path, parameters());
}

void FlowModel::load(const std::string& path) {
  nn::load_params_file(path, parameters());
}

}  // namespace passflow::flow
