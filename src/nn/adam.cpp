#include "nn/adam.hpp"

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "nn/ops.hpp"

namespace passflow::nn {

Adam::Adam(std::vector<Param*> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Param* p : params_) {
    m_.emplace_back(p->value().rows(), p->value().cols());
    v_.emplace_back(p->value().rows(), p->value().cols());
  }
}

void Adam::step() {
  ++t_;

  double clip_scale = 1.0;
  if (config_.clip_norm > 0.0) {
    double total_sq = 0.0;
    for (const Param* p : params_) total_sq += squared_sum(p->grad);
    const double norm = std::sqrt(total_sq);
    if (norm > config_.clip_norm) clip_scale = config_.clip_norm / norm;
  }

  const double bias1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));

  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    const float* grad = p.sized_grad().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    p.write([&](Matrix& value_matrix) {
      float* value = value_matrix.data();
      for (std::size_t j = 0; j < value_matrix.size(); ++j) {
        const double g = static_cast<double>(grad[j]) * clip_scale;
        m[j] = static_cast<float>(config_.beta1 * m[j] +
                                  (1.0 - config_.beta1) * g);
        v[j] = static_cast<float>(config_.beta2 * v[j] +
                                  (1.0 - config_.beta2) * g * g);
        const double m_hat = m[j] / bias1;
        const double v_hat = v[j] / bias2;
        double update = config_.learning_rate * m_hat /
                        (std::sqrt(v_hat) + config_.epsilon);
        if (config_.weight_decay > 0.0) {
          update += config_.learning_rate * config_.weight_decay * value[j];
        }
        value[j] = static_cast<float>(value[j] - update);
      }
    });
  }
}

}  // namespace passflow::nn
