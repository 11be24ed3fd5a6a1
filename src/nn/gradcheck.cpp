#include "nn/gradcheck.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

namespace passflow::nn {

namespace {
void accumulate(GradCheckResult& result, double analytic, double numeric) {
  const double abs_err = std::abs(analytic - numeric);
  const double denom = std::max({std::abs(analytic), std::abs(numeric), 1e-8});
  result.max_abs_error = std::max(result.max_abs_error, abs_err);
  result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
  ++result.checked;
}

// Central difference of loss() in one coordinate, whose value is
// `original`; set(v) writes the coordinate.
template <class Set>
double central_difference(const std::function<double()>& loss, float original,
                          Set set, double eps) {
  set(static_cast<float>(original + eps));
  const double plus = loss();
  set(static_cast<float>(original - eps));
  const double minus = loss();
  set(original);
  return (plus - minus) / (2.0 * eps);
}
}  // namespace

GradCheckResult check_param_gradients(const std::function<double()>& loss,
                                      const std::vector<Param*>& params,
                                      double eps, std::size_t max_entries) {
  GradCheckResult result;
  for (Param* p : params) {
    const std::size_t n = p->value().size();
    const std::size_t stride = std::max<std::size_t>(1, n / max_entries);
    for (std::size_t i = 0; i < n; i += stride) {
      const auto set = [p, i](float v) {
        p->write([i, v](Matrix& value) { value.data()[i] = v; });
      };
      const double numeric =
          central_difference(loss, p->value().data()[i], set, eps);
      accumulate(result, p->sized_grad().data()[i], numeric);
    }
  }
  return result;
}

GradCheckResult check_input_gradients(const std::function<double()>& loss,
                                      Matrix& input, const Matrix& analytic,
                                      double eps, std::size_t max_entries) {
  GradCheckResult result;
  const std::size_t n = input.size();
  const std::size_t stride = std::max<std::size_t>(1, n / max_entries);
  for (std::size_t i = 0; i < n; i += stride) {
    float* entry = input.data() + i;
    const double numeric = central_difference(
        loss, *entry, [entry](float v) { *entry = v; }, eps);
    accumulate(result, analytic.data()[i], numeric);
  }
  return result;
}

}  // namespace passflow::nn
