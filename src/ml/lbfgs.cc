#include "ml/lbfgs.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace ceres {

namespace {

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double InfNorm(const std::vector<double>& v) {
  double best = 0;
  for (double x : v) best = std::max(best, std::fabs(x));
  return best;
}

}  // namespace

LbfgsResult MinimizeLbfgs(const LbfgsObjective& objective,
                          std::vector<double>* x, const LbfgsConfig& config,
                          const Deadline& deadline) {
  const size_t dim = x->size();
  LbfgsResult result;
  std::vector<double> grad(dim, 0.0);
  double fx = objective(*x, &grad);
  result.evaluations = 1;

  // Curvature history: s_i = x_{i+1} - x_i, y_i = g_{i+1} - g_i, kept in a
  // ring of history + 1 preallocated slots. Pair i (0 = oldest) lives in
  // slot (oldest + i) % slots; each candidate pair is written straight into
  // the free slot after the newest and joins the history only when its
  // curvature s'y is positive. No iteration allocates.
  const size_t history = static_cast<size_t>(std::max(config.history, 0));
  const size_t slots = history + 1;
  std::vector<std::vector<double>> s_ring(slots, std::vector<double>(dim));
  std::vector<std::vector<double>> y_ring(slots, std::vector<double>(dim));
  std::vector<double> sy_ring(slots, 0.0);
  size_t oldest = 0;
  size_t count = 0;
  auto slot = [&](size_t i) { return (oldest + i) % slots; };

  std::vector<double> alpha(history);
  std::vector<double> direction(dim);
  std::vector<double> x_next(dim);
  std::vector<double> grad_next(dim, 0.0);

  for (int iter = 0; iter < config.max_iterations; ++iter) {
    if (deadline.expired()) {
      result.deadline_expired = true;
      break;
    }
    result.iterations = iter + 1;
    if (InfNorm(grad) / std::max(1.0, InfNorm(*x)) <
        config.gradient_tolerance) {
      result.converged = true;
      break;
    }

    // Two-loop recursion computing d = -H * g.
    direction = grad;
    for (size_t i = count; i-- > 0;) {
      const size_t at = slot(i);
      alpha[i] = (1.0 / sy_ring[at]) * Dot(s_ring[at], direction);
      const std::vector<double>& y = y_ring[at];
      for (size_t j = 0; j < dim; ++j) {
        direction[j] -= alpha[i] * y[j];
      }
    }
    if (count > 0) {
      // Initial Hessian scaling gamma = s'y / y'y.
      const size_t newest = slot(count - 1);
      double sy = sy_ring[newest];
      double yy = Dot(y_ring[newest], y_ring[newest]);
      double gamma = yy > 0 ? sy / yy : 1.0;
      for (double& d : direction) d *= gamma;
    }
    for (size_t i = 0; i < count; ++i) {
      const size_t at = slot(i);
      double beta = (1.0 / sy_ring[at]) * Dot(y_ring[at], direction);
      const std::vector<double>& s = s_ring[at];
      for (size_t j = 0; j < dim; ++j) {
        direction[j] += (alpha[i] - beta) * s[j];
      }
    }
    for (double& d : direction) d = -d;

    double directional = Dot(grad, direction);
    if (directional >= 0) {
      // Not a descent direction (history gone stale); reset to steepest
      // descent.
      count = 0;
      for (size_t j = 0; j < dim; ++j) direction[j] = -grad[j];
      directional = -Dot(grad, grad);
      if (directional == 0) {
        result.converged = true;
        break;
      }
    }

    // Backtracking Armijo line search.
    double step = iter == 0 ? std::min(1.0, 1.0 / InfNorm(grad)) : 1.0;
    double fx_next = fx;
    bool accepted = false;
    for (int ls = 0; ls < config.max_line_search; ++ls) {
      for (size_t j = 0; j < dim; ++j) {
        x_next[j] = (*x)[j] + step * direction[j];
      }
      fx_next = objective(x_next, &grad_next);
      ++result.evaluations;
      if (fx_next <= fx + config.armijo_c * step * directional) {
        accepted = true;
        break;
      }
      step *= config.backtrack;
    }
    if (!accepted) {
      // Best point so far kept.
      result.line_search_failed = true;
      break;
    }

    // Update curvature history.
    const size_t free_slot = slot(count);
    std::vector<double>& s = s_ring[free_slot];
    std::vector<double>& y = y_ring[free_slot];
    for (size_t j = 0; j < dim; ++j) {
      s[j] = x_next[j] - (*x)[j];
      y[j] = grad_next[j] - grad[j];
    }
    double sy = Dot(s, y);
    if (sy > 1e-12) {
      sy_ring[free_slot] = sy;
      if (count == history) {
        oldest = (oldest + 1) % slots;
      } else {
        ++count;
      }
    }

    double improvement = fx - fx_next;
    x->swap(x_next);
    grad.swap(grad_next);
    fx = fx_next;
    if (improvement >= 0 &&
        improvement <= config.objective_tolerance * std::max(1.0,
                                                             std::fabs(fx))) {
      result.converged = true;
      break;
    }
  }
  result.final_objective = fx;
  return result;
}

}  // namespace ceres
