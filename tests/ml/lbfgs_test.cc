#include "ml/lbfgs.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

namespace ceres {
namespace {

TEST(LbfgsTest, MinimizesQuadratic) {
  // f(x) = (x0 - 3)^2 + 2 (x1 + 1)^2.
  LbfgsObjective objective = [](const std::vector<double>& x,
                                std::vector<double>* grad) {
    (*grad)[0] = 2 * (x[0] - 3);
    (*grad)[1] = 4 * (x[1] + 1);
    return (x[0] - 3) * (x[0] - 3) + 2 * (x[1] + 1) * (x[1] + 1);
  };
  std::vector<double> x{0.0, 0.0};
  LbfgsResult result = MinimizeLbfgs(objective, &x);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(x[0], 3.0, 1e-4);
  EXPECT_NEAR(x[1], -1.0, 1e-4);
  EXPECT_NEAR(result.final_objective, 0.0, 1e-7);
}

TEST(LbfgsTest, MinimizesRosenbrock) {
  LbfgsObjective objective = [](const std::vector<double>& x,
                                std::vector<double>* grad) {
    double a = 1 - x[0];
    double b = x[1] - x[0] * x[0];
    (*grad)[0] = -2 * a - 400 * x[0] * b;
    (*grad)[1] = 200 * b;
    return a * a + 100 * b * b;
  };
  std::vector<double> x{-1.2, 1.0};
  LbfgsConfig config;
  config.max_iterations = 500;
  LbfgsResult result = MinimizeLbfgs(objective, &x, config);
  EXPECT_NEAR(x[0], 1.0, 1e-3);
  EXPECT_NEAR(x[1], 1.0, 1e-3);
  EXPECT_LT(result.final_objective, 1e-6);
}

TEST(LbfgsTest, HighDimensionalConvexProblem) {
  const int dim = 50;
  LbfgsObjective objective = [&](const std::vector<double>& x,
                                 std::vector<double>* grad) {
    double sum = 0;
    for (int i = 0; i < dim; ++i) {
      double target = 0.1 * i;
      double scale = 1.0 + (i % 5);
      (*grad)[static_cast<size_t>(i)] = 2 * scale * (x[static_cast<size_t>(i)] - target);
      sum += scale * (x[static_cast<size_t>(i)] - target) *
             (x[static_cast<size_t>(i)] - target);
    }
    return sum;
  };
  std::vector<double> x(dim, 5.0);
  LbfgsResult result = MinimizeLbfgs(objective, &x);
  EXPECT_TRUE(result.converged);
  for (int i = 0; i < dim; ++i) {
    EXPECT_NEAR(x[static_cast<size_t>(i)], 0.1 * i, 1e-3);
  }
}

TEST(LbfgsTest, StartingAtMinimumConvergesImmediately) {
  LbfgsObjective objective = [](const std::vector<double>& x,
                                std::vector<double>* grad) {
    (*grad)[0] = 2 * x[0];
    return x[0] * x[0];
  };
  std::vector<double> x{0.0};
  LbfgsResult result = MinimizeLbfgs(objective, &x);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 1);
}

TEST(LbfgsTest, RespectsIterationCap) {
  int calls = 0;
  LbfgsObjective objective = [&calls](const std::vector<double>& x,
                                       std::vector<double>* grad) {
    ++calls;
    (*grad)[0] = 2 * (x[0] - 100);
    return (x[0] - 100) * (x[0] - 100);
  };
  std::vector<double> x{0.0};
  LbfgsConfig config;
  config.max_iterations = 2;
  LbfgsResult result = MinimizeLbfgs(objective, &x, config);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 2);
  EXPECT_EQ(result.evaluations, calls);
  EXPECT_FALSE(result.line_search_failed);
}

TEST(LbfgsTest, NonSmoothAbsoluteValueStillDescends) {
  // |x| with subgradient; L-BFGS won't converge exactly but must descend.
  LbfgsObjective objective = [](const std::vector<double>& x,
                                std::vector<double>* grad) {
    (*grad)[0] = x[0] >= 0 ? 1.0 : -1.0;
    return std::fabs(x[0]);
  };
  std::vector<double> x{10.0};
  LbfgsResult result = MinimizeLbfgs(objective, &x);
  EXPECT_LT(result.final_objective, 10.0);
}

// f(x) = (x0 - 3)^2 + 2 (x1 + 1)^2, minimum 0 at (3, -1).
double Quadratic(const std::vector<double>& x, std::vector<double>* grad) {
  (*grad)[0] = 2 * (x[0] - 3);
  (*grad)[1] = 4 * (x[1] + 1);
  return (x[0] - 3) * (x[0] - 3) + 2 * (x[1] + 1) * (x[1] + 1);
}

// Rosenbrock's banana, minimum 0 at (1, 1).
double Rosenbrock(const std::vector<double>& x, std::vector<double>* grad) {
  double a = 1 - x[0];
  double b = x[1] - x[0] * x[0];
  (*grad)[0] = -2 * a - 400 * x[0] * b;
  (*grad)[1] = 200 * b;
  return a * a + 100 * b * b;
}

// history = 0 keeps no curvature pair (steepest descent with backtracking);
// history = 1 keeps only the newest. Both must still reach the minimum.
TEST(LbfgsTest, ShortHistoriesMinimizeQuadratic) {
  for (int history : {0, 1}) {
    SCOPED_TRACE(history);
    LbfgsConfig config;
    config.history = history;
    config.max_iterations = 2000;
    std::vector<double> x{0.0, 0.0};
    LbfgsResult result = MinimizeLbfgs(Quadratic, &x, config);
    EXPECT_TRUE(result.converged);
    EXPECT_NEAR(x[0], 3.0, 1e-4);
    EXPECT_NEAR(x[1], -1.0, 1e-4);
  }
}

TEST(LbfgsTest, ShortHistoriesMinimizeRosenbrock) {
  for (int history : {0, 1}) {
    SCOPED_TRACE(history);
    LbfgsConfig config;
    config.history = history;
    config.max_iterations = 100000;
    config.objective_tolerance = 0;
    std::vector<double> x{-1.2, 1.0};
    LbfgsResult result = MinimizeLbfgs(Rosenbrock, &x, config);
    EXPECT_NEAR(x[0], 1.0, 1e-2);
    EXPECT_NEAR(x[1], 1.0, 2e-2);
    EXPECT_LT(result.final_objective, 1e-4);
  }
}

// With the gradient tolerance off, an exact minimum is reached with two
// curvature pairs in the history: the two-loop direction is zero, so it is
// not a descent direction, the history is cleared, and the steepest-descent
// fallback finds a zero gradient and stops converged.
TEST(LbfgsTest, StaleDirectionResetAtExactMinimum) {
  LbfgsObjective objective = [](const std::vector<double>& x,
                                std::vector<double>* grad) {
    (*grad)[0] = 2 * (x[0] - 3);
    return (x[0] - 3) * (x[0] - 3);
  };
  LbfgsConfig config;
  config.gradient_tolerance = 0;
  config.objective_tolerance = 0;
  std::vector<double> x{0.0};
  LbfgsResult result = MinimizeLbfgs(objective, &x, config);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(x[0], 3.0);
  // Steps 0 -> 1 (normalized first step) -> 3 (secant step); the third
  // iteration takes the reset path and stops without evaluating.
  EXPECT_EQ(result.iterations, 3);
  EXPECT_EQ(result.evaluations, 3);
  EXPECT_FALSE(result.line_search_failed);
}

// f(x) = 1/2 x'Ax - b'x with A tridiagonal SPD (a shifted 1-D Laplacian)
// and b = A x*, so the closed-form minimum is x*. A three-pair history must
// wrap its ring many times before converging.
TEST(LbfgsTest, RunLongerThanHistoryReachesClosedFormMinimum) {
  const size_t dim = 40;
  std::vector<double> target(dim);
  for (size_t i = 0; i < dim; ++i) target[i] = std::sin(static_cast<double>(i));
  auto apply = [dim](const std::vector<double>& v, size_t i) {
    double out = 2.1 * v[i];
    if (i > 0) out -= v[i - 1];
    if (i + 1 < dim) out -= v[i + 1];
    return out;
  };
  std::vector<double> b(dim);
  for (size_t i = 0; i < dim; ++i) b[i] = apply(target, i);
  LbfgsObjective objective = [&](const std::vector<double>& x,
                                 std::vector<double>* grad) {
    double value = 0;
    for (size_t i = 0; i < dim; ++i) {
      const double ax = apply(x, i);
      (*grad)[i] = ax - b[i];
      value += 0.5 * x[i] * ax - b[i] * x[i];
    }
    return value;
  };
  LbfgsConfig config;
  config.history = 3;
  config.max_iterations = 1000;
  config.gradient_tolerance = 1e-10;
  config.objective_tolerance = 0;
  std::vector<double> x(dim, 0.0);
  LbfgsResult result = MinimizeLbfgs(objective, &x, config);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 3 * config.history)
      << "iterations=" << result.iterations;
  // The run stops once the objective decrease drops below double
  // resolution, which bounds the attainable accuracy near sqrt(epsilon).
  for (size_t i = 0; i < dim; ++i) EXPECT_NEAR(x[i], target[i], 1e-6);
}

TEST(LbfgsTest, ReportsLineSearchFailure) {
  // The reported gradient points the wrong way, so no step along the
  // "descent" direction ever decreases the objective.
  LbfgsObjective objective = [](const std::vector<double>& x,
                                std::vector<double>* grad) {
    (*grad)[0] = -1.0;
    return x[0];
  };
  std::vector<double> x{5.0};
  LbfgsConfig config;
  LbfgsResult result = MinimizeLbfgs(objective, &x, config);
  EXPECT_TRUE(result.line_search_failed);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.evaluations, 1 + config.max_line_search);
  EXPECT_EQ(x[0], 5.0);  // The best point so far is kept.
}

TEST(LbfgsTest, CancelTokenFiredInsideTheObjectiveStopsTheSolver) {
  // Rosenbrock needs dozens of iterations; the objective cancels the run's
  // token on its 5th evaluation, and the solver must stop at its next
  // per-iteration check instead of running to convergence or the cap.
  constexpr int kCancelAt = 5;
  CancelToken token;
  int evaluations = 0;
  LbfgsObjective objective = [&](const std::vector<double>& x,
                                 std::vector<double>* grad) {
    if (++evaluations == kCancelAt) token.Cancel();
    double a = 1 - x[0];
    double b = x[1] - x[0] * x[0];
    (*grad)[0] = -2 * a - 400 * x[0] * b;
    (*grad)[1] = 200 * b;
    return a * a + 100 * b * b;
  };
  std::vector<double> x{-1.2, 1.0};
  LbfgsConfig config;
  config.max_iterations = 500;
  LbfgsResult result =
      MinimizeLbfgs(objective, &x, config, Deadline().WithToken(token));
  EXPECT_TRUE(result.deadline_expired);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.evaluations, evaluations);
  // The iteration that made the 5th evaluation finishes its line search;
  // no further iteration starts.
  EXPECT_GE(result.evaluations, kCancelAt);
  EXPECT_LE(result.evaluations, kCancelAt + config.max_line_search);
  EXPECT_LT(result.iterations, kCancelAt);
  // The run keeps the best point so far: the objective there is finite
  // and no worse than at the start (24.2).
  EXPECT_LE(result.final_objective, 24.2);
}

TEST(LbfgsTest, ExpiredDeadlineRunsNoIteration) {
  LbfgsObjective objective = [](const std::vector<double>& x,
                                std::vector<double>* grad) {
    (*grad)[0] = 2 * (x[0] - 3);
    return (x[0] - 3) * (x[0] - 3);
  };
  std::vector<double> x{0.0};
  LbfgsResult result = MinimizeLbfgs(
      objective, &x, {}, Deadline::After(std::chrono::seconds(0)));
  EXPECT_TRUE(result.deadline_expired);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_EQ(result.evaluations, 1);
  EXPECT_EQ(x[0], 0.0);
}

}  // namespace
}  // namespace ceres
