#include "ml/logistic_regression.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "util/random.h"
#include "util/string_util.h"

namespace ceres {
namespace {

LabeledExample Example(std::vector<std::pair<int32_t, double>> entries,
                       int32_t label) {
  LabeledExample example;
  for (auto& [index, value] : entries) example.features.Add(index, value);
  example.features.Finalize();
  example.label = label;
  return example;
}

TEST(LogisticRegressionTest, SeparatesTwoClasses) {
  std::vector<LabeledExample> examples;
  for (int i = 0; i < 20; ++i) {
    examples.push_back(Example({{0, 1.0}}, 0));
    examples.push_back(Example({{1, 1.0}}, 1));
  }
  LogisticRegression model;
  Result<LbfgsResult> fit = model.Train(examples, 2, 2);
  ASSERT_TRUE(fit.ok());
  SparseVector a;
  a.Add(0, 1.0);
  a.Finalize();
  auto [cls_a, conf_a] = model.Predict(a);
  EXPECT_EQ(cls_a, 0);
  EXPECT_GT(conf_a, 0.8);
  SparseVector b;
  b.Add(1, 1.0);
  b.Finalize();
  EXPECT_EQ(model.Predict(b).first, 1);
}

TEST(LogisticRegressionTest, SolverDeadlineFailsTheFitTyped) {
  std::vector<LabeledExample> examples;
  for (int i = 0; i < 20; ++i) {
    examples.push_back(Example({{0, 1.0}}, 0));
    examples.push_back(Example({{1, 1.0}}, 1));
  }
  CancelToken token;
  token.Cancel();
  LogisticRegression model;
  EXPECT_EQ(
      model.Train(examples, 2, 2, {}, Deadline().WithToken(token))
          .status()
          .code(),
      StatusCode::kCancelled);
  EXPECT_FALSE(model.trained());
  EXPECT_EQ(model.Train(examples, 2, 2, {},
                        Deadline::After(std::chrono::seconds(0)))
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(model.trained());
}

TEST(LogisticRegressionTest, MultinomialThreeClasses) {
  std::vector<LabeledExample> examples;
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    int cls = i % 3;
    // Each class fires its own feature plus a noisy shared one.
    std::vector<std::pair<int32_t, double>> entries{
        {cls, 1.0}, {3, rng.UniformDouble()}};
    examples.push_back(Example(entries, cls));
  }
  LogisticRegression model;
  ASSERT_TRUE(model.Train(examples, 4, 3).ok());
  for (int cls = 0; cls < 3; ++cls) {
    SparseVector v;
    v.Add(cls, 1.0);
    v.Finalize();
    EXPECT_EQ(model.Predict(v).first, cls);
  }
}

TEST(LogisticRegressionTest, ProbabilitiesSumToOne) {
  std::vector<LabeledExample> examples{Example({{0, 1.0}}, 0),
                                       Example({{1, 1.0}}, 1),
                                       Example({{2, 1.0}}, 2)};
  LogisticRegression model;
  ASSERT_TRUE(model.Train(examples, 3, 3).ok());
  SparseVector v;
  v.Add(0, 0.5);
  v.Add(2, 0.5);
  v.Finalize();
  std::vector<double> probs = model.PredictProbabilities(v);
  double sum = 0;
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(LogisticRegressionTest, RegularizationShrinksWeights) {
  std::vector<LabeledExample> examples;
  for (int i = 0; i < 10; ++i) {
    examples.push_back(Example({{0, 1.0}}, 0));
    examples.push_back(Example({{1, 1.0}}, 1));
  }
  LogisticRegression strong;
  LogRegConfig strong_config;
  strong_config.l2_c = 0.01;  // Strong penalty.
  ASSERT_TRUE(strong.Train(examples, 2, 2, strong_config).ok());
  LogisticRegression weak;
  LogRegConfig weak_config;
  weak_config.l2_c = 100.0;  // Weak penalty.
  ASSERT_TRUE(weak.Train(examples, 2, 2, weak_config).ok());
  EXPECT_LT(std::fabs(strong.WeightAt(0, 0)),
            std::fabs(weak.WeightAt(0, 0)));
}

TEST(LogisticRegressionTest, UnseenFeatureFallsBackToPrior) {
  // With an imbalanced training set, an all-unknown-feature example should
  // get the majority class (intercepts are unregularized).
  std::vector<LabeledExample> examples;
  for (int i = 0; i < 30; ++i) examples.push_back(Example({{0, 1.0}}, 0));
  for (int i = 0; i < 10; ++i) examples.push_back(Example({{1, 1.0}}, 1));
  LogisticRegression model;
  ASSERT_TRUE(model.Train(examples, 2, 2).ok());
  SparseVector empty;
  empty.Finalize();
  EXPECT_EQ(model.Predict(empty).first, 0);
}

TEST(LogisticRegressionTest, ErrorsOnBadInput) {
  LogisticRegression model;
  EXPECT_EQ(model.Train({}, 2, 2).status().code(),
            StatusCode::kInvalidArgument);

  std::vector<LabeledExample> examples{Example({{0, 1.0}}, 5)};
  EXPECT_EQ(model.Train(examples, 2, 2).status().code(),
            StatusCode::kInvalidArgument);

  LabeledExample unfinalized;
  unfinalized.features.Add(0, 1.0);
  unfinalized.label = 0;
  std::vector<LabeledExample> bad;
  bad.push_back(std::move(unfinalized));
  EXPECT_EQ(model.Train(bad, 2, 2).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(model.Train({Example({{0, 1.0}}, 0)}, 2, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LogisticRegressionTest, ExampleWeightsMatter) {
  // One heavily weighted contrarian example should beat three normal ones
  // carrying the same feature.
  std::vector<LabeledExample> examples;
  for (int i = 0; i < 3; ++i) examples.push_back(Example({{0, 1.0}}, 0));
  LabeledExample heavy = Example({{0, 1.0}}, 1);
  heavy.weight = 30.0;
  examples.push_back(std::move(heavy));
  LogisticRegression model;
  ASSERT_TRUE(model.Train(examples, 1, 2).ok());
  SparseVector v;
  v.Add(0, 1.0);
  v.Finalize();
  EXPECT_EQ(model.Predict(v).first, 1);
}

TEST(LogisticRegressionTest, RecoversOnNoisyLinearlySeparableData) {
  Rng rng(11);
  std::vector<LabeledExample> examples;
  for (int i = 0; i < 400; ++i) {
    double x0 = rng.Gaussian(0, 1);
    double x1 = rng.Gaussian(0, 1);
    int label = x0 + 0.5 * x1 > 0 ? 1 : 0;
    if (rng.Bernoulli(0.05)) label = 1 - label;  // 5% label noise.
    LabeledExample example;
    example.features.Add(0, x0);
    example.features.Add(1, x1);
    example.features.Finalize();
    example.label = label;
    examples.push_back(std::move(example));
  }
  LogisticRegression model;
  ASSERT_TRUE(model.Train(examples, 2, 2).ok());
  int correct = 0;
  int total = 0;
  for (int i = 0; i < 200; ++i) {
    double x0 = rng.Gaussian(0, 1);
    double x1 = rng.Gaussian(0, 1);
    SparseVector v;
    v.Add(0, x0);
    v.Add(1, x1);
    v.Finalize();
    int truth = x0 + 0.5 * x1 > 0 ? 1 : 0;
    if (model.Predict(v).first == truth) ++correct;
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.9);
}

// A small weighted problem for the gradient checks: 6 classes over 10
// features, 3-5 nonzeros per example, importance weights in [0.5, 2).
std::vector<LabeledExample> GradientCheckProblem(Rng* rng) {
  std::vector<LabeledExample> examples;
  for (int i = 0; i < 40; ++i) {
    LabeledExample example;
    example.label = static_cast<int32_t>(rng->Index(6));
    const int nonzeros = 3 + static_cast<int>(rng->Index(3));
    for (int j = 0; j < nonzeros; ++j) {
      example.features.Add(static_cast<int32_t>(rng->Index(10)),
                           rng->Gaussian(0, 1));
    }
    example.features.Finalize();
    example.weight = 0.5 + 1.5 * rng->UniformDouble();
    examples.push_back(std::move(example));
  }
  return examples;
}

// Compares the analytic gradient with central differences at a random point,
// in 6 coordinates per class: 5 random weights and the intercept.
void ExpectGradientMatchesFiniteDifferences(
    const std::vector<LabeledExample>& examples, int32_t num_features,
    int32_t num_classes, const LogRegConfig& config, Rng* rng) {
  LogRegObjective objective(examples, num_features, num_classes, config);
  std::vector<double> w(objective.dim());
  for (double& v : w) v = rng->Gaussian(0, 0.5);
  std::vector<double> grad(w.size());
  objective(w, &grad);
  std::vector<double> scratch(w.size());
  const double h = 1e-5;
  const size_t stride = static_cast<size_t>(num_features) + 1;
  for (int32_t k = 0; k < num_classes; ++k) {
    std::vector<size_t> coords{static_cast<size_t>(k) * stride +
                               static_cast<size_t>(num_features)};
    for (int j = 0; j < 5; ++j) {
      coords.push_back(static_cast<size_t>(k) * stride +
                       rng->Index(static_cast<size_t>(num_features)));
    }
    for (size_t i : coords) {
      std::vector<double> plus = w;
      std::vector<double> minus = w;
      plus[i] += h;
      minus[i] -= h;
      const double numeric =
          (objective(plus, &scratch) - objective(minus, &scratch)) / (2 * h);
      EXPECT_NEAR(grad[i], numeric, 1e-6 * std::max(1.0, std::fabs(numeric)))
          << "class " << k << " coordinate " << i;
    }
  }
}

TEST(LogRegObjectiveTest, GradientMatchesFiniteDifferences) {
  for (bool regularize_bias : {false, true}) {
    SCOPED_TRACE(regularize_bias);
    Rng rng(regularize_bias ? 5 : 4);
    std::vector<LabeledExample> examples = GradientCheckProblem(&rng);
    LogRegConfig config;
    config.l2_c = 0.5;
    config.regularize_bias = regularize_bias;
    ExpectGradientMatchesFiniteDifferences(examples, 10, 6, config, &rng);
  }
}

TEST(LogRegObjectiveTest, RegularizeBiasPenalizesOnlyTheIntercepts) {
  Rng rng(6);
  std::vector<LabeledExample> examples = GradientCheckProblem(&rng);
  LogRegConfig off;
  off.l2_c = 0.5;
  LogRegConfig on = off;
  on.regularize_bias = true;
  LogRegObjective plain(examples, 10, 6, off);
  LogRegObjective penalized(examples, 10, 6, on);
  std::vector<double> w(plain.dim());
  for (double& v : w) v = rng.Gaussian(0, 0.5);
  std::vector<double> grad_off(w.size());
  std::vector<double> grad_on(w.size());
  const double loss_off = plain(w, &grad_off);
  const double loss_on = penalized(w, &grad_on);
  double bias_penalty = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    if (i % 11 == 10) {  // Intercept of its class block.
      EXPECT_NEAR(grad_on[i] - grad_off[i], 2.0 * w[i], 1e-12);
      bias_penalty += w[i] * w[i];
    } else {
      EXPECT_EQ(grad_on[i], grad_off[i]);
    }
  }
  EXPECT_NEAR(loss_on - loss_off, bias_penalty, 1e-9);
}

// A feature index at or past num_features (a feature unseen when the
// dictionary was frozen) is ignored: objective and gradient equal those of
// the example without it, bit for bit, and stay consistent with finite
// differences.
TEST(LogRegObjectiveTest, IgnoresFeaturesPastNumFeatures) {
  Rng rng(8);
  std::vector<LabeledExample> with_stray = GradientCheckProblem(&rng);
  std::vector<LabeledExample> without_stray = with_stray;
  with_stray.push_back(Example({{3, 0.7}, {10, 2.0}, {25, -1.0}}, 2));
  without_stray.push_back(Example({{3, 0.7}}, 2));

  LogRegConfig config;
  LogRegObjective a(with_stray, 10, 6, config);
  LogRegObjective b(without_stray, 10, 6, config);
  std::vector<double> w(a.dim());
  for (double& v : w) v = rng.Gaussian(0, 0.5);
  std::vector<double> grad_a(w.size());
  std::vector<double> grad_b(w.size());
  EXPECT_EQ(a(w, &grad_a), b(w, &grad_b));
  EXPECT_EQ(grad_a, grad_b);
  ExpectGradientMatchesFiniteDifferences(with_stray, 10, 6, config, &rng);
}

// A seeded sparse problem shaped like one site-template fit: a few dozen
// nonzeros out of 200 features, 8 classes, the label driven by which
// class-specific features fire.
std::vector<LabeledExample> PinnedProblem() {
  constexpr int kExamples = 300;
  constexpr int kFeatures = 200;
  constexpr int kClasses = 8;
  Rng rng(20180801);
  std::vector<LabeledExample> examples;
  for (int i = 0; i < kExamples; ++i) {
    LabeledExample example;
    example.label = static_cast<int32_t>(rng.Index(kClasses));
    // Class-specific features (25 per class) plus shared noise features.
    for (int j = 0; j < 4; ++j) {
      int32_t own = example.label * 25 +
                    static_cast<int32_t>(rng.Index(25));
      example.features.Add(own, 0.5 + rng.UniformDouble());
    }
    for (int j = 0; j < 8; ++j) {
      example.features.Add(static_cast<int32_t>(rng.Index(kFeatures)),
                           rng.UniformDouble());
    }
    example.features.Finalize();
    if (rng.Bernoulli(0.1)) {
      example.label = static_cast<int32_t>(rng.Index(kClasses));
    }
    examples.push_back(std::move(example));
  }
  return examples;
}

// FNV-1a over the IEEE-754 bit patterns of every weight, then of the final
// objective: any change in one bit of the fitted model changes the digest.
uint64_t ModelDigest(const std::vector<double>& weights,
                     double final_objective) {
  std::string bytes(weights.size() * sizeof(double) + sizeof(double), '\0');
  std::memcpy(bytes.data(), weights.data(), weights.size() * sizeof(double));
  std::memcpy(bytes.data() + weights.size() * sizeof(double),
              &final_objective, sizeof(double));
  return Fnv1a64(bytes);
}

// Pins the trained model bit for bit. The expected digest was recorded
// before the objective moved to a feature-major layout and L-BFGS to a
// ring-buffer history; both rewrites must leave every addition in its
// original order, so the digest must never change under a refactor. It
// does depend on the platform's libm (std::exp / std::log) and on strict
// IEEE double arithmetic (no -ffast-math, no FMA contraction).
TEST(LogisticRegressionTest, TrainedModelIsBitIdentical) {
  std::vector<LabeledExample> examples = PinnedProblem();
  LogisticRegression model;
  Result<LbfgsResult> fit = model.Train(examples, 200, 8);
  ASSERT_TRUE(fit.ok());
  const uint64_t digest = ModelDigest(model.weights(), fit->final_objective);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  EXPECT_EQ(std::string(hex), "d7bbfc875e886a19")
      << "iterations=" << fit->iterations
      << " final_objective=" << fit->final_objective;
}

}  // namespace
}  // namespace ceres
