// Parameterized property sweep for the multinomial logistic regression:
// across class counts and regularization strengths, training on separable
// data must reach high accuracy and always emit valid probability
// distributions; stronger regularization never yields larger weights.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "ml/logistic_regression.h"
#include "util/random.h"

namespace ceres {
namespace {

// gtest prints a parameter without a printer as its raw bytes, and those
// bytes end up in the discovered test names; `num_classes` is 64-bit so the
// struct has no padding and the names do not pick up uninitialized memory.
struct SweepCase {
  int64_t num_classes;
  double l2_c;
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "K%lld_C%g",
                static_cast<long long>(info.param.num_classes),
                info.param.l2_c);
  std::string name;
  for (const char* p = buffer; *p != '\0'; ++p) {
    name.push_back(*p == '.' ? 'p' : *p);
  }
  return name;
}

class LogRegSweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  // Each class fires its own indicator feature plus shared noise features.
  std::vector<LabeledExample> MakeData(int32_t num_classes, int per_class,
                                       Rng* rng) {
    std::vector<LabeledExample> examples;
    for (int32_t cls = 0; cls < num_classes; ++cls) {
      for (int i = 0; i < per_class; ++i) {
        LabeledExample example;
        example.features.Add(cls, 1.0);
        example.features.Add(num_classes, rng->UniformDouble());
        example.features.Add(num_classes + 1, rng->UniformDouble());
        example.features.Finalize();
        example.label = cls;
        examples.push_back(std::move(example));
      }
    }
    return examples;
  }
};

TEST_P(LogRegSweepTest, SeparableDataLearnedAccurately) {
  const SweepCase param = GetParam();
  const int32_t num_classes = static_cast<int32_t>(param.num_classes);
  Rng rng(42);
  std::vector<LabeledExample> examples =
      MakeData(num_classes, 25, &rng);
  LogisticRegression model;
  LogRegConfig config;
  config.l2_c = param.l2_c;
  ASSERT_TRUE(
      model.Train(examples, num_classes + 2, num_classes, config)
          .ok());
  int correct = 0;
  for (const LabeledExample& example : examples) {
    if (model.Predict(example.features).first == example.label) ++correct;
  }
  EXPECT_GE(static_cast<double>(correct) / examples.size(), 0.95);
}

TEST_P(LogRegSweepTest, ProbabilitiesAlwaysValid) {
  const SweepCase param = GetParam();
  const int32_t num_classes = static_cast<int32_t>(param.num_classes);
  Rng rng(7);
  std::vector<LabeledExample> examples =
      MakeData(num_classes, 10, &rng);
  LogisticRegression model;
  LogRegConfig config;
  config.l2_c = param.l2_c;
  ASSERT_TRUE(
      model.Train(examples, num_classes + 2, num_classes, config)
          .ok());
  for (int trial = 0; trial < 50; ++trial) {
    SparseVector v;
    int entries = static_cast<int>(rng.Uniform(0, 4));
    for (int e = 0; e < entries; ++e) {
      v.Add(static_cast<int32_t>(rng.Index(
                static_cast<size_t>(num_classes + 2))),
            rng.Gaussian(0, 3));
    }
    v.Finalize();
    std::vector<double> probs = model.PredictProbabilities(v);
    ASSERT_EQ(probs.size(), static_cast<size_t>(num_classes));
    double sum = 0;
    for (double p : probs) {
      EXPECT_TRUE(std::isfinite(p));
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LogRegSweepTest,
    ::testing::Values(SweepCase{2, 1.0}, SweepCase{2, 100.0},
                      SweepCase{4, 0.1}, SweepCase{4, 1.0},
                      SweepCase{8, 1.0}, SweepCase{8, 10.0},
                      SweepCase{16, 1.0}),
    CaseName);

TEST(LogRegRegularizationPathTest, WeightNormDecreasesWithPenalty) {
  Rng rng(9);
  std::vector<LabeledExample> examples;
  for (int i = 0; i < 40; ++i) {
    LabeledExample example;
    example.features.Add(i % 2, 1.0);
    example.features.Finalize();
    example.label = i % 2;
    examples.push_back(std::move(example));
  }
  double previous_norm = -1;
  for (double c : {0.01, 0.1, 1.0, 10.0, 100.0}) {
    LogisticRegression model;
    LogRegConfig config;
    config.l2_c = c;
    ASSERT_TRUE(model.Train(examples, 2, 2, config).ok());
    double norm = 0;
    for (int32_t cls = 0; cls < 2; ++cls) {
      for (int32_t f = 0; f < 2; ++f) {
        norm += model.WeightAt(cls, f) * model.WeightAt(cls, f);
      }
    }
    EXPECT_GT(norm, previous_norm);  // Weaker penalty, larger weights.
    previous_norm = norm;
  }
  (void)rng;
}

}  // namespace
}  // namespace ceres
