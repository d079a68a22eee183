#ifndef CERES_ML_LOGISTIC_REGRESSION_H_
#define CERES_ML_LOGISTIC_REGRESSION_H_

#include <cstdint>
#include <vector>

#include "ml/lbfgs.h"
#include "ml/sparse_vector.h"
#include "util/deadline.h"
#include "util/status.h"

namespace ceres {

/// Configuration of the multinomial logistic-regression node classifier
/// (§4.2). Defaults match the paper's scikit-learn setup: LBFGS solver, L2
/// regularization with C = 1.
struct LogRegConfig {
  /// Inverse regularization strength; the penalty is ||W||^2 / (2 C).
  double l2_c = 1.0;
  /// Whether the per-class intercepts beta_k0 are regularized (scikit-learn
  /// does not regularize intercepts; neither do we by default).
  bool regularize_bias = false;
  LbfgsConfig solver;
};

/// One labelled training example: a finalized sparse feature vector and a
/// class label in [0, num_classes).
struct LabeledExample {
  SparseVector features;
  int32_t label = 0;
  /// Importance weight (1 for normal examples).
  double weight = 1.0;
};

/// The training objective of LogisticRegression: the example-weighted
/// multinomial log-loss plus the L2 penalty ||W||^2 / (2 C), with its
/// gradient.
///
/// Parameters and gradient are class-major, in the layout of
/// LogisticRegression::weights(). Internally each evaluation transposes the
/// weights into feature-major scratch (wt[f * K + k]), so one pass over an
/// example's nonzeros yields all K logits and a second pass scatters all K
/// gradient entries; the gradient is transposed back at the end. Every logit
/// and gradient cell still receives its additions in the order of the
/// class-major formulation (per class: nonzeros in index order, then the
/// intercept; examples in order), so the values are bit-identical to it.
/// Feature indices >= num_features are ignored. The scratch is allocated
/// once, here; evaluations do not allocate.
class LogRegObjective {
 public:
  /// Borrows `examples`, which must outlive the objective.
  LogRegObjective(const std::vector<LabeledExample>& examples,
                  int32_t num_features, int32_t num_classes,
                  const LogRegConfig& config);

  /// Length of the parameter vector: num_classes * (num_features + 1).
  size_t dim() const {
    return static_cast<size_t>(num_classes_) * (num_features_ + 1);
  }

  /// Returns the objective at `w` and writes its gradient into *grad; both
  /// vectors have length dim().
  double operator()(const std::vector<double>& w, std::vector<double>* grad);

 private:
  const std::vector<LabeledExample>* examples_;
  int32_t num_features_;
  int32_t num_classes_;
  double lambda_;
  bool regularize_bias_;
  std::vector<double> logits_;  // [K]; reused for the per-class errors.
  std::vector<double> wt_;      // [F * K] feature-major weights.
  std::vector<double> bias_;    // [K]
  std::vector<double> gt_;      // [F * K] feature-major gradient.
  std::vector<double> gbias_;   // [K]
};

/// Multinomial (softmax) logistic regression trained with L-BFGS.
///
/// Pr(Y = k | x) = exp(b_k + w_k . x) / sum_i exp(b_i + w_i . x),
/// which is the paper's Section 4.2 model in the symmetric softmax
/// parameterization. Classes are dense ints; the caller maps predicates /
/// NAME / OTHER onto them.
class LogisticRegression {
 public:
  LogisticRegression() = default;

  /// Fits the model on `examples`. num_features bounds the feature indices,
  /// num_classes the labels. Returns solver statistics, an error for
  /// malformed inputs (no examples, label out of range), or kDeadlineExceeded
  /// / kCancelled when `deadline` stops the solver (checked once per L-BFGS
  /// iteration; the model then stays untrained).
  Result<LbfgsResult> Train(const std::vector<LabeledExample>& examples,
                            int32_t num_features, int32_t num_classes,
                            const LogRegConfig& config = {},
                            const Deadline& deadline = Deadline());

  /// Class probabilities for one example; requires a trained model.
  std::vector<double> PredictProbabilities(const SparseVector& features) const;

  /// Argmax class with its probability.
  std::pair<int32_t, double> Predict(const SparseVector& features) const;

  bool trained() const { return trained_; }
  int32_t num_classes() const { return num_classes_; }
  int32_t num_features() const { return num_features_; }

  /// Weight of feature `feature` for class `cls` (for introspection tests).
  double WeightAt(int32_t cls, int32_t feature) const;
  double BiasAt(int32_t cls) const;

  /// Raw parameter vector, class-major with stride num_features() + 1 and
  /// the intercept stored last in each class block. For persistence.
  const std::vector<double>& weights() const { return weights_; }

  /// Reconstructs a trained model from stored parameters (same layout as
  /// weights()). Fails on a size mismatch.
  static Result<LogisticRegression> FromWeights(int32_t num_features,
                                                int32_t num_classes,
                                                std::vector<double> weights);

 private:
  int32_t num_features_ = 0;
  int32_t num_classes_ = 0;
  /// Layout: class-major; weights_[k * (num_features_ + 1) + f], with the
  /// intercept stored at f == num_features_.
  std::vector<double> weights_;
  bool trained_ = false;
};

}  // namespace ceres

#endif  // CERES_ML_LOGISTIC_REGRESSION_H_
