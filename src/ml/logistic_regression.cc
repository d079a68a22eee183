#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/logging.h"
#include "util/string_util.h"

namespace ceres {

namespace {

// Computes the softmax of logits[0..n) in place, numerically stabilized.
void SoftmaxInPlace(double* logits, size_t n) {
  double max_logit = *std::max_element(logits, logits + n);
  double sum = 0;
  for (size_t k = 0; k < n; ++k) {
    logits[k] = std::exp(logits[k] - max_logit);
    sum += logits[k];
  }
  for (size_t k = 0; k < n; ++k) logits[k] /= sum;
}

}  // namespace

LogRegObjective::LogRegObjective(const std::vector<LabeledExample>& examples,
                                 int32_t num_features, int32_t num_classes,
                                 const LogRegConfig& config)
    : examples_(&examples),
      num_features_(num_features),
      num_classes_(num_classes),
      lambda_(1.0 / std::max(config.l2_c, 1e-12)),
      regularize_bias_(config.regularize_bias),
      logits_(static_cast<size_t>(num_classes)),
      wt_(static_cast<size_t>(num_features) * num_classes),
      bias_(static_cast<size_t>(num_classes)),
      gt_(wt_.size()),
      gbias_(bias_.size()) {}

double LogRegObjective::operator()(const std::vector<double>& w,
                                   std::vector<double>* grad) {
  const size_t num_classes = static_cast<size_t>(num_classes_);
  const size_t num_features = static_cast<size_t>(num_features_);
  const size_t stride = num_features + 1;  // +1 intercept.
  for (size_t k = 0; k < num_classes; ++k) {
    const double* wk = w.data() + k * stride;
    for (size_t f = 0; f < num_features; ++f) {
      wt_[f * num_classes + k] = wk[f];
    }
    bias_[k] = wk[num_features];
  }
  std::fill(gt_.begin(), gt_.end(), 0.0);
  std::fill(gbias_.begin(), gbias_.end(), 0.0);

  double loss = 0;
  double* logits = logits_.data();
  for (const LabeledExample& example : *examples_) {
    const auto& entries = example.features.entries();
    std::fill(logits, logits + num_classes, 0.0);
    for (const auto& [index, value] : entries) {
      if (index >= num_features_) continue;
      const double* row = wt_.data() + static_cast<size_t>(index) * num_classes;
      for (size_t k = 0; k < num_classes; ++k) logits[k] += row[k] * value;
    }
    for (size_t k = 0; k < num_classes; ++k) logits[k] += bias_[k];
    SoftmaxInPlace(logits, num_classes);
    const size_t label = static_cast<size_t>(example.label);
    const double p_true = std::max(logits[label], 1e-300);
    loss -= example.weight * std::log(p_true);
    // logits becomes the per-class error (p_k - [k == label]) * weight.
    for (size_t k = 0; k < num_classes; ++k) {
      logits[k] = (logits[k] - (k == label ? 1.0 : 0.0)) * example.weight;
    }
    for (const auto& [index, value] : entries) {
      if (index >= num_features_) continue;
      double* row = gt_.data() + static_cast<size_t>(index) * num_classes;
      for (size_t k = 0; k < num_classes; ++k) row[k] += logits[k] * value;
    }
    for (size_t k = 0; k < num_classes; ++k) gbias_[k] += logits[k];
  }

  for (size_t k = 0; k < num_classes; ++k) {
    double* gk = grad->data() + k * stride;
    for (size_t f = 0; f < num_features; ++f) {
      gk[f] = gt_[f * num_classes + k];
    }
    gk[num_features] = gbias_[k];
  }
  // L2 penalty: lambda/2 * ||W||^2 over weights (and optionally biases).
  const size_t limit = regularize_bias_ ? stride : num_features;
  for (size_t k = 0; k < num_classes; ++k) {
    const double* wk = w.data() + k * stride;
    double* gk = grad->data() + k * stride;
    for (size_t f = 0; f < limit; ++f) {
      loss += 0.5 * lambda_ * wk[f] * wk[f];
      gk[f] += lambda_ * wk[f];
    }
  }
  return loss;
}

Result<LbfgsResult> LogisticRegression::Train(
    const std::vector<LabeledExample>& examples, int32_t num_features,
    int32_t num_classes, const LogRegConfig& config,
    const Deadline& deadline) {
  if (examples.empty()) {
    return Status::InvalidArgument("no training examples");
  }
  if (num_classes < 2) {
    return Status::InvalidArgument(
        StrCat("need at least 2 classes, got ", num_classes));
  }
  for (const LabeledExample& example : examples) {
    if (example.label < 0 || example.label >= num_classes) {
      return Status::InvalidArgument(
          StrCat("label out of range: ", example.label));
    }
    if (!example.features.finalized()) {
      return Status::InvalidArgument("example features not finalized");
    }
  }

  num_features_ = num_features;
  num_classes_ = num_classes;
  LogRegObjective objective(examples, num_features, num_classes, config);
  std::vector<double> params(objective.dim(), 0.0);
  LbfgsResult solver_result =
      MinimizeLbfgs(std::ref(objective), &params, config.solver, deadline);
  if (solver_result.deadline_expired) {
    Status stopped = deadline.Check(
        StrCat("L-BFGS iteration ", solver_result.iterations + 1));
    if (!stopped.ok()) return stopped;
  }
  weights_ = std::move(params);
  trained_ = true;
  return solver_result;
}

std::vector<double> LogisticRegression::PredictProbabilities(
    const SparseVector& features) const {
  CERES_CHECK(trained_);
  const int32_t stride = num_features_ + 1;
  std::vector<double> logits(static_cast<size_t>(num_classes_));
  for (int32_t k = 0; k < num_classes_; ++k) {
    const double* wk = weights_.data() + static_cast<size_t>(k) * stride;
    logits[static_cast<size_t>(k)] =
        features.Dot(wk, num_features_) + wk[num_features_];
  }
  SoftmaxInPlace(logits.data(), logits.size());
  return logits;
}

std::pair<int32_t, double> LogisticRegression::Predict(
    const SparseVector& features) const {
  std::vector<double> probs = PredictProbabilities(features);
  auto it = std::max_element(probs.begin(), probs.end());
  return {static_cast<int32_t>(it - probs.begin()), *it};
}

double LogisticRegression::WeightAt(int32_t cls, int32_t feature) const {
  CERES_CHECK(trained_);
  CERES_CHECK(cls >= 0 && cls < num_classes_);
  CERES_CHECK(feature >= 0 && feature < num_features_);
  return weights_[static_cast<size_t>(cls) * (num_features_ + 1) + feature];
}

Result<LogisticRegression> LogisticRegression::FromWeights(
    int32_t num_features, int32_t num_classes, std::vector<double> weights) {
  if (num_features < 0 || num_classes < 2) {
    return Status::InvalidArgument("bad model dimensions");
  }
  const size_t expected = static_cast<size_t>(num_classes) *
                          (static_cast<size_t>(num_features) + 1);
  if (weights.size() != expected) {
    return Status::InvalidArgument(
        StrCat("weight vector has ", weights.size(), " values; expected ",
               expected));
  }
  LogisticRegression model;
  model.num_features_ = num_features;
  model.num_classes_ = num_classes;
  model.weights_ = std::move(weights);
  model.trained_ = true;
  return model;
}

double LogisticRegression::BiasAt(int32_t cls) const {
  CERES_CHECK(trained_);
  CERES_CHECK(cls >= 0 && cls < num_classes_);
  return weights_[static_cast<size_t>(cls) * (num_features_ + 1) +
                  num_features_];
}

}  // namespace ceres
