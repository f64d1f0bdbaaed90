#ifndef CAMAL_NN_LINEAR_H_
#define CAMAL_NN_LINEAR_H_

#include "common/rng.h"
#include "nn/module.h"

namespace camal::nn {

/// Fully connected layer over (N, F_in) -> (N, F_out): y = x W^T + b.
///
/// Weight shape is (F_out, F_in) so CAM extraction can read per-class filter
/// weights directly as rows (Definition II.1 in the paper).
class Linear : public Module {
 public:
  /// Creates the layer; weights are Kaiming-uniform initialized from \p rng.
  Linear(int64_t in_features, int64_t out_features, bool bias, Rng* rng);

  Tensor Forward(const Tensor& x) override;
  Tensor Backward(const Tensor& grad_output) override;

  /// Forward without caching the input for Backward.
  Tensor ForwardInference(const Tensor& x) override;

  /// The inference kernel: the \p n rows of \p x (n, F_in) into the \p n
  /// rows of \p y (n, F_out). Each row's value depends on that row only.
  void ForwardInferenceInto(const float* x, int64_t n, float* y) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  Parameter& weight() { return weight_; }
  Parameter& bias_param() { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  bool has_bias_;
  Parameter weight_;  // (F_out, F_in)
  Parameter bias_;    // (F_out)
  Tensor input_;
};

}  // namespace camal::nn

#endif  // CAMAL_NN_LINEAR_H_
