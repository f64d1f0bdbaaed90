#ifndef CAMAL_NN_POOLING_H_
#define CAMAL_NN_POOLING_H_

#include <vector>

#include "nn/module.h"

namespace camal::nn {

/// Max pooling over (N, C, L) with the given kernel and stride.
/// Output length is floor((L + 2*padding - kernel) / stride) + 1; padded
/// positions act as -infinity (they are never selected). padding must be
/// smaller than kernel so every window sees at least one real value.
class MaxPool1d : public Module {
 public:
  MaxPool1d(int64_t kernel, int64_t stride, int64_t padding = 0);

  Tensor Forward(const Tensor& x) override;
  Tensor Backward(const Tensor& grad_output) override;

  /// Forward without recording the per-output argmax Backward needs.
  Tensor ForwardInference(const Tensor& x) override;

  int64_t OutputLength(int64_t input_length) const;

  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }
  int64_t padding() const { return padding_; }

 private:
  int64_t kernel_;
  int64_t stride_;
  int64_t padding_;
  std::vector<int64_t> input_shape_;
  std::vector<int64_t> argmax_;  // flat index into input per output element
};

/// Average pooling over (N, C, L) with the given kernel and stride.
class AvgPool1d : public Module {
 public:
  AvgPool1d(int64_t kernel, int64_t stride);

  Tensor Forward(const Tensor& x) override;
  Tensor Backward(const Tensor& grad_output) override;

  /// Forward without caching the input shape for Backward.
  Tensor ForwardInference(const Tensor& x) override;

  int64_t OutputLength(int64_t input_length) const;

  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }

 private:
  int64_t kernel_;
  int64_t stride_;
  std::vector<int64_t> input_shape_;
};

/// Global average pooling's kernel: y[r] is the mean of row r of \p x,
/// \p rows rows of \p length floats each (an (N, C, L) tensor is N * C
/// rows). Each row is summed left to right from zero, so a row's value
/// does not depend on which rows share the call.
void GlobalAvgPoolRows(const float* x, int64_t rows, int64_t length, float* y);

/// Global average pooling (N, C, L) -> (N, C); the layer between the last
/// conv block and the linear head that makes CAM extraction possible
/// (Definition II.1 in the paper).
class GlobalAvgPool1d : public Module {
 public:
  GlobalAvgPool1d() = default;

  Tensor Forward(const Tensor& x) override;
  Tensor Backward(const Tensor& grad_output) override;

  /// Forward without caching the input shape for Backward.
  Tensor ForwardInference(const Tensor& x) override;

 private:
  std::vector<int64_t> input_shape_;
};

}  // namespace camal::nn

#endif  // CAMAL_NN_POOLING_H_
