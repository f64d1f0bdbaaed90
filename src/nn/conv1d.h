#ifndef CAMAL_NN_CONV1D_H_
#define CAMAL_NN_CONV1D_H_

#include "common/rng.h"
#include "nn/gemm.h"
#include "nn/module.h"

namespace camal::nn {

/// Configuration for a Conv1d layer.
struct Conv1dOptions {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel_size = 1;
  int64_t stride = 1;
  /// Zero padding added on each side. Use SamePadding() for length-preserving
  /// convolutions (odd kernels, stride 1).
  int64_t padding = 0;
  int64_t dilation = 1;
  bool bias = true;

  /// Padding that preserves length at stride 1: dilation * (k - 1) / 2.
  int64_t SamePadding() const { return dilation * (kernel_size - 1) / 2; }
};

/// 1-D convolution over (N, C_in, L) -> (N, C_out, L_out).
///
/// Weight shape is (C_out, C_in, K); output length is
///   L_out = (L + 2*padding - dilation*(K-1) - 1) / stride + 1.
/// Forward and backward are multithreaded over (batch x output-channel).
class Conv1d : public Module {
 public:
  /// Creates the layer and initializes weights (Kaiming uniform) from \p rng.
  Conv1d(const Conv1dOptions& options, Rng* rng);

  Tensor Forward(const Tensor& x) override;
  Tensor Backward(const Tensor& grad_output) override;

  /// Implicit-im2col register-blocked GEMM (AVX-512/AVX2+FMA when the CPU
  /// has them) for EVERY geometry — strided and dilated convolutions walk
  /// the padded sample at stride/dilation offsets inside the tile loops,
  /// so no inference path ever materializes a column matrix. Parallelized
  /// over the batch with per-thread reusable padding scratch; skips the
  /// input caching Forward does for Backward. The batched serving path
  /// runs through this.
  Tensor ForwardInference(const Tensor& x) override;

  /// ForwardInference with a per-output-channel affine + optional ReLU +
  /// optional non-overlapping pool fused into the GEMM epilogue:
  ///   y[co] = pool(relu?(scale[co] * conv(x)[co] + shift[co])).
  /// scale/shift have out_channels entries or are null (identity scale,
  /// zero shift); the conv bias, when present, is folded into the shift
  /// either way. This is how eval-mode Conv -> BatchNorm -> ReLU
  /// [-> MaxPool/AvgPool(w, w)] blocks collapse into a single output pass
  /// (see Sequential::ForwardInference); with pool != kNone the pooled
  /// tensor is written directly and the full-size activation never
  /// materializes. Fused pooling matches a separate pool layer bitwise.
  Tensor ForwardInferenceFused(const Tensor& x, const float* channel_scale,
                               const float* channel_shift, bool fuse_relu,
                               ConvPool pool = ConvPool::kNone,
                               int64_t pool_size = 1);

  /// The unpooled fused forward into caller-owned storage, the step of a
  /// compiled inference plan (ResNetClassifier): \p x is (n, in_channels,
  /// length) and \p y (n, out_channels, OutputLength(length)). A
  /// \p residual laid out like y is added after the affine and clamped
  /// (ConvGemmParams::residual); fuse_relu must then be false. The layer
  /// must have no bias (a plan's BatchNorm shift replaces it).
  void ForwardInferenceInto(const float* x, int64_t n, int64_t length,
                            const float* channel_scale,
                            const float* channel_shift, bool fuse_relu,
                            const float* residual, float* y) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

  Parameter& weight() { return weight_; }
  Parameter& bias_param() { return bias_; }
  const Conv1dOptions& options() const { return options_; }

  /// Output length for an input of length \p input_length.
  int64_t OutputLength(int64_t input_length) const;

 private:
  /// Allocates the output of \p x under \p epilogue (ConvGemmParams'
  /// epilogue fields) and runs RunSamples into it.
  Tensor RunBatched(const Tensor& x, const ConvGemmParams& epilogue) const;

  /// The batched kernel behind every inference entry: the conv GEMM with
  /// \p epilogue over the n samples of x (n, in_channels, length) into y.
  void RunSamples(const float* x, int64_t n, int64_t length,
                  ConvGemmParams epilogue, float* y) const;

  Conv1dOptions options_;
  Parameter weight_;  // (C_out, C_in, K)
  Parameter bias_;    // (C_out) when options_.bias
  Tensor input_;      // cached for backward
};

}  // namespace camal::nn

#endif  // CAMAL_NN_CONV1D_H_
