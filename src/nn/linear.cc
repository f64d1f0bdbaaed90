#include "nn/linear.h"

#include "nn/init.h"

namespace camal::nn {

Linear::Linear(int64_t in_features, int64_t out_features, bool bias, Rng* rng)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias) {
  CAMAL_CHECK_GT(in_features, 0);
  CAMAL_CHECK_GT(out_features, 0);
  weight_.name = "linear.weight";
  weight_.value = Tensor({out_features_, in_features_});
  weight_.grad = Tensor(weight_.value.shape());
  KaimingUniform(&weight_.value, in_features_, rng);
  if (has_bias_) {
    bias_.name = "linear.bias";
    bias_.value = Tensor({out_features_});
    bias_.grad = Tensor({out_features_});
    KaimingUniform(&bias_.value, in_features_, rng);
  }
}

Tensor Linear::Forward(const Tensor& x) {
  input_ = x;
  return ForwardInference(x);
}

Tensor Linear::ForwardInference(const Tensor& x) {
  CAMAL_CHECK_EQ(x.ndim(), 2);
  CAMAL_CHECK_EQ(x.dim(1), in_features_);
  Tensor y = Tensor::Uninitialized({x.dim(0), out_features_});
  ForwardInferenceInto(x.data(), x.dim(0), y.data());
  return y;
}

void Linear::ForwardInferenceInto(const float* x, int64_t n, float* y) const {
  // y = x W^T + b, each output a dot product summed in input order.
  for (int64_t i = 0; i < n; ++i) {
    const float* row = x + i * in_features_;
    for (int64_t j = 0; j < out_features_; ++j) {
      const float* w = weight_.value.data() + j * in_features_;
      float acc = 0.0f;
      for (int64_t p = 0; p < in_features_; ++p) acc += row[p] * w[p];
      y[i * out_features_ + j] = has_bias_ ? acc + bias_.value.at(j) : acc;
    }
  }
}

Tensor Linear::Backward(const Tensor& grad_output) {
  CAMAL_CHECK_EQ(grad_output.ndim(), 2);
  CAMAL_CHECK_EQ(grad_output.dim(1), out_features_);
  // dW = g^T x, accumulated.
  Tensor dw = MatMulTransposeA(grad_output, input_);  // (F_out, F_in)
  weight_.grad.AddInPlace(dw);
  if (has_bias_) {
    const int64_t n = grad_output.dim(0);
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < out_features_; ++j) {
        bias_.grad.at(j) += grad_output.at2(i, j);
      }
    }
  }
  // dx = g W.
  return MatMul(grad_output, weight_.value);
}

void Linear::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  if (has_bias_) out->push_back(&bias_);
}

}  // namespace camal::nn
