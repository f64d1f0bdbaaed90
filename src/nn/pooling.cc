#include "nn/pooling.h"

namespace camal::nn {
namespace {

// One row of max pooling; records per-output argmax when am is non-null
// (the training path needs it for Backward, inference skips it).
void MaxPoolRow(const float* row, float* out, int64_t* am, int64_t l,
                int64_t lo, int64_t kernel, int64_t stride, int64_t padding) {
  for (int64_t t = 0; t < lo; ++t) {
    const int64_t start = t * stride - padding;
    const int64_t k0 = start < 0 ? -start : 0;
    int64_t best_i = start + k0;
    float best = row[best_i];
    for (int64_t k = k0 + 1; k < kernel && start + k < l; ++k) {
      if (row[start + k] > best) {
        best = row[start + k];
        best_i = start + k;
      }
    }
    out[t] = best;
    if (am != nullptr) am[t] = best_i;
  }
}

// One row of average pooling (no padding; window `kernel`, step `stride`).
void AvgPoolRow(const float* row, float* out, int64_t lo, int64_t kernel,
                int64_t stride, float inv_k) {
  for (int64_t t = 0; t < lo; ++t) {
    float acc = 0.0f;
    const int64_t start = t * stride;
    for (int64_t k = 0; k < kernel; ++k) acc += row[start + k];
    out[t] = acc * inv_k;
  }
}

}  // namespace

MaxPool1d::MaxPool1d(int64_t kernel, int64_t stride, int64_t padding)
    : kernel_(kernel), stride_(stride), padding_(padding) {
  CAMAL_CHECK_GT(kernel, 0);
  CAMAL_CHECK_GT(stride, 0);
  CAMAL_CHECK_GE(padding, 0);
  CAMAL_CHECK_LT(padding, kernel);
}

int64_t MaxPool1d::OutputLength(int64_t input_length) const {
  CAMAL_CHECK_GE(input_length + 2 * padding_, kernel_);
  return (input_length + 2 * padding_ - kernel_) / stride_ + 1;
}

Tensor MaxPool1d::Forward(const Tensor& x) {
  CAMAL_CHECK_EQ(x.ndim(), 3);
  input_shape_ = x.shape();
  const int64_t n = x.dim(0), c = x.dim(1), l = x.dim(2);
  const int64_t lo = OutputLength(l);
  Tensor y({n, c, lo});
  argmax_.assign(static_cast<size_t>(n * c * lo), 0);
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t ci = 0; ci < c; ++ci) {
      MaxPoolRow(x.data() + (ni * c + ci) * l,
                 y.data() + (ni * c + ci) * lo,
                 argmax_.data() + (ni * c + ci) * lo, l, lo, kernel_,
                 stride_, padding_);
    }
  }
  return y;
}

Tensor MaxPool1d::ForwardInference(const Tensor& x) {
  CAMAL_CHECK_EQ(x.ndim(), 3);
  const int64_t n = x.dim(0), c = x.dim(1), l = x.dim(2);
  const int64_t lo = OutputLength(l);
  Tensor y = Tensor::Uninitialized({n, c, lo});
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t ci = 0; ci < c; ++ci) {
      MaxPoolRow(x.data() + (ni * c + ci) * l,
                 y.data() + (ni * c + ci) * lo, nullptr, l, lo, kernel_,
                 stride_, padding_);
    }
  }
  return y;
}

Tensor MaxPool1d::Backward(const Tensor& grad_output) {
  const int64_t n = input_shape_[0], c = input_shape_[1], l = input_shape_[2];
  const int64_t lo = OutputLength(l);
  CAMAL_CHECK_EQ(grad_output.dim(2), lo);
  Tensor grad_input({n, c, l});
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float* go = grad_output.data() + (ni * c + ci) * lo;
      float* gi = grad_input.data() + (ni * c + ci) * l;
      const int64_t* am = argmax_.data() + (ni * c + ci) * lo;
      for (int64_t t = 0; t < lo; ++t) gi[am[t]] += go[t];
    }
  }
  return grad_input;
}

AvgPool1d::AvgPool1d(int64_t kernel, int64_t stride)
    : kernel_(kernel), stride_(stride) {
  CAMAL_CHECK_GT(kernel, 0);
  CAMAL_CHECK_GT(stride, 0);
}

int64_t AvgPool1d::OutputLength(int64_t input_length) const {
  CAMAL_CHECK_GE(input_length, kernel_);
  return (input_length - kernel_) / stride_ + 1;
}

Tensor AvgPool1d::Forward(const Tensor& x) {
  CAMAL_CHECK_EQ(x.ndim(), 3);
  input_shape_ = x.shape();
  const int64_t n = x.dim(0), c = x.dim(1), l = x.dim(2);
  const int64_t lo = OutputLength(l);
  Tensor y({n, c, lo});
  const float inv_k = 1.0f / static_cast<float>(kernel_);
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t ci = 0; ci < c; ++ci) {
      AvgPoolRow(x.data() + (ni * c + ci) * l,
                 y.data() + (ni * c + ci) * lo, lo, kernel_, stride_, inv_k);
    }
  }
  return y;
}

Tensor AvgPool1d::ForwardInference(const Tensor& x) {
  CAMAL_CHECK_EQ(x.ndim(), 3);
  const int64_t n = x.dim(0), c = x.dim(1), l = x.dim(2);
  const int64_t lo = OutputLength(l);
  Tensor y = Tensor::Uninitialized({n, c, lo});
  const float inv_k = 1.0f / static_cast<float>(kernel_);
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t ci = 0; ci < c; ++ci) {
      AvgPoolRow(x.data() + (ni * c + ci) * l,
                 y.data() + (ni * c + ci) * lo, lo, kernel_, stride_, inv_k);
    }
  }
  return y;
}

Tensor AvgPool1d::Backward(const Tensor& grad_output) {
  const int64_t n = input_shape_[0], c = input_shape_[1], l = input_shape_[2];
  const int64_t lo = OutputLength(l);
  CAMAL_CHECK_EQ(grad_output.dim(2), lo);
  Tensor grad_input({n, c, l});
  const float inv_k = 1.0f / static_cast<float>(kernel_);
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float* go = grad_output.data() + (ni * c + ci) * lo;
      float* gi = grad_input.data() + (ni * c + ci) * l;
      for (int64_t t = 0; t < lo; ++t) {
        const float g = go[t] * inv_k;
        const int64_t start = t * stride_;
        for (int64_t k = 0; k < kernel_; ++k) gi[start + k] += g;
      }
    }
  }
  return grad_input;
}

Tensor GlobalAvgPool1d::Forward(const Tensor& x) {
  input_shape_ = x.shape();
  return ForwardInference(x);
}

void GlobalAvgPoolRows(const float* x, int64_t rows, int64_t length, float* y) {
  const float inv_l = 1.0f / static_cast<float>(length);
  // Eight rows at a time: eight independent add chains instead of one
  // latency-bound chain. Each row is still summed left to right from
  // zero, so the bits equal a row-at-a-time loop's.
  int64_t r0 = 0;
  for (; r0 + 8 <= rows; r0 += 8) {
    const float* block = x + r0 * length;
    float acc[8] = {};
    for (int64_t t = 0; t < length; ++t) {
      for (int r = 0; r < 8; ++r) acc[r] += block[r * length + t];
    }
    for (int r = 0; r < 8; ++r) y[r0 + r] = acc[r] * inv_l;
  }
  for (; r0 < rows; ++r0) {
    const float* row = x + r0 * length;
    float acc = 0.0f;
    for (int64_t t = 0; t < length; ++t) acc += row[t];
    y[r0] = acc * inv_l;
  }
}

Tensor GlobalAvgPool1d::ForwardInference(const Tensor& x) {
  CAMAL_CHECK_EQ(x.ndim(), 3);
  Tensor y = Tensor::Uninitialized({x.dim(0), x.dim(1)});
  GlobalAvgPoolRows(x.data(), x.dim(0) * x.dim(1), x.dim(2), y.data());
  return y;
}

Tensor GlobalAvgPool1d::Backward(const Tensor& grad_output) {
  const int64_t n = input_shape_[0], c = input_shape_[1], l = input_shape_[2];
  CAMAL_CHECK_EQ(grad_output.ndim(), 2);
  CAMAL_CHECK_EQ(grad_output.dim(0), n);
  CAMAL_CHECK_EQ(grad_output.dim(1), c);
  Tensor grad_input({n, c, l});
  const float inv_l = 1.0f / static_cast<float>(l);
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float g = grad_output.at2(ni, ci) * inv_l;
      float* gi = grad_input.data() + (ni * c + ci) * l;
      for (int64_t t = 0; t < l; ++t) gi[t] = g;
    }
  }
  return grad_input;
}

}  // namespace camal::nn
