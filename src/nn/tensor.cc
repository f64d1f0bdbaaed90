#include "nn/tensor.h"

#include <algorithm>
#include <numeric>

#include "nn/gemm.h"

namespace camal::nn {
namespace {

int64_t ShapeNumel(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    CAMAL_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<int64_t> shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<size_t>(ShapeNumel(shape_)), 0.0f);
}

Tensor::Tensor(std::vector<int64_t> shape, UninitTag)
    : shape_(std::move(shape)) {
  data_.resize(static_cast<size_t>(ShapeNumel(shape_)));
}

Tensor Tensor::Zeros(std::vector<int64_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::Uninitialized(std::vector<int64_t> shape) {
  return Tensor(std::move(shape), UninitTag{});
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(const std::vector<float>& values) {
  Tensor t({static_cast<int64_t>(values.size())});
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

Tensor Tensor::Reshape(std::vector<int64_t> new_shape) const {
  CAMAL_CHECK_EQ(ShapeNumel(new_shape), numel());
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

void Tensor::Resize(std::vector<int64_t> shape) {
  const size_t n = static_cast<size_t>(ShapeNumel(shape));
  if (n * 4 < data_.capacity()) data_ = AlignedBuffer();
  data_.clear();  // nothing to keep, so growing copies nothing
  data_.resize(n);
  shape_ = std::move(shape);
}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

std::string Tensor::ShapeString() const {
  std::string out = "(";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(shape_[i]);
  }
  return out + ")";
}

void Tensor::AddInPlace(const Tensor& other) {
  CAMAL_CHECK_MSG(SameShape(other), "AddInPlace shape mismatch");
  const float* src = other.data();
  for (int64_t i = 0; i < numel(); ++i) data_[i] += src[i];
}

void Tensor::ScaleInPlace(float s) {
  for (float& v : data_) v *= s;
}

double Tensor::Sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

float Tensor::Max() const {
  CAMAL_CHECK_GT(numel(), 0);
  return *std::max_element(data_.begin(), data_.end());
}

double Tensor::Mean() const {
  CAMAL_CHECK_GT(numel(), 0);
  return Sum() / static_cast<double>(numel());
}

Tensor Add(const Tensor& a, const Tensor& b) {
  CAMAL_CHECK_MSG(a.SameShape(b), "Add shape mismatch");
  Tensor out = a;
  out.AddInPlace(b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CAMAL_CHECK_MSG(a.SameShape(b), "Sub shape mismatch");
  Tensor out = a;
  float* d = out.data();
  const float* s = b.data();
  for (int64_t i = 0; i < out.numel(); ++i) d[i] -= s[i];
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CAMAL_CHECK_MSG(a.SameShape(b), "Mul shape mismatch");
  Tensor out = a;
  float* d = out.data();
  const float* s = b.data();
  for (int64_t i = 0; i < out.numel(); ++i) d[i] *= s[i];
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out = a;
  out.ScaleInPlace(s);
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CAMAL_CHECK_EQ(a.ndim(), 2);
  CAMAL_CHECK_EQ(b.ndim(), 2);
  CAMAL_CHECK_EQ(a.dim(1), b.dim(0));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out = Tensor::Uninitialized({m, n});
  GemmEpilogue(a.data(), b.data(), out.data(), m, k, n,
               /*row_scale=*/nullptr, /*row_shift=*/nullptr, /*relu=*/false);
  return out;
}

Tensor MatMulTransposeB(const Tensor& a, const Tensor& b) {
  CAMAL_CHECK_EQ(a.ndim(), 2);
  CAMAL_CHECK_EQ(b.ndim(), 2);
  CAMAL_CHECK_EQ(a.dim(1), b.dim(1));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor out = Tensor::Uninitialized({m, n});
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b.data() + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      out.at2(i, j) = acc;
    }
  }
  return out;
}

Tensor MatMulTransposeA(const Tensor& a, const Tensor& b) {
  CAMAL_CHECK_EQ(a.ndim(), 2);
  CAMAL_CHECK_EQ(b.ndim(), 2);
  CAMAL_CHECK_EQ(a.dim(0), b.dim(0));
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  for (int64_t p = 0; p < k; ++p) {
    const float* arow = a.data() + p * m;
    const float* brow = b.data() + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* orow = out.data() + i * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Tensor ConcatChannels(const std::vector<Tensor>& parts) {
  CAMAL_CHECK(!parts.empty());
  const int64_t n = parts[0].dim(0), l = parts[0].dim(2);
  int64_t total_c = 0;
  for (const auto& p : parts) {
    CAMAL_CHECK_EQ(p.ndim(), 3);
    CAMAL_CHECK_EQ(p.dim(0), n);
    CAMAL_CHECK_EQ(p.dim(2), l);
    total_c += p.dim(1);
  }
  Tensor out({n, total_c, l});
  for (int64_t ni = 0; ni < n; ++ni) {
    int64_t c_off = 0;
    for (const auto& p : parts) {
      const int64_t c = p.dim(1);
      for (int64_t ci = 0; ci < c; ++ci) {
        const float* src = p.data() + (ni * c + ci) * l;
        float* dst = out.data() + (ni * total_c + c_off + ci) * l;
        std::copy(src, src + l, dst);
      }
      c_off += c;
    }
  }
  return out;
}

std::vector<Tensor> SplitChannels(const Tensor& x,
                                  const std::vector<int64_t>& channel_counts) {
  CAMAL_CHECK_EQ(x.ndim(), 3);
  int64_t total_c = 0;
  for (int64_t c : channel_counts) total_c += c;
  CAMAL_CHECK_EQ(total_c, x.dim(1));
  const int64_t n = x.dim(0), l = x.dim(2);
  std::vector<Tensor> parts;
  parts.reserve(channel_counts.size());
  int64_t c_off = 0;
  for (int64_t c : channel_counts) {
    Tensor part({n, c, l});
    for (int64_t ni = 0; ni < n; ++ni) {
      for (int64_t ci = 0; ci < c; ++ci) {
        const float* src = x.data() + (ni * total_c + c_off + ci) * l;
        float* dst = part.data() + (ni * c + ci) * l;
        std::copy(src, src + l, dst);
      }
    }
    c_off += c;
    parts.push_back(std::move(part));
  }
  return parts;
}

}  // namespace camal::nn
