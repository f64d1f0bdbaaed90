#ifndef CAMAL_NN_TENSOR_H_
#define CAMAL_NN_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace camal::nn {

/// Allocator for kernel-facing float buffers: 64-byte aligned (full
/// cache-line / zmm-register alignment for the GEMM kernels) and with a
/// no-op default-construct, so resize() on a fresh vector leaves memory
/// uninitialized. Value-construction with arguments (copies, fills)
/// behaves like std::allocator.
template <typename T>
struct AlignedBufferAllocator {
  using value_type = T;
  using is_always_equal = std::true_type;

  AlignedBufferAllocator() = default;
  template <typename U>
  AlignedBufferAllocator(const AlignedBufferAllocator<U>&) {}  // NOLINT

  template <typename U>
  struct rebind {
    using other = AlignedBufferAllocator<U>;
  };

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t{64});
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) > 0) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
  friend bool operator==(const AlignedBufferAllocator&,
                         const AlignedBufferAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedBufferAllocator&,
                         const AlignedBufferAllocator&) {
    return false;
  }
};

/// Aligned, lazily-initialized float buffer — scratch space for kernels.
using AlignedBuffer = std::vector<float, AlignedBufferAllocator<float>>;

/// Dense row-major float32 tensor.
///
/// This is the numeric workhorse of the from-scratch deep-learning substrate:
/// all layer activations, parameters, and gradients are Tensors. Layout
/// conventions across the library:
///   - batched sequences: (N, C, L)  [batch, channels, length]
///   - flat features:     (N, F)
///   - conv weights:      (C_out, C_in, K)
/// Copying a Tensor deep-copies its storage (value semantics).
class Tensor {
 public:
  /// Empty tensor (numel() == 0, ndim() == 0).
  Tensor() = default;

  /// Allocates a zero-initialized tensor with the given shape.
  explicit Tensor(std::vector<int64_t> shape);

  /// Zero-filled tensor of the given shape.
  static Tensor Zeros(std::vector<int64_t> shape);

  /// Allocates WITHOUT zero-filling. Only for outputs a kernel fully
  /// overwrites before anything reads them (GEMM epilogues, fused
  /// normalization passes): skipping the constructor's memset is a real
  /// win on batch-sized activations.
  static Tensor Uninitialized(std::vector<int64_t> shape);

  /// Constant-filled tensor of the given shape.
  static Tensor Full(std::vector<int64_t> shape, float value);

  /// Builds a 1-D tensor from values.
  static Tensor FromVector(const std::vector<float>& values);

  /// Number of elements.
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }

  /// Shape vector.
  const std::vector<int64_t>& shape() const { return shape_; }

  /// Number of dimensions.
  int ndim() const { return static_cast<int>(shape_.size()); }

  /// Size along dimension \p i (0-based; must be < ndim()).
  int64_t dim(int i) const {
    CAMAL_CHECK_GE(i, 0);
    CAMAL_CHECK_LT(i, ndim());
    return shape_[i];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Flat element access.
  float& at(int64_t i) { return data_[i]; }
  float at(int64_t i) const { return data_[i]; }

  /// 2-D access for (rows, cols) tensors.
  float& at2(int64_t r, int64_t c) { return data_[r * shape_[1] + c]; }
  float at2(int64_t r, int64_t c) const { return data_[r * shape_[1] + c]; }

  /// 3-D access for (N, C, L) tensors.
  float& at3(int64_t n, int64_t c, int64_t l) {
    return data_[(n * shape_[1] + c) * shape_[2] + l];
  }
  float at3(int64_t n, int64_t c, int64_t l) const {
    return data_[(n * shape_[1] + c) * shape_[2] + l];
  }

  /// Returns a copy with a new shape; numel must match.
  Tensor Reshape(std::vector<int64_t> new_shape) const;

  /// Gives this tensor \p shape in place, for an output a kernel fully
  /// overwrites: element values are unspecified afterwards. The storage
  /// stays while the new size needs at least a quarter of its capacity,
  /// so a reused output allocates nothing for an equal or somewhat
  /// smaller batch; a much smaller one gives the buffer back.
  void Resize(std::vector<int64_t> shape);

  /// Sets every element to \p value.
  void Fill(float value);

  /// Sets every element to zero.
  void Zero() { Fill(0.0f); }

  /// True when shapes are identical (same rank and extents).
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// "(2, 64, 510)" — for error messages and tests.
  std::string ShapeString() const;

  /// this += other (shapes must match).
  void AddInPlace(const Tensor& other);

  /// this *= s.
  void ScaleInPlace(float s);

  /// Sum of all elements.
  double Sum() const;

  /// Maximum element; tensor must be non-empty.
  float Max() const;

  /// Mean of all elements; tensor must be non-empty.
  double Mean() const;

 private:
  struct UninitTag {};
  Tensor(std::vector<int64_t> shape, UninitTag);

  std::vector<int64_t> shape_;
  AlignedBuffer data_;
};

/// Elementwise a + b (shapes must match).
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise a - b (shapes must match).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise a * b (Hadamard; shapes must match).
Tensor Mul(const Tensor& a, const Tensor& b);

/// a * s.
Tensor Scale(const Tensor& a, float s);

/// Matrix product of (M, K) x (K, N) -> (M, N). Uses the register-blocked
/// (and, when the CPU supports it, AVX2+FMA) kernel from nn/gemm.h.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Matrix product a x b^T of (M, K) x (N, K) -> (M, N).
Tensor MatMulTransposeB(const Tensor& a, const Tensor& b);

/// Matrix product a^T x b of (K, M) x (K, N) -> (M, N).
Tensor MatMulTransposeA(const Tensor& a, const Tensor& b);

/// Concatenates (N, C_i, L) tensors along the channel axis.
Tensor ConcatChannels(const std::vector<Tensor>& parts);

/// Splits an (N, C, L) tensor into chunks of the given channel counts
/// (inverse of ConcatChannels; used to route gradients back to branches).
std::vector<Tensor> SplitChannels(const Tensor& x,
                                  const std::vector<int64_t>& channel_counts);

}  // namespace camal::nn

#endif  // CAMAL_NN_TENSOR_H_
