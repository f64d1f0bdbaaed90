#ifndef CAMAL_NN_GEMM_H_
#define CAMAL_NN_GEMM_H_

#include <cstdint>

namespace camal::nn {

/// Single-precision GEMM with a fused epilogue, the compute kernel of the
/// batched inference runtime:
///
///   C[i][j] = epilogue(sum_p A[i][p] * B[p][j])
///   epilogue(v) = relu? max(0, row_scale[i] * v + row_shift[i])
///                      : row_scale[i] * v + row_shift[i]
///
/// All buffers are row-major: A (m, k), B (k, n), C (m, n). C is
/// overwritten. row_scale / row_shift may be null (identity scale, zero
/// shift) — a null pair with relu=false is a plain matrix product. The
/// epilogue is what lets Conv -> BatchNorm -> ReLU blocks collapse into
/// one pass over the output.
///
/// Dispatches at runtime to an AVX-512+FMA or AVX2+FMA kernel when the
/// host CPU supports it (compiled separately; see gemm_avx512.cc and
/// gemm_avx2.cc), otherwise to a portable register-blocked kernel.
void GemmEpilogue(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, const float* row_scale,
                  const float* row_shift, bool relu);

/// Non-overlapping pooling a conv GEMM can fuse into its output stage:
/// the pooled tensor is written directly and the full-size conv output
/// never materializes.
enum class ConvPool : int {
  kNone = 0,
  kMax = 1,  ///< MaxPool1d(w, w): max of each window of epilogue outputs.
  kAvg = 2,  ///< AvgPool1d(w, w): mean of each window of epilogue outputs.
};

/// Geometry and epilogue of one implicit-im2col convolution sample.
///
/// The weight matrix w is (cout, cin * kernel) row-major; xpad is one
/// sample (cin, lpad) with the zero padding already materialized by the
/// caller. Output column j reads input positions
///   j * stride + kk * dilation,   kk in [0, kernel)
/// which the lpad/stride/dilation geometry keeps in bounds, so every tile
/// load is unconditional. With pool != kNone the epilogue outputs are
/// reduced in non-overlapping windows of pool_size (window == stride, no
/// padding — the MaxPool1d(2,2) / AvgPool1d(s,s) shape that follows
/// Conv+BN+ReLU in the pooling-heavy baselines) and y has
/// (conv_out / pool_size) columns; the conv-column remainder is dropped,
/// exactly like a separate floor-mode pool.
///
/// With residual set (unpooled, relu false) each output becomes
///   v = row_scale[i] * acc + row_shift[i] + residual,  v > 0 ? v : 0
/// — a residual unit's shortcut add and ReLU in the epilogue. That clamp
/// turns NaN and -0.0 into +0.0, unlike the conv ReLU (v < 0 -> 0), which
/// keeps both.
struct ConvGemmParams {
  int64_t cout = 0;
  int64_t cin = 0;
  int64_t kernel = 0;
  int64_t lpad = 0;  ///< padded sample length (zero padding materialized)
  int64_t stride = 1;
  int64_t dilation = 1;
  ConvPool pool = ConvPool::kNone;
  int64_t pool_size = 1;  ///< pooling window == pooling stride
  const float* row_scale = nullptr;  ///< per-output-channel scale (or null)
  const float* row_shift = nullptr;  ///< per-output-channel shift (or null)
  bool relu = false;
  /// Shortcut input (cout, conv output length) laid out like y, or null.
  const float* residual = nullptr;
};

/// Conv output length (before any fused pooling) for \p p.
inline int64_t ConvGemmOutputLength(const ConvGemmParams& p) {
  return (p.lpad - (p.dilation * (p.kernel - 1) + 1)) / p.stride + 1;
}

/// True when the tile kernels of every dispatch tier can fuse a pool of
/// this window (it must divide the narrowest tile width). Unsupported
/// windows still compute correctly but change the tile decomposition, so
/// callers should fuse only when this holds.
bool ConvGemmSupportsPool(int64_t pool_size);

/// Strided/dilated 1-D convolution of one sample as an implicit-im2col
/// GEMM with the same epilogue as GemmEpilogue plus an optional fused
/// non-overlapping pool (see ConvGemmParams). The column matrix is read
/// directly out of xpad instead of being materialized. Each output is one
/// multiply-add chain over (ci, kk) from zero in every tile of a dispatch
/// tier — fused on AVX2 and AVX-512, unfused on the portable tier on
/// baseline x86-64 — so results are independent of batch composition and
/// tile placement. Same runtime CPU dispatch as GemmEpilogue. A residual
/// with a pool or the ReLU is rejected.
void ConvGemmEpilogue(const float* w, const float* xpad, float* y,
                      const ConvGemmParams& p);

namespace internal {

/// Portable kernel (always available).
void GemmEpilogueGeneric(const float* a, const float* b, float* c, int64_t m,
                         int64_t k, int64_t n, const float* row_scale,
                         const float* row_shift, bool relu);

void ConvGemmEpilogueGeneric(const float* w, const float* xpad, float* y,
                             const ConvGemmParams& p);

void ConvGemmEpilogueAvx2(const float* w, const float* xpad, float* y,
                          const ConvGemmParams& p);

void ConvGemmEpilogueAvx512(const float* w, const float* xpad, float* y,
                            const ConvGemmParams& p);

/// AVX2+FMA kernel; only callable when HasAvx2Gemm() is true.
void GemmEpilogueAvx2(const float* a, const float* b, float* c, int64_t m,
                      int64_t k, int64_t n, const float* row_scale,
                      const float* row_shift, bool relu);

/// AVX-512 kernel; only callable when HasAvx512Gemm() is true.
void GemmEpilogueAvx512(const float* a, const float* b, float* c, int64_t m,
                        int64_t k, int64_t n, const float* row_scale,
                        const float* row_shift, bool relu);

/// True when the AVX2 kernel was compiled in and the CPU supports it.
bool HasAvx2Gemm();

/// True when the AVX-512 kernel was compiled in and the CPU supports
/// AVX-512F and FMA.
bool HasAvx512Gemm();

}  // namespace internal

}  // namespace camal::nn

#endif  // CAMAL_NN_GEMM_H_
