#include "nn/gemm.h"

#include "common/check.h"

namespace camal::nn {
namespace internal {

#define CAMAL_GEMM_IMPL GemmEpilogueGeneric
#define CAMAL_GEMM_CONV_IMPL ConvGemmEpilogueGeneric
#include "nn/gemm_tile.inc"
#undef CAMAL_GEMM_CONV_IMPL
#undef CAMAL_GEMM_IMPL

bool HasAvx2Gemm() {
#if defined(CAMAL_GEMM_HAVE_AVX2)
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

bool HasAvx512Gemm() {
#if defined(CAMAL_GEMM_HAVE_AVX512)
  static const bool supported =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

}  // namespace internal

void GemmEpilogue(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, const float* row_scale,
                  const float* row_shift, bool relu) {
  if (m <= 0 || n <= 0) return;
  if (internal::HasAvx512Gemm()) {
    internal::GemmEpilogueAvx512(a, b, c, m, k, n, row_scale, row_shift,
                                 relu);
  } else if (internal::HasAvx2Gemm()) {
    internal::GemmEpilogueAvx2(a, b, c, m, k, n, row_scale, row_shift, relu);
  } else {
    internal::GemmEpilogueGeneric(a, b, c, m, k, n, row_scale, row_shift,
                                  relu);
  }
}

bool ConvGemmSupportsPool(int64_t pool_size) {
  // Fused pooling is only offered for windows that divide every tier's
  // tile width (16 portable/AVX2, 32 AVX-512): those keep the tile
  // decomposition identical to an unpooled run, which is what makes the
  // fused result bitwise-equal to conv-then-separate-pool (vector bodies
  // and remainder epilogs may contract floating point differently, so
  // only an identical decomposition guarantees identical bits).
  return pool_size >= 2 && pool_size <= 16 && 16 % pool_size == 0;
}

void ConvGemmEpilogue(const float* w, const float* xpad, float* y,
                      const ConvGemmParams& p) {
  if (p.cout <= 0) return;
  CAMAL_CHECK(p.residual == nullptr || (p.pool == ConvPool::kNone && !p.relu));
  if (internal::HasAvx512Gemm()) {
    internal::ConvGemmEpilogueAvx512(w, xpad, y, p);
  } else if (internal::HasAvx2Gemm()) {
    internal::ConvGemmEpilogueAvx2(w, xpad, y, p);
  } else {
    internal::ConvGemmEpilogueGeneric(w, xpad, y, p);
  }
}

}  // namespace camal::nn
