// AVX-512 instance of the GEMM tile kernel (see gemm_avx2.cc for the
// dispatch scheme). CMake compiles this translation unit with -mavx512f
// -mfma: the 16-wide inner loop of the tile becomes one zmm FMA per
// accumulator row, and the narrower remainder loops fuse too. Full-width
// stride-1 conv tiles run the register micro-kernel below.

#include "nn/gemm.h"

#if defined(CAMAL_GEMM_HAVE_AVX512)
#include <immintrin.h>
#endif

namespace camal::nn {
namespace internal {

#if defined(CAMAL_GEMM_HAVE_AVX512)

namespace {

inline void RowFma(float w, __m512 b0, __m512 b1, __m512* c0, __m512* c1) {
  const __m512 wv = _mm512_set1_ps(w);
  *c0 = _mm512_fmadd_ps(wv, b0, *c0);
  *c1 = _mm512_fmadd_ps(wv, b1, *c1);
}

// Register-resident 4x32 conv micro-kernel (the register block of Goto &
// van de Geijn, "Anatomy of High-Performance Matrix Multiplication", ACM
// TOMS 34(3), 2008), found by ConvAccumulate in gemm_tile.inc for
// full-width stride-1 tiles. The eight zmm accumulators stay in registers
// for the whole (ci, kk) loop: each step is one broadcast per weight row,
// two unaligned 16-float input loads and eight FMAs, and acc is written
// once at the end. Every output is still one FMA chain in (ci, kk) order,
// so the bits equal the tile loop's. Named __m512 locals are what keep
// GCC from spilling: it keeps a float[4][32] accumulator (or a 128-byte
// vector type) on the stack and reloads it every step.
inline bool ConvRegisterTile(const float* const* a, const float* x, int64_t cin,
                             int64_t kernel, int64_t lpad, int64_t dil,
                             float (&acc)[4][32]) {
  __m512 c00 = _mm512_setzero_ps(), c01 = _mm512_setzero_ps();
  __m512 c10 = _mm512_setzero_ps(), c11 = _mm512_setzero_ps();
  __m512 c20 = _mm512_setzero_ps(), c21 = _mm512_setzero_ps();
  __m512 c30 = _mm512_setzero_ps(), c31 = _mm512_setzero_ps();
  for (int64_t ci = 0; ci < cin; ++ci) {
    const float* in_row = x + ci * lpad;
    for (int64_t kk = 0; kk < kernel; ++kk) {
      const int64_t p = ci * kernel + kk;
      const float* b = in_row + kk * dil;
      const __m512 b0 = _mm512_loadu_ps(b);
      const __m512 b1 = _mm512_loadu_ps(b + 16);
      RowFma(a[0][p], b0, b1, &c00, &c01);
      RowFma(a[1][p], b0, b1, &c10, &c11);
      RowFma(a[2][p], b0, b1, &c20, &c21);
      RowFma(a[3][p], b0, b1, &c30, &c31);
    }
  }
  _mm512_storeu_ps(acc[0], c00);
  _mm512_storeu_ps(acc[0] + 16, c01);
  _mm512_storeu_ps(acc[1], c10);
  _mm512_storeu_ps(acc[1] + 16, c11);
  _mm512_storeu_ps(acc[2], c20);
  _mm512_storeu_ps(acc[2] + 16, c21);
  _mm512_storeu_ps(acc[3], c30);
  _mm512_storeu_ps(acc[3] + 16, c31);
  return true;
}

}  // namespace

#define CAMAL_GEMM_IMPL GemmEpilogueAvx512
#define CAMAL_GEMM_CONV_IMPL ConvGemmEpilogueAvx512
#define CAMAL_GEMM_TILE_NR 32  // 4x32 conv tiles: two zmm per accumulator row
#include "nn/gemm_tile.inc"
#undef CAMAL_GEMM_TILE_NR
#undef CAMAL_GEMM_CONV_IMPL
#undef CAMAL_GEMM_IMPL

#else  // fallback so the symbol always links

void GemmEpilogueAvx512(const float* a, const float* b, float* c, int64_t m,
                        int64_t k, int64_t n, const float* row_scale,
                        const float* row_shift, bool relu) {
  GemmEpilogueGeneric(a, b, c, m, k, n, row_scale, row_shift, relu);
}

void ConvGemmEpilogueAvx512(const float* w, const float* xpad, float* y,
                            const ConvGemmParams& p) {
  ConvGemmEpilogueGeneric(w, xpad, y, p);
}

#endif

}  // namespace internal
}  // namespace camal::nn
