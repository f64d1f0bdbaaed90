// AVX-512 instance of the GEMM tile kernel (see gemm_avx2.cc for the
// dispatch scheme). CMake compiles this translation unit with -mavx512f
// -mfma: the 16-wide inner loop of the tile becomes one zmm FMA per
// accumulator row, and the narrower remainder loops fuse too. Unpooled
// stride-1 conv bands run the register band below: 4x64 tiles, one 4x32
// tile for 32-63 remaining columns, with the BN/ReLU (or residual)
// epilogue applied in registers. Pooled full-width stride-1 tiles take the
// same register loop through ConvRegisterTile; the tile loop keeps
// partial tails and strided tiles.

#include "nn/gemm.h"

#if defined(CAMAL_GEMM_HAVE_AVX512)
#include <immintrin.h>
#endif

namespace camal::nn {
namespace internal {

#if defined(CAMAL_GEMM_HAVE_AVX512)

namespace {

// Raw conv sums of a 4 x (16 * kNv) tile whose column 0 reads x, with the
// 4 * kNv zmm accumulators in registers for the whole (ci, kk) loop (the
// register block of Goto & van de Geijn, "Anatomy of High-Performance
// Matrix Multiplication", ACM TOMS 34(3), 2008). Each step is one
// broadcast per weight row, kNv unaligned 16-float input loads and
// 4 * kNv FMAs, so every output is one FMA chain in (ci, kk) order and its
// bits equal the tile loop's. The accumulators are __m512 values indexed
// only by constants: GCC keeps a float[4][32] accumulator (or a 128-byte
// vector type) on the stack and reloads it every step.
template <int kNv>
inline void ConvBandSums(const float* const* a, const float* x, int64_t cin,
                         int64_t kernel, int64_t lpad, int64_t dil,
                         __m512 (&c)[4][kNv]) {
  for (auto& row : c) {
    for (__m512& v : row) v = _mm512_setzero_ps();
  }
  if (cin <= 0) return;
  // p = ci * kernel + kk runs on across input rows, and the row loop stops
  // at the last row instead of counting ci: with a ci counter GCC 12 kept
  // it and the row offset on the stack (a read-modify-write per row),
  // which cost ~8% on the served shapes.
  const float* in_row = x;
  const float* const last_row = x + (cin - 1) * lpad;
  int64_t p = 0;
  for (;;) {
    int64_t off = 0;  // kk * dil
    for (const int64_t p_end = p + kernel; p < p_end; ++p, off += dil) {
      __m512 bv[kNv];
      for (int v = 0; v < kNv; ++v) {
        bv[v] = _mm512_loadu_ps(in_row + off + 16 * v);
      }
      for (int r = 0; r < 4; ++r) {
        const __m512 wv = _mm512_set1_ps(a[r][p]);
        for (int v = 0; v < kNv; ++v) {
          c[r][v] = _mm512_fmadd_ps(wv, bv[v], c[r][v]);
        }
      }
    }
    if (in_row == last_row) break;
    in_row += lpad;
  }
}

// The tile loop's hook for full-width stride-1 4x32 tiles (see
// ConvAccumulate in gemm_tile.inc): only pooled runs reach it, since
// unpooled ones take the register band. Writes the raw sums to acc.
inline bool ConvRegisterTile(const float* const* a, const float* x, int64_t cin,
                             int64_t kernel, int64_t lpad, int64_t dil,
                             float (&acc)[4][32]) {
  __m512 c[4][2];
  ConvBandSums<2>(a, x, cin, kernel, lpad, dil, c);
  for (int r = 0; r < 4; ++r) {
    for (int v = 0; v < 2; ++v) _mm512_storeu_ps(acc[r] + 16 * v, c[r][v]);
  }
  return true;
}

// One band tile: rows i0..i0+3, columns j0..j0+16*kNv-1 of the band
// whose column 0 reads xpad, writes band and, when the run has a
// residual, reads res (ldy is the row stride of band and res). The
// epilogue stays in registers: s * acc + t (+ res) is the tile loop's
// expression, so it contracts (or not) exactly as ConvStoreTile's does.
// The ReLU is a compare-mask blend, v < 0 -> +0.0, which keeps NaN and
// -0.0 as the scalar clamp does (_mm512_max_ps(v, 0) would return +0.0
// for both); the residual clamp keeps v > 0 only, so both become +0.0
// there.
template <int kNv>
inline void ConvBandTile(const float* const* a, const float* xpad,
                         float* band, const float* res, int64_t i0,
                         int64_t j0, int64_t ldy, const ConvGemmParams& p) {
  __m512 c[4][kNv];
  ConvBandSums<kNv>(a, xpad + j0, p.cin, p.kernel, p.lpad, p.dilation, c);
  const __m512 zero = _mm512_setzero_ps();
  for (int r = 0; r < 4; ++r) {
    const __m512 s = _mm512_set1_ps(
        p.row_scale != nullptr ? p.row_scale[i0 + r] : 1.0f);
    const __m512 t = _mm512_set1_ps(
        p.row_shift != nullptr ? p.row_shift[i0 + r] : 0.0f);
    for (int v = 0; v < kNv; ++v) {
      __m512 out = s * c[r][v] + t;
      if (res != nullptr) {
        out = out + _mm512_loadu_ps(res + r * ldy + j0 + 16 * v);
        const __mmask16 pos = _mm512_cmp_ps_mask(out, zero, _CMP_GT_OQ);
        out = _mm512_maskz_mov_ps(pos, out);
      } else if (p.relu) {
        const __mmask16 neg = _mm512_cmp_ps_mask(out, zero, _CMP_LT_OQ);
        out = _mm512_mask_blend_ps(neg, out, zero);
      }
      _mm512_storeu_ps(band + r * ldy + j0 + 16 * v, out);
    }
  }
}

// The band hook of gemm_tile.inc for 4-row unpooled stride-1 bands:
// 4x64 tiles over every full 64-column group, then one 4x32 tile when
// 32-63 columns remain, so every full 32-column group runs here. Returns
// the column where the tile loop resumes (the partial tail).
inline int64_t ConvRegisterBand(const float* const (&a)[4], const float* xpad,
                                float* y, int64_t i0, int64_t lout,
                                const ConvGemmParams& p) {
  float* band = y + i0 * lout;
  const float* res = p.residual != nullptr ? p.residual + i0 * lout : nullptr;
  int64_t j0 = 0;
  for (; j0 + 64 <= lout; j0 += 64) {
    ConvBandTile<4>(a, xpad, band, res, i0, j0, lout, p);
  }
  if (j0 + 32 <= lout) {
    ConvBandTile<2>(a, xpad, band, res, i0, j0, lout, p);
    j0 += 32;
  }
  return j0;
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
