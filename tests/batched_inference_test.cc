#include <gtest/gtest.h>

#if defined(__linux__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/cam.h"
#include "core/ensemble.h"
#include "core/inception.h"
#include "core/localizer.h"
#include "core/resnet.h"
#include "nn/activations.h"
#include "nn/batchnorm1d.h"
#include "nn/conv1d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "nn/tensor.h"

namespace camal {
namespace {

nn::Tensor RandomTensor(std::vector<int64_t> shape, Rng* rng) {
  nn::Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
  return t;
}

double MaxAbsDiff(const nn::Tensor& a, const nn::Tensor& b) {
  EXPECT_TRUE(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  double max_diff = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(static_cast<double>(a.at(i)) - b.at(i)));
  }
  return max_diff;
}

TEST(GemmTest, MatchesNaiveProduct) {
  Rng rng(11);
  for (auto [m, k, n] : {std::tuple<int64_t, int64_t, int64_t>{1, 1, 1},
                         {3, 5, 7},
                         {4, 8, 8},
                         {9, 17, 23},
                         {32, 112, 128}}) {
    nn::Tensor a = RandomTensor({m, k}, &rng);
    nn::Tensor b = RandomTensor({k, n}, &rng);
    nn::Tensor fast = nn::MatMul(a, b);
    nn::Tensor naive({m, n});
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t p = 0; p < k; ++p) {
        for (int64_t j = 0; j < n; ++j) {
          naive.at2(i, j) += a.at2(i, p) * b.at2(p, j);
        }
      }
    }
    EXPECT_LT(MaxAbsDiff(fast, naive), 1e-4)
        << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(Conv1dInferenceTest, AgreesWithForwardAcrossGeometries) {
  Rng rng(5);
  struct Geometry {
    int64_t cin, cout, k, stride, padding, dilation;
  };
  for (const Geometry& g : {Geometry{1, 4, 7, 1, 3, 1},
                            Geometry{3, 8, 5, 1, 2, 1},
                            Geometry{4, 6, 3, 2, 1, 1},
                            Geometry{2, 5, 3, 1, 2, 2},
                            Geometry{8, 16, 1, 1, 0, 1}}) {
    nn::Conv1dOptions opt;
    opt.in_channels = g.cin;
    opt.out_channels = g.cout;
    opt.kernel_size = g.k;
    opt.stride = g.stride;
    opt.padding = g.padding;
    opt.dilation = g.dilation;
    nn::Conv1d conv(opt, &rng);
    nn::Tensor x = RandomTensor({3, g.cin, 40}, &rng);
    nn::Tensor slow = conv.Forward(x);
    nn::Tensor fast = conv.ForwardInference(x);
    EXPECT_LT(MaxAbsDiff(slow, fast), 1e-5)
        << "cin=" << g.cin << " k=" << g.k << " stride=" << g.stride
        << " dil=" << g.dilation;
  }
}

TEST(Conv1dInferenceTest, StridedDilatedParityAcrossBatchesAndLengths) {
  // The generalized implicit-im2col kernel serves every geometry; sweep
  // stride/dilation combinations over batch sizes {1, 7, 32} and odd
  // input lengths (partial tiles, short outputs, output tails).
  Rng rng(17);
  struct Geometry {
    int64_t cin, cout, k, stride, padding, dilation;
  };
  for (const Geometry& g : {Geometry{2, 5, 3, 2, 1, 1},
                            Geometry{3, 4, 3, 3, 0, 1},
                            Geometry{2, 6, 3, 1, 3, 3},
                            Geometry{4, 7, 5, 2, 4, 2},
                            Geometry{1, 3, 4, 3, 2, 2},
                            Geometry{5, 2, 1, 2, 0, 1}}) {
    nn::Conv1dOptions opt;
    opt.in_channels = g.cin;
    opt.out_channels = g.cout;
    opt.kernel_size = g.k;
    opt.stride = g.stride;
    opt.padding = g.padding;
    opt.dilation = g.dilation;
    nn::Conv1d conv(opt, &rng);
    for (int64_t n : {1, 7, 32}) {
      for (int64_t lin : {17, 33, 41}) {
        if (conv.OutputLength(lin) <= 0) continue;
        nn::Tensor x = RandomTensor({n, g.cin, lin}, &rng);
        nn::Tensor slow = conv.Forward(x);
        nn::Tensor fast = conv.ForwardInference(x);
        EXPECT_LT(MaxAbsDiff(slow, fast), 1e-4)
            << "n=" << n << " lin=" << lin << " k=" << g.k
            << " stride=" << g.stride << " dil=" << g.dilation;
      }
    }
  }
}

TEST(Conv1dInferenceTest, StridedResultsAreBatchCompositionInvariant) {
  // Serving coalesces windows from different requests into shared
  // batches; per-sample outputs must be bitwise-independent of what else
  // rides in the batch — now also for strided/dilated geometries.
  Rng rng(19);
  nn::Conv1dOptions opt;
  opt.in_channels = 3;
  opt.out_channels = 6;
  opt.kernel_size = 3;
  opt.stride = 2;
  opt.padding = 2;
  opt.dilation = 2;
  nn::Conv1d conv(opt, &rng);
  const int64_t n = 5, lin = 39;
  nn::Tensor batch = RandomTensor({n, 3, lin}, &rng);
  nn::Tensor batched = conv.ForwardInference(batch);
  for (int64_t i = 0; i < n; ++i) {
    nn::Tensor one({1, 3, lin});
    for (int64_t c = 0; c < 3; ++c) {
      for (int64_t t = 0; t < lin; ++t) one.at3(0, c, t) = batch.at3(i, c, t);
    }
    nn::Tensor single = conv.ForwardInference(one);
    for (int64_t j = 0; j < single.numel(); ++j) {
      EXPECT_EQ(single.at(j), batched.at(i * single.numel() + j))
          << "sample " << i << " flat index " << j;
    }
  }
}

// Drives BatchNorm running statistics away from the identity so the
// fused affine is non-trivial.
void WarmBatchNorm(nn::BatchNorm1d* bn, int64_t channels, Rng* rng) {
  bn->SetTraining(true);
  for (int step = 0; step < 4; ++step) {
    bn->Forward(RandomTensor({5, channels, 12}, rng));
  }
  bn->SetTraining(false);
}

TEST(FusedPoolTest, MaxPoolEpilogueMatchesSeparatePoolBitwise) {
  // Conv+BN+ReLU+MaxPool(2,2) through Sequential::ForwardInference (one
  // fused GEMM-with-pool pass) vs the same fused conv followed by a
  // separate pool layer: identical to the last ULP, for even and odd
  // (remainder-dropping) input lengths.
  Rng rng(23);
  auto seq = std::make_unique<nn::Sequential>();
  nn::Conv1dOptions opt;
  opt.in_channels = 3;
  opt.out_channels = 9;
  opt.kernel_size = 3;
  opt.padding = opt.SamePadding();
  opt.bias = false;
  auto* conv = seq->Add(std::make_unique<nn::Conv1d>(opt, &rng));
  auto* bn = seq->Add(std::make_unique<nn::BatchNorm1d>(9));
  seq->Add(std::make_unique<nn::ReLU>());
  auto* pool = seq->Add(std::make_unique<nn::MaxPool1d>(2, 2));
  WarmBatchNorm(bn, 9, &rng);
  seq->SetTraining(false);
  for (int64_t lin : {40, 37}) {
    nn::Tensor x = RandomTensor({4, 3, lin}, &rng);
    nn::Tensor fused = seq->ForwardInference(x);
    std::vector<float> scale, shift;
    bn->FusedAffine(&scale, &shift);
    nn::Tensor unpooled = conv->ForwardInferenceFused(
        x, scale.data(), shift.data(), /*fuse_relu=*/true);
    nn::Tensor separate = pool->ForwardInference(unpooled);
    ASSERT_TRUE(fused.SameShape(separate)) << "lin=" << lin;
    EXPECT_EQ(MaxAbsDiff(fused, separate), 0.0) << "lin=" << lin;
    // Anchor against the unfused training path too (eval mode).
    EXPECT_LT(MaxAbsDiff(fused, seq->Forward(x)), 1e-4) << "lin=" << lin;
  }
}

TEST(FusedPoolTest, AvgPoolEpilogueMatchesSeparatePoolBitwise) {
  // Conv(bias)+ReLU+AvgPool(w, w) across the tile-dividing windows the
  // fusion admits (odd input length exercises the dropped remainder).
  Rng rng(29);
  for (int64_t pw : {2, 4, 8}) {
    auto seq = std::make_unique<nn::Sequential>();
    nn::Conv1dOptions opt;
    opt.in_channels = 2;
    opt.out_channels = 5;
    opt.kernel_size = 5;
    opt.padding = opt.SamePadding();
    auto* conv = seq->Add(std::make_unique<nn::Conv1d>(opt, &rng));
    seq->Add(std::make_unique<nn::ReLU>());
    auto* pool =
        seq->Add(std::make_unique<nn::AvgPool1d>(pw, pw));
    seq->SetTraining(false);
    nn::Tensor x = RandomTensor({3, 2, 38}, &rng);
    nn::Tensor fused = seq->ForwardInference(x);
    nn::Tensor unpooled = conv->ForwardInferenceFused(
        x, /*channel_scale=*/nullptr, /*channel_shift=*/nullptr,
        /*fuse_relu=*/true);
    nn::Tensor separate = pool->ForwardInference(unpooled);
    ASSERT_TRUE(fused.SameShape(separate)) << "pw=" << pw;
    EXPECT_EQ(MaxAbsDiff(fused, separate), 0.0) << "pw=" << pw;
    EXPECT_LT(MaxAbsDiff(fused, seq->Forward(x)), 1e-4) << "pw=" << pw;
  }
}

TEST(FusedPoolTest, SupportedPoolWindowsDivideEveryTileTier) {
  EXPECT_FALSE(nn::ConvGemmSupportsPool(1));
  EXPECT_TRUE(nn::ConvGemmSupportsPool(2));
  EXPECT_FALSE(nn::ConvGemmSupportsPool(3));  // correct, but not bitwise
  EXPECT_TRUE(nn::ConvGemmSupportsPool(4));
  EXPECT_TRUE(nn::ConvGemmSupportsPool(8));
  EXPECT_TRUE(nn::ConvGemmSupportsPool(16));
  EXPECT_FALSE(nn::ConvGemmSupportsPool(17));
}

TEST(FusedPoolTest, KernelHandlesNonDividingWindowsToRounding) {
  // Pool windows that do not divide the tile width are not offered to
  // the layer fusion (no bitwise guarantee), but the kernel itself must
  // still produce the right values: check a 3-wide average pool against
  // a manual conv-then-pool reference.
  Rng rng(31);
  const int64_t cin = 2, cout = 5, kernel = 5, lpad = 42, pw = 3;
  nn::Tensor w = RandomTensor({cout, cin * kernel}, &rng);
  nn::Tensor xpad = RandomTensor({cin, lpad}, &rng);
  const int64_t lout = lpad - kernel + 1;
  nn::Tensor conv = nn::Tensor::Uninitialized({cout, lout});
  nn::ConvGemmParams p;
  p.cout = cout;
  p.cin = cin;
  p.kernel = kernel;
  p.lpad = lpad;
  p.relu = true;
  nn::ConvGemmEpilogue(w.data(), xpad.data(), conv.data(), p);
  const int64_t lpool = lout / pw;
  nn::Tensor fused = nn::Tensor::Uninitialized({cout, lpool});
  p.pool = nn::ConvPool::kAvg;
  p.pool_size = pw;
  nn::ConvGemmEpilogue(w.data(), xpad.data(), fused.data(), p);
  const float inv = 1.0f / static_cast<float>(pw);
  for (int64_t c = 0; c < cout; ++c) {
    for (int64_t g = 0; g < lpool; ++g) {
      float acc = 0.0f;
      for (int64_t r = 0; r < pw; ++r) acc += conv.at2(c, g * pw + r);
      EXPECT_NEAR(fused.at2(c, g), acc * inv, 1e-5)
          << "row " << c << " group " << g;
    }
  }
}

// Scalar oracle for every conv dispatch tier. Each output is one
// multiply-add chain over (ci, kk) from zero — fused on the AVX2 and
// AVX-512 tiers, a multiply then an add on the portable tier — then
// s * acc + t, and either the ReLU clamp and a left-to-right pool or the
// residual add and its clamp. Path-vs-path tests cannot see a change of
// accumulation order; these bits can.

// GCC contracts a * b + c into an FMA only when optimizing, so an
// unoptimized build promises no fusion on the SIMD tiers.
#if defined(__OPTIMIZE__)
constexpr bool kSimdTiersFuse = true;
#else
constexpr bool kSimdTiersFuse = false;
#endif

// The portable tier is built without FMA on baseline x86-64; elsewhere
// the compiler may contract its chain.
#if defined(__x86_64__) && !defined(__FMA__)
constexpr bool kPortableTierUnfused = true;
#else
constexpr bool kPortableTierUnfused = false;
#endif

using ConvKernel = void (*)(const float*, const float*, float*,
                            const nn::ConvGemmParams&);

struct OracleCase {
  int64_t cin, cout, kernel, lout, stride, dilation;
  nn::ConvPool pool;
  int64_t pool_size;
  bool scale, shift, relu;
  bool residual = false;
};

std::vector<OracleCase> OracleCases() {
  using nn::ConvPool;
  std::vector<OracleCase> cases;
  // The served ResNet shapes at window 128: full tiles only.
  for (int64_t cin : {1, 16, 32}) {
    for (int64_t cout : {16, 32}) {
      for (int64_t k : {1, 3, 5, 9, 15}) {
        cases.push_back({cin, cout, k, 128, 1, 1, ConvPool::kNone, 1, false,
                         false, false});
        cases.push_back({cin, cout, k, 128, 1, 1, ConvPool::kNone, 1, true,
                         true, true});
      }
    }
  }
  // Partial tiles of every width class on 16- and 32-wide tiles, 1-row
  // remainder bands (cout 5 and 9), and stride 2 with dilation 2; the
  // scale/shift/ReLU epilogue cycles through all eight mixes.
  int mix = 0;
  for (int64_t lout : {8, 9, 12, 17, 24, 37, 40, 41, 63}) {
    for (int64_t cout : {5, 9, 16}) {
      for (int64_t cin : {1, 16}) {
        const int64_t k = cin == 1 ? 5 : 9;
        for (int64_t step : {1, 2}) {
          const bool scale = mix & 1, shift = mix & 2, relu = mix & 4;
          mix = (mix + 1) % 8;
          cases.push_back({cin, cout, k, lout, step, step, ConvPool::kNone, 1,
                           scale, shift, relu});
        }
      }
    }
  }
  // Stride-1 lengths that split the AVX-512 register band into 4x64 tiles
  // only (64), plus one 4x32 tile (96, 160), plus a partial tail left to
  // the tile loop (65, 200), or plus both (100, 127, 191); undilated and
  // dilated.
  for (int64_t lout : {64, 65, 96, 100, 127, 160, 191, 200}) {
    for (int64_t cout : {5, 16, 32}) {
      for (int64_t dil : {1, 2}) {
        const bool scale = mix & 1, shift = mix & 2, relu = mix & 4;
        mix = (mix + 1) % 8;
        cases.push_back({16, cout, 5, lout, 1, dil, ConvPool::kNone, 1, scale,
                         shift, relu});
      }
    }
  }
  // Residual epilogues: the served shapes, partial tiles and 1-row
  // remainder bands, the register band's splits, and stride 2 with
  // dilation 2; the scale/shift mix cycles.
  for (int64_t lout : {8, 17, 37, 64, 100, 127, 128, 191}) {
    for (int64_t cout : {5, 16, 32}) {
      for (int64_t cin : {1, 16}) {
        const int64_t step = lout == 37 && cin == 16 ? 2 : 1;
        const bool scale = mix & 1, shift = mix & 2;
        mix = (mix + 1) % 8;
        cases.push_back({cin, cout, cin == 1 ? 9 : 5, lout, step, step,
                         ConvPool::kNone, 1, scale, shift, false, true});
      }
    }
  }
  // Fused max and average pools, including strided ones.
  for (ConvPool pool : {ConvPool::kMax, ConvPool::kAvg}) {
    for (int64_t pw : {2, 4, 8}) {
      for (int64_t lout : {40, 41, 63, 128}) {
        for (int64_t cout : {9, 16}) {
          const int64_t step = lout == 41 ? 2 : 1;
          cases.push_back({16, cout, 9, lout, step, step, pool, pw, true, true,
                           pool == ConvPool::kMax});
        }
      }
    }
  }
  return cases;
}

float MulAdd(float a, float b, float c, bool fused) {
  if (fused) return std::fma(a, b, c);
  const float product = a * b;
  return product + c;
}

std::vector<float> ConvOracle(const std::vector<float>& w,
                              const std::vector<float>& xpad,
                              const nn::ConvGemmParams& p, bool fused) {
  const int64_t lout = nn::ConvGemmOutputLength(p);
  const int64_t pw = p.pool == nn::ConvPool::kNone ? 1 : p.pool_size;
  const int64_t lpool = lout / pw;
  std::vector<float> y(static_cast<size_t>(p.cout * lpool));
  std::vector<float> row(static_cast<size_t>(lout));
  for (int64_t co = 0; co < p.cout; ++co) {
    const float s = p.row_scale != nullptr ? p.row_scale[co] : 1.0f;
    const float t = p.row_shift != nullptr ? p.row_shift[co] : 0.0f;
    for (int64_t j = 0; j < lout; ++j) {
      float acc = 0.0f;
      for (int64_t ci = 0; ci < p.cin; ++ci) {
        for (int64_t kk = 0; kk < p.kernel; ++kk) {
          const float wv = w[(co * p.cin + ci) * p.kernel + kk];
          const float xv = xpad[ci * p.lpad + j * p.stride + kk * p.dilation];
          acc = MulAdd(wv, xv, acc, fused);
        }
      }
      float v = MulAdd(s, acc, t, fused);
      if (p.residual != nullptr) {
        v = v + p.residual[co * lout + j];
        v = v > 0.0f ? v : 0.0f;
      } else if (p.relu && v < 0.0f) {
        v = 0.0f;
      }
      row[j] = v;
    }
    for (int64_t g = 0; g < lpool; ++g) {
      const float* win = row.data() + g * pw;
      float out = win[0];
      if (p.pool == nn::ConvPool::kMax) {
        for (int64_t r = 1; r < pw; ++r) {
          if (win[r] > out) out = win[r];
        }
      } else if (p.pool == nn::ConvPool::kAvg) {
        float sum = 0.0f;
        for (int64_t r = 0; r < pw; ++r) sum += win[r];
        out = sum * (1.0f / static_cast<float>(pw));
      }
      y[co * lpool + g] = out;
    }
  }
  return y;
}

std::string Describe(const OracleCase& c) {
  std::ostringstream os;
  os << "cin=" << c.cin << " cout=" << c.cout << " k=" << c.kernel;
  os << " lout=" << c.lout << " stride=" << c.stride
     << " dilation=" << c.dilation;
  os << " pool=" << static_cast<int>(c.pool) << "/" << c.pool_size;
  if (c.residual) os << " residual";
  return os.str();
}

uint32_t Bits(float f) {
  uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// Outputs of `kernel` whose bits differ from the oracle's.
int64_t OracleMismatches(ConvKernel kernel, bool fused,
                         const std::vector<float>& w,
                         const std::vector<float>& xpad,
                         const nn::ConvGemmParams& p) {
  const std::vector<float> want = ConvOracle(w, xpad, p, fused);
  std::vector<float> got(want.size());
  kernel(w.data(), xpad.data(), got.data(), p);
  int64_t bad = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    if (Bits(got[i]) != Bits(want[i])) ++bad;
  }
  return bad;
}

void ExpectTierMatchesOracle(ConvKernel kernel, bool fused) {
  Rng rng(61);
  auto random = [&rng](int64_t n, double lo, double hi) {
    std::vector<float> v(static_cast<size_t>(n));
    for (float& f : v) f = static_cast<float>(rng.Uniform(lo, hi));
    return v;
  };
  int64_t outputs = 0, mismatches = 0;
  for (const OracleCase& c : OracleCases()) {
    nn::ConvGemmParams p;
    p.cout = c.cout;
    p.cin = c.cin;
    p.kernel = c.kernel;
    p.stride = c.stride;
    p.dilation = c.dilation;
    // The widest padded length that still yields lout columns.
    p.lpad = c.lout * c.stride + c.dilation * (c.kernel - 1);
    p.pool = c.pool;
    p.pool_size = c.pool_size;
    p.relu = c.relu;
    const std::vector<float> w = random(c.cout * c.cin * c.kernel, -1, 1);
    const std::vector<float> xpad = random(c.cin * p.lpad, -1, 1);
    const std::vector<float> scale = random(c.cout, 0.5, 1.5);
    const std::vector<float> shift = random(c.cout, -0.5, 0.5);
    const std::vector<float> residual =
        c.residual ? random(c.cout * c.lout, -1, 1) : std::vector<float>();
    p.row_scale = c.scale ? scale.data() : nullptr;
    p.row_shift = c.shift ? shift.data() : nullptr;
    p.residual = c.residual ? residual.data() : nullptr;
    ASSERT_EQ(nn::ConvGemmOutputLength(p), c.lout);
    const int64_t bad = OracleMismatches(kernel, fused, w, xpad, p);
    if (bad > 0 && mismatches == 0) {
      ADD_FAILURE() << "first failing case: " << Describe(c);
    }
    mismatches += bad;
    outputs += c.cout * (c.lout / c.pool_size);
  }
  EXPECT_EQ(mismatches, 0) << mismatches << " of " << outputs
                           << " outputs differ from the scalar chain";
}

TEST(ConvOracleTest, Avx512TierIsOneFusedChainPerOutput) {
  if (!nn::internal::HasAvx512Gemm()) {
    GTEST_SKIP() << "AVX-512 tier not available on this host";
  }
  if (!kSimdTiersFuse) GTEST_SKIP() << "unoptimized build: no FMA promise";
  ExpectTierMatchesOracle(&nn::internal::ConvGemmEpilogueAvx512,
                          /*fused=*/true);
}

TEST(ConvOracleTest, Avx2TierIsOneFusedChainPerOutput) {
  if (!nn::internal::HasAvx2Gemm()) {
    GTEST_SKIP() << "AVX2 tier not available on this host";
  }
  if (!kSimdTiersFuse) GTEST_SKIP() << "unoptimized build: no FMA promise";
  ExpectTierMatchesOracle(&nn::internal::ConvGemmEpilogueAvx2, /*fused=*/true);
}

TEST(ConvOracleTest, PortableTierIsOneUnfusedChainPerOutput) {
  if (!kPortableTierUnfused) {
    GTEST_SKIP() << "portable tier may contract to FMA on this target";
  }
  ExpectTierMatchesOracle(&nn::internal::ConvGemmEpilogueGeneric,
                          /*fused=*/false);
}

TEST(ConvOracleTest, ReluKeepsNanAndNegativeZeroOnEveryTier) {
  // Scale -1 and shift -0.0 turn every all-zero receptive field into
  // -1 * (+0) + (-0) = -0.0, which the ReLU clamp (v < 0) keeps, as it
  // keeps NaN; a max(v, 0) would turn both into +0.0. The all-zero
  // columns 40-79 straddle the two 4x64 tiles of the AVX-512 register
  // band.
  constexpr int64_t kChannels = 16, kKernel = 5, kLength = 128;
  constexpr int64_t kZeroBegin = 40, kZeroLength = 44, kNanAt = 100;
  nn::ConvGemmParams p;
  p.cout = kChannels;
  p.cin = kChannels;
  p.kernel = kKernel;
  p.lpad = kLength + kKernel - 1;
  p.relu = true;
  Rng rng(67);
  std::vector<float> w(static_cast<size_t>(kChannels * kChannels * kKernel));
  std::vector<float> xpad(static_cast<size_t>(kChannels * p.lpad));
  for (float& f : w) f = static_cast<float>(rng.Uniform(-1, 1));
  for (float& f : xpad) f = static_cast<float>(rng.Uniform(-1, 1));
  for (int64_t ci = 0; ci < kChannels; ++ci) {
    std::fill_n(xpad.begin() + ci * p.lpad + kZeroBegin, kZeroLength, 0.0f);
  }
  xpad[3 * p.lpad + kNanAt] = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> scale(kChannels, -1.0f), shift(kChannels, -0.0f);
  p.row_scale = scale.data();
  p.row_shift = shift.data();
  ASSERT_EQ(nn::ConvGemmOutputLength(p), kLength);

  int64_t nans = 0, negative_zeros = 0;
  for (float v : ConvOracle(w, xpad, p, /*fused=*/true)) {
    nans += std::isnan(v) ? 1 : 0;
    negative_zeros += Bits(v) == Bits(-0.0f) ? 1 : 0;
  }
  // Columns whose kKernel readings all lie in the zero run, and columns
  // that read the NaN, in every output row.
  EXPECT_EQ(negative_zeros, (kZeroLength - kKernel + 1) * kChannels);
  EXPECT_EQ(nans, kKernel * kChannels);

  if (nn::internal::HasAvx512Gemm() && kSimdTiersFuse) {
    EXPECT_EQ(OracleMismatches(&nn::internal::ConvGemmEpilogueAvx512,
                               /*fused=*/true, w, xpad, p),
              0)
        << "AVX-512 tier";
  }
  if (nn::internal::HasAvx2Gemm() && kSimdTiersFuse) {
    EXPECT_EQ(OracleMismatches(&nn::internal::ConvGemmEpilogueAvx2,
                               /*fused=*/true, w, xpad, p),
              0)
        << "AVX2 tier";
  }
  if (kPortableTierUnfused) {
    EXPECT_EQ(OracleMismatches(&nn::internal::ConvGemmEpilogueGeneric,
                               /*fused=*/false, w, xpad, p),
              0)
        << "portable tier";
  }
}

TEST(ConvOracleTest, ResidualClampZeroesNanAndNegativeZeroOnEveryTier) {
  // The residual unit's clamp is v > 0 ? v : 0, so NaN and -0.0 sums
  // become +0.0 there, where the conv ReLU keeps both. Scale -1 and shift
  // -0.0 turn every all-zero receptive field into -0.0 and the residual
  // adds -0.0 over those columns (40-79, across the two 4x64 tiles of the
  // AVX-512 register band), so their sums are -0.0; a NaN reading and a
  // NaN residual make NaN sums.
  constexpr int64_t kChannels = 16, kKernel = 5, kLength = 128;
  constexpr int64_t kZeroBegin = 40, kZeroLength = 44, kNanAt = 100;
  constexpr int64_t kZeroColumns = kZeroLength - kKernel + 1;
  nn::ConvGemmParams p;
  p.cout = kChannels;
  p.cin = kChannels;
  p.kernel = kKernel;
  p.lpad = kLength + kKernel - 1;
  Rng rng(71);
  std::vector<float> w(static_cast<size_t>(kChannels * kChannels * kKernel));
  std::vector<float> xpad(static_cast<size_t>(kChannels * p.lpad));
  std::vector<float> residual(static_cast<size_t>(kChannels * kLength));
  for (float& f : w) f = static_cast<float>(rng.Uniform(-1, 1));
  for (float& f : xpad) f = static_cast<float>(rng.Uniform(-1, 1));
  for (float& f : residual) f = static_cast<float>(rng.Uniform(-1, 1));
  for (int64_t c = 0; c < kChannels; ++c) {
    std::fill_n(xpad.begin() + c * p.lpad + kZeroBegin, kZeroLength, 0.0f);
    std::fill_n(residual.begin() + c * kLength + kZeroBegin, kZeroColumns,
                -0.0f);
  }
  xpad[3 * p.lpad + kNanAt] = std::numeric_limits<float>::quiet_NaN();
  residual[5 * kLength + 20] = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> scale(kChannels, -1.0f), shift(kChannels, -0.0f);
  p.row_scale = scale.data();
  p.row_shift = shift.data();
  ASSERT_EQ(nn::ConvGemmOutputLength(p), kLength);

  // The sums the clamp sees: the oracle's conv, then the residual.
  const std::vector<float> conv = ConvOracle(w, xpad, p, /*fused=*/true);
  p.residual = residual.data();
  const std::vector<float> want = ConvOracle(w, xpad, p, /*fused=*/true);
  int64_t nans = 0, negative_zeros = 0;
  for (size_t i = 0; i < conv.size(); ++i) {
    const float sum = conv[i] + residual[i];
    nans += std::isnan(sum) ? 1 : 0;
    negative_zeros += Bits(sum) == Bits(-0.0f) ? 1 : 0;
    if (std::isnan(sum) || Bits(sum) == Bits(-0.0f)) {
      EXPECT_EQ(Bits(want[i]), Bits(0.0f)) << "output " << i;
    }
  }
  EXPECT_EQ(negative_zeros, kZeroColumns * kChannels);
  EXPECT_EQ(nans, kKernel * kChannels + 1);

  if (nn::internal::HasAvx512Gemm() && kSimdTiersFuse) {
    EXPECT_EQ(OracleMismatches(&nn::internal::ConvGemmEpilogueAvx512,
                               /*fused=*/true, w, xpad, p),
              0)
        << "AVX-512 tier";
  }
  if (nn::internal::HasAvx2Gemm() && kSimdTiersFuse) {
    EXPECT_EQ(OracleMismatches(&nn::internal::ConvGemmEpilogueAvx2,
                               /*fused=*/true, w, xpad, p),
              0)
        << "AVX2 tier";
  }
  if (kPortableTierUnfused) {
    EXPECT_EQ(OracleMismatches(&nn::internal::ConvGemmEpilogueGeneric,
                               /*fused=*/false, w, xpad, p),
              0)
        << "portable tier";
  }
}

TEST(Conv1dInferenceTest, NoBiasAndSingleSample) {
  Rng rng(6);
  nn::Conv1dOptions opt;
  opt.in_channels = 2;
  opt.out_channels = 3;
  opt.kernel_size = 5;
  opt.padding = opt.SamePadding();
  opt.bias = false;
  nn::Conv1d conv(opt, &rng);
  nn::Tensor x = RandomTensor({1, 2, 17}, &rng);
  EXPECT_LT(MaxAbsDiff(conv.Forward(x), conv.ForwardInference(x)), 1e-5);
}

TEST(GlobalAvgPoolInferenceTest, EightRowBlocksKeepEachRowsBits) {
  // ForwardInference sums eight rows at a time, each still one
  // left-to-right chain from zero, so every mean has the bits of a
  // one-row-at-a-time sum. Rows run over channels, then over samples.
  Rng rng(90);
  nn::GlobalAvgPool1d gap;
  for (int64_t rows = 1; rows <= 17; ++rows) {
    for (int64_t length : {37, 128}) {
      for (const bool by_channel : {true, false}) {
        SCOPED_TRACE("rows=" + std::to_string(rows) +
                     " L=" + std::to_string(length));
        const nn::Tensor x = RandomTensor(
            by_channel ? std::vector<int64_t>{1, rows, length}
                       : std::vector<int64_t>{rows, 1, length},
            &rng);
        const nn::Tensor got = gap.ForwardInference(x);
        ASSERT_EQ(got.numel(), rows);
        const float inv_l = 1.0f / static_cast<float>(length);
        for (int64_t r = 0; r < rows; ++r) {
          float acc = 0.0f;
          for (int64_t t = 0; t < length; ++t) acc += x.at(r * length + t);
          EXPECT_EQ(Bits(got.at(r)), Bits(acc * inv_l)) << "row " << r;
        }
      }
    }
  }
}

TEST(BatchNormInferenceTest, EvalModeAgreesWithForward) {
  Rng rng(7);
  nn::BatchNorm1d bn(4);
  // Drive the running statistics away from the identity first.
  bn.SetTraining(true);
  for (int step = 0; step < 5; ++step) {
    bn.Forward(RandomTensor({6, 4, 10}, &rng));
  }
  bn.SetTraining(false);
  nn::Tensor x = RandomTensor({3, 4, 10}, &rng);
  EXPECT_LT(MaxAbsDiff(bn.Forward(x), bn.ForwardInference(x)), 1e-5);
}

TEST(BatchNormInferenceTest, TrainingModeFallsBackToForward) {
  Rng rng(8);
  nn::BatchNorm1d reference(2);
  nn::BatchNorm1d inference(2);
  nn::Tensor x = RandomTensor({4, 2, 8}, &rng);
  reference.SetTraining(true);
  inference.SetTraining(true);
  nn::Tensor a = reference.Forward(x);
  nn::Tensor b = inference.ForwardInference(x);
  EXPECT_LT(MaxAbsDiff(a, b), 1e-6);
  // Running statistics must update on the fallback path too.
  EXPECT_LT(MaxAbsDiff(reference.running_mean(), inference.running_mean()),
            1e-6);
}

TEST(LinearInferenceTest, AgreesWithForward) {
  Rng rng(9);
  nn::Linear linear(6, 3, /*bias=*/true, &rng);
  nn::Tensor x = RandomTensor({5, 6}, &rng);
  EXPECT_LT(MaxAbsDiff(linear.Forward(x), linear.ForwardInference(x)), 1e-6);
}

TEST(SequentialInferenceTest, LeadingReluLeavesCallerTensorUnchanged) {
  // ForwardInference reads its input in place and clamps ReLUs in place,
  // so a leading ReLU must clamp a copy, never the caller's tensor.
  Rng rng(14);
  nn::Conv1dOptions opt;
  opt.in_channels = 2;
  opt.out_channels = 3;
  opt.kernel_size = 3;
  opt.padding = 1;
  nn::Sequential relu_conv;
  relu_conv.Add(std::make_unique<nn::ReLU>());
  relu_conv.Add(std::make_unique<nn::Conv1d>(opt, &rng));
  nn::Sequential relu_only;
  relu_only.Add(std::make_unique<nn::ReLU>());
  relu_conv.SetTraining(false);
  relu_only.SetTraining(false);
  const nn::Tensor x = RandomTensor({2, 2, 9}, &rng);
  const nn::Tensor before = x;
  nn::Tensor clamped = relu_only.ForwardInference(x);
  nn::Tensor conv_out = relu_conv.ForwardInference(x);
  bool any_negative = false;
  for (int64_t i = 0; i < x.numel(); ++i) {
    any_negative = any_negative || before.at(i) < 0.0f;
    EXPECT_EQ(Bits(x.at(i)), Bits(before.at(i))) << "index " << i;
  }
  EXPECT_TRUE(any_negative);
  nn::Tensor reference = relu_only.Forward(x);
  ASSERT_TRUE(clamped.SameShape(reference));
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(Bits(clamped.at(i)), Bits(reference.at(i))) << "index " << i;
  }
  EXPECT_LT(MaxAbsDiff(conv_out, relu_conv.Forward(x)), 1e-5);
}

TEST(ResNetInferenceTest, LogitsAgreeWithTrainingForward) {
  Rng rng(10);
  core::ResNetConfig config;
  config.base_filters = 8;
  config.kernel_size = 7;
  core::ResNetClassifier model(config, &rng);
  model.SetTraining(false);
  nn::Tensor x = RandomTensor({4, 1, 32}, &rng);
  nn::Tensor slow = model.Forward(x);
  nn::Tensor slow_features = model.feature_maps();
  nn::Tensor fast = model.ForwardInference(x);
  EXPECT_LT(MaxAbsDiff(slow, fast), 1e-4);
  // CAM extraction depends on the cached feature maps matching too.
  EXPECT_LT(MaxAbsDiff(slow_features, model.feature_maps()), 1e-4);
}

// Moves every BatchNorm's running statistics off their (0, 1) start with
// three training-mode forwards, so eval mode is more than an identity.
void WarmBatchNorm(core::CamBackbone* model, int64_t length, Rng* rng) {
  model->SetTraining(true);
  for (int i = 0; i < 3; ++i) model->Forward(RandomTensor({4, 1, length}, rng));
  model->SetTraining(false);
}

void ExpectSameBits(const nn::Tensor& got, const nn::Tensor& want) {
  ASSERT_TRUE(got.SameShape(want))
      << got.ShapeString() << " vs " << want.ShapeString();
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(got.numel())),
            0);
}

TEST(ResNetInferenceTest, ConstInferEqualsForwardInferenceBitwise) {
  // Serving runs the const Infer into caller-owned feature maps;
  // ForwardInference is the same chain into feature_maps().
  Rng rng(14);
  core::ResNetConfig config;
  config.base_filters = 8;
  config.kernel_size = 9;
  core::ResNetClassifier model(config, &rng);
  WarmBatchNorm(&model, 40, &rng);
  const nn::Tensor x = RandomTensor({5, 1, 40}, &rng);
  nn::Tensor maps;
  const core::CamBackbone& frozen = model;
  const nn::Tensor logits = frozen.Infer(x, &maps);
  ExpectSameBits(logits, model.ForwardInference(x));
  ExpectSameBits(maps, model.feature_maps());
}

TEST(ResNetInferenceTest, BatchedInferEqualsEachWindowsOwnBitwise) {
  // Every window of a batch runs the same per-sample conv steps, GAP rows
  // and head row as it does alone, so batch composition changes no bit of
  // the logits or the maps: what coalesced serving relies on. L = 37
  // leaves partial tiles; L = 128 is the served window.
  constexpr int64_t kBatch = 7;
  for (const auto& [filters, length] :
       {std::pair<int64_t, int64_t>{8, 37}, {16, 128}}) {
    SCOPED_TRACE("f=" + std::to_string(filters) +
                 " L=" + std::to_string(length));
    Rng rng(static_cast<uint64_t>(40 + filters));
    core::ResNetConfig config;
    config.base_filters = filters;
    config.kernel_size = 9;
    core::ResNetClassifier model(config, &rng);
    WarmBatchNorm(&model, length, &rng);
    const core::CamBackbone& frozen = model;
    const nn::Tensor x = RandomTensor({kBatch, 1, length}, &rng);
    nn::Tensor maps;
    const nn::Tensor logits = frozen.Infer(x, &maps);
    ASSERT_EQ(maps.dim(0), kBatch);
    const int64_t per_window = maps.numel() / kBatch;
    for (int64_t i = 0; i < kBatch; ++i) {
      nn::Tensor window({1, 1, length});
      std::copy_n(x.data() + i * length, length, window.data());
      nn::Tensor window_maps;
      const nn::Tensor window_logits = frozen.Infer(window, &window_maps);
      ASSERT_EQ(window_logits.numel(), 2);
      ASSERT_EQ(window_maps.numel(), per_window);
      EXPECT_EQ(std::memcmp(window_logits.data(), logits.data() + i * 2,
                            2 * sizeof(float)),
                0)
          << "logits of window " << i;
      EXPECT_EQ(std::memcmp(window_maps.data(), maps.data() + i * per_window,
                            sizeof(float) * static_cast<size_t>(per_window)),
                0)
          << "maps of window " << i;
    }
  }
}

// Row r of \p got must hold \p want's row r bit for bit when r is in
// [b, e), and the NaN sentinel it was filled with everywhere else.
void ExpectRowsOf(const nn::Tensor& got, const nn::Tensor& want, int64_t b,
                  int64_t e, float sentinel) {
  ASSERT_TRUE(got.SameShape(want))
      << got.ShapeString() << " vs " << want.ShapeString();
  const int64_t row = want.numel() / want.dim(0);
  for (int64_t r = 0; r < want.dim(0); ++r) {
    const float* g = got.data() + r * row;
    if (r >= b && r < e) {
      EXPECT_EQ(std::memcmp(g, want.data() + r * row,
                            sizeof(float) * static_cast<size_t>(row)),
                0)
          << "row " << r;
      continue;
    }
    int64_t written = 0;
    for (int64_t i = 0; i < row; ++i) written += Bits(g[i]) != Bits(sentinel);
    EXPECT_EQ(written, 0) << "row " << r << " lies outside the range";
  }
}

// InferRows over every row range [b, e) of a batch of five: those rows
// of the logits, maps and class-1 CAM must equal the whole batch's
// forward (the CAM: ComputeCamInto over its maps) bit for bit, with maps
// and without, and no other row may be written.
void ExpectEveryRowRangeMatches(const core::CamBackbone& model,
                                int64_t length, Rng* rng) {
  constexpr int64_t kBatch = 5;
  const float sentinel = std::numeric_limits<float>::quiet_NaN();
  const nn::Tensor x = RandomTensor({kBatch, 1, length}, rng);
  nn::Tensor want_maps, want_cam;
  const nn::Tensor want = model.Infer(x, &want_maps);
  core::ComputeCamInto(want_maps, model.head_weights(), 1, &want_cam);
  for (int64_t b = 0; b < kBatch; ++b) {
    for (int64_t e = b + 1; e <= kBatch; ++e) {
      SCOPED_TRACE(testing::Message() << "rows [" << b << ", " << e << ")");
      nn::Tensor logits = nn::Tensor::Full(want.shape(), sentinel);
      nn::Tensor maps = nn::Tensor::Full(want_maps.shape(), sentinel);
      nn::Tensor cam = nn::Tensor::Full(want_cam.shape(), sentinel);
      model.InferRows(x, b, e, &logits, &maps, &cam);
      ExpectRowsOf(logits, want, b, e, sentinel);
      ExpectRowsOf(maps, want_maps, b, e, sentinel);
      ExpectRowsOf(cam, want_cam, b, e, sentinel);
      logits.Fill(sentinel);
      cam.Fill(sentinel);
      model.InferRows(x, b, e, &logits, nullptr, &cam);
      ExpectRowsOf(logits, want, b, e, sentinel);
      ExpectRowsOf(cam, want_cam, b, e, sentinel);
      logits.Fill(sentinel);
      model.InferRows(x, b, e, &logits, nullptr, nullptr);
      ExpectRowsOf(logits, want, b, e, sentinel);
    }
  }
}

TEST(BackboneRowsTest, EveryRowRangeEqualsTheBatchedForwardsRows) {
  // InferRows is the one serving entry, and lanes fill disjoint rows of
  // shared tensors through it: the localizer's CAMs come from its CAM
  // output. L = 37 leaves partial conv tiles; L = 128 is the served
  // window.
  Rng rng(60);
  for (const auto& [filters, length] :
       {std::pair<int64_t, int64_t>{8, 37}, {16, 128}}) {
    SCOPED_TRACE("resnet f=" + std::to_string(filters));
    core::ResNetConfig config;
    config.base_filters = filters;
    config.kernel_size = 9;
    core::ResNetClassifier model(config, &rng);
    WarmBatchNorm(&model, length, &rng);
    ExpectEveryRowRangeMatches(model, length, &rng);
  }
  SCOPED_TRACE("inception");
  core::InceptionConfig config;
  config.kernel_size = 5;
  config.base_filters = 4;
  config.depth = 2;
  core::InceptionClassifier model(config, &rng);
  WarmBatchNorm(&model, 37, &rng);
  ExpectEveryRowRangeMatches(model, 37, &rng);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CAMAL_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CAMAL_TEST_SANITIZED 1
#endif
#endif

// The served ensemble's shape: three ResNet members, f=16,
// k in {5, 9, 15}, warmed BatchNorm. Unused where both of its tests
// skip at compile time.
[[maybe_unused]] core::CamalEnsemble ServedShapeEnsemble(Rng* rng) {
  std::vector<core::EnsembleMember> members;
  for (int64_t k : {5, 9, 15}) {
    core::ResNetConfig config;
    config.base_filters = 16;
    config.kernel_size = k;
    core::EnsembleMember member;
    member.model = std::make_unique<core::ResNetClassifier>(config, rng);
    WarmBatchNorm(member.model.get(), 128, rng);
    member.kernel_size = k;
    members.push_back(std::move(member));
  }
  return core::CamalEnsemble::FromMembers(std::move(members));
}

TEST(ResNetInferenceTest, SteadyStateForwardsReuseStorageAndTakeNoFaults) {
#if !defined(__linux__) || defined(CAMAL_TEST_SANITIZED)
  GTEST_SKIP() << "needs Linux per-thread fault counts, without a sanitizer";
#else
  // After warm-up a one-thread batch-32 ensemble forward reuses its
  // thread's arena slots and the caller's maps, so it allocates no large
  // buffer and glibc has no freed heap to trim and fault back in. A lane
  // pass (spare 3) sizes the members' maps and logits once, before its
  // lanes start, and each lane runs one-window items over its own arena,
  // so repeated lane passes take no fault on the calling thread (a
  // serving worker, budget 1) either. The maps are 512 KiB each: storage
  // given back on a pass would be unmapped and faulted in again.
  ParallelBudgetScope one_thread(1);
  Rng rng(81);
  const core::CamalEnsemble ensemble = ServedShapeEnsemble(&rng);
  const nn::Tensor x = RandomTensor({32, 1, 128}, &rng);
  auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_THREAD, &usage);
    return usage.ru_minflt;
  };
  for (int spare : {0, 3}) {
    SCOPED_TRACE("spare " + std::to_string(spare));
    std::vector<nn::Tensor> maps;
    for (int i = 0; i < 5; ++i) {
      ensemble.DetectProbabilityBatched(x, &maps, spare);
      ensemble.DetectProbabilityBatched(x, nullptr, spare);
    }
    std::vector<const float*> storage;
    for (const nn::Tensor& m : maps) storage.push_back(m.data());
    const long before = minor_faults();
    for (int i = 0; i < 5; ++i) {
      ensemble.DetectProbabilityBatched(x, &maps, spare);
      ensemble.DetectProbabilityBatched(x, nullptr, spare);
    }
    const long faults = minor_faults() - before;
    ASSERT_EQ(maps.size(), storage.size());
    for (size_t m = 0; m < maps.size(); ++m) {
      EXPECT_EQ(maps[m].data(), storage[m]) << "member " << m;
    }
    EXPECT_EQ(faults, 0) << "minor faults over ten steady-state passes";
  }
#endif
}

TEST(ResNetInferenceTest, SmallForwardGivesBackABigBatchsStorage) {
#if !defined(__GLIBC__) || defined(CAMAL_TEST_SANITIZED)
  GTEST_SKIP() << "needs glibc's malloc statistics, without a sanitizer";
#else
  // Arena slots and the caller's maps keep their storage only while a
  // forward needs at least a quarter of it, so a one-window forward after
  // a 32-window one gives back the three maps and this thread's two
  // working slots: 5 x 512 KiB (32 windows x 32 channels x 128 floats).
  ParallelBudgetScope one_thread(1);
  Rng rng(82);
  const core::CamalEnsemble ensemble = ServedShapeEnsemble(&rng);
  auto bytes_in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return static_cast<int64_t>(info.uordblks + info.hblkhd);
  };
  std::vector<nn::Tensor> maps;
  ensemble.DetectProbabilityBatched(RandomTensor({32, 1, 128}, &rng), &maps);
  const int64_t big = bytes_in_use();
  ensemble.DetectProbabilityBatched(RandomTensor({1, 1, 128}, &rng), &maps);
  const int64_t small = bytes_in_use();
  EXPECT_GT(big - small, int64_t{4} * 512 * 1024)
      << "bytes in use after a 32-window forward: " << big
      << ", after a 1-window forward: " << small;
#endif
}

TEST(InceptionInferenceTest, ConstInferAgreesWithEvalForward) {
  // Inception serves through its layers' inference kernels (fused
  // conv+BN shortcut, BatchNorm as one affine), so it agrees with the
  // caching eval-mode Forward to float rounding.
  for (int64_t depth : {2, 3}) {
    Rng rng(static_cast<uint64_t>(20 + depth));
    core::InceptionConfig config;
    config.kernel_size = 5;
    config.base_filters = 4;
    config.depth = depth;
    core::InceptionClassifier model(config, &rng);
    WarmBatchNorm(&model, 32, &rng);
    const nn::Tensor x = RandomTensor({4, 1, 32}, &rng);
    nn::Tensor maps;
    const core::CamBackbone& frozen = model;
    const nn::Tensor logits = frozen.Infer(x, &maps);
    const nn::Tensor reference = model.Forward(x);
    ASSERT_TRUE(logits.SameShape(reference)) << "depth " << depth;
    EXPECT_LT(MaxAbsDiff(logits, reference), 1e-4) << "depth " << depth;
    ASSERT_TRUE(maps.SameShape(model.feature_maps())) << "depth " << depth;
    EXPECT_LT(MaxAbsDiff(maps, model.feature_maps()), 1e-4)
        << "depth " << depth;
  }
}

TEST(ResNetInferenceTest, BatchedMatchesSingleWindowLoop) {
  Rng rng(12);
  core::ResNetConfig config;
  config.base_filters = 8;
  core::ResNetClassifier model(config, &rng);
  model.SetTraining(false);
  const int64_t n = 6, l = 32;
  nn::Tensor batch = RandomTensor({n, 1, l}, &rng);
  nn::Tensor batched = model.ForwardInference(batch);
  for (int64_t i = 0; i < n; ++i) {
    nn::Tensor window({1, 1, l});
    for (int64_t t = 0; t < l; ++t) window.at3(0, 0, t) = batch.at3(i, 0, t);
    nn::Tensor single = model.Forward(window);
    for (int64_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(single.at2(0, c), batched.at2(i, c), 1e-4)
          << "window " << i << " class " << c;
    }
  }
}

TEST(EnsembleInferenceTest, BatchedProbabilityMatchesTrainingPath) {
  Rng rng(13);
  std::vector<core::EnsembleMember> members;
  for (int64_t k : {5, 9}) {
    core::ResNetConfig config;
    config.base_filters = 4;
    config.kernel_size = k;
    core::EnsembleMember member;
    member.model = std::make_unique<core::ResNetClassifier>(config, &rng);
    member.kernel_size = k;
    members.push_back(std::move(member));
  }
  core::CamalEnsemble ensemble =
      core::CamalEnsemble::FromMembers(std::move(members));
  nn::Tensor x = RandomTensor({8, 1, 24}, &rng);
  nn::Tensor reference = ensemble.DetectProbability(x);
  nn::Tensor batched = ensemble.DetectProbabilityBatched(x);
  EXPECT_LT(MaxAbsDiff(reference, batched), 1e-4);
}

TEST(EnsembleInferenceTest, MemberLanesKeepTheBits) {
  // With spare cores the pass runs (member, window) items as parallel
  // lanes, the costliest member's windows first. Each item writes only its
  // window's rows of its member's logits, maps and CAM, and the mean is
  // still summed in member order, so every spare count (0 included) must
  // reproduce the members' own whole-batch forwards, averaged in member
  // order, byte for byte, maps and CAMs (ComputeCamInto over the maps)
  // included. The costliest member (k = 15) is
  // registered in the middle, so lanes start members out of member order,
  // and the batches give item counts (3 to 96) the lane count does not
  // always divide.
  constexpr int64_t kLength = 128;
  for (const bool resnet : {true, false}) {
    SCOPED_TRACE(resnet ? "resnet" : "inception");
    Rng rng(resnet ? 30 : 31);
    std::vector<core::EnsembleMember> members;
    for (int64_t k : {5, 15, 9}) {
      core::EnsembleMember member;
      if (resnet) {
        core::ResNetConfig config;
        config.base_filters = 16;
        config.kernel_size = k;
        member.model = std::make_unique<core::ResNetClassifier>(config, &rng);
      } else {
        core::InceptionConfig config;
        config.kernel_size = k;
        config.base_filters = 4;
        config.depth = 2;
        member.model =
            std::make_unique<core::InceptionClassifier>(config, &rng);
      }
      WarmBatchNorm(member.model.get(), kLength, &rng);
      member.kernel_size = k;
      members.push_back(std::move(member));
    }
    const core::CamalEnsemble ensemble =
        core::CamalEnsemble::FromMembers(std::move(members));
    for (int64_t batch : {1, 2, 3, 5, 7, 32}) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      const nn::Tensor x = RandomTensor({batch, 1, kLength}, &rng);
      // The oracle: each member's forward in member order, then the mean
      // class-1 probability summed in that order.
      std::vector<nn::Tensor> want_maps(ensemble.members().size());
      std::vector<nn::Tensor> want_cams(want_maps.size());
      nn::Tensor want({batch});
      for (size_t m = 0; m < want_maps.size(); ++m) {
        const core::CamBackbone& model = *ensemble.members()[m].model;
        const nn::Tensor p = nn::Softmax(model.Infer(x, &want_maps[m]));
        for (int64_t i = 0; i < batch; ++i) want.at(i) += p.at2(i, 1);
        core::ComputeCamInto(want_maps[m], model.head_weights(), 1,
                             &want_cams[m]);
      }
      want.ScaleInPlace(1.0f / static_cast<float>(want_maps.size()));
      for (int spare = 0; spare <= 3; ++spare) {
        SCOPED_TRACE("spare " + std::to_string(spare));
        std::vector<nn::Tensor> maps;
        ExpectSameBits(ensemble.DetectProbabilityBatched(x, &maps, spare),
                       want);
        ASSERT_EQ(maps.size(), want_maps.size());
        for (size_t m = 0; m < maps.size(); ++m) {
          ExpectSameBits(maps[m], want_maps[m]);
        }
        ExpectSameBits(ensemble.DetectProbabilityBatched(x, nullptr, spare),
                       want);
        std::vector<nn::Tensor> cams;
        ExpectSameBits(
            ensemble.DetectProbabilityBatched(x, nullptr, spare, &cams), want);
        ASSERT_EQ(cams.size(), want_cams.size());
        for (size_t m = 0; m < cams.size(); ++m) {
          ExpectSameBits(cams[m], want_cams[m]);
        }
      }
    }
  }
}

TEST(EnsembleInferenceTest, LaneItemsTakeTheCostliestMembersWindowsFirst) {
  // Three members, the costliest registered in the middle: a lane pass
  // must hand out every window of the costliest member first, in
  // ascending order, then the next member's, and each (member, window)
  // item exactly once.
  const std::vector<size_t> order = core::internal::CostOrder({27, 43, 35});
  ASSERT_EQ(order, (std::vector<size_t>{1, 2, 0}));
  EXPECT_EQ(core::internal::CostOrder({5, 9, 5}),
            (std::vector<size_t>{1, 0, 2}))
      << "equal costs keep member order";
  const size_t by_cost[] = {1, 2, 0};
  for (int64_t windows = 1; windows <= 7; ++windows) {
    SCOPED_TRACE("windows " + std::to_string(windows));
    const auto w = static_cast<size_t>(windows);
    std::vector<int> seen(3 * w, 0);
    for (int64_t k = 0; k < 3 * windows; ++k) {
      const core::internal::LaneItem item =
          core::internal::LaneItemAt(order, windows, k);
      EXPECT_EQ(item.member, by_cost[k / windows]) << "item " << k;
      EXPECT_EQ(item.window, k % windows) << "item " << k;
      ASSERT_LT(item.member, 3u);
      ASSERT_TRUE(item.window >= 0 && item.window < windows);
      ++seen[item.member * w + static_cast<size_t>(item.window)];
    }
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], 1) << "member " << i / w << " window " << i % w;
    }
  }
}

TEST(EnsembleInferenceTest, LocalizeKeepsTheBytesForEverySpare) {
  // The localizer takes its CAMs from the CAM rows the lanes write, so
  // its whole result must not move with spare, and its ensemble CAM must
  // be the one formed from the members' maps (ComputeCamInto, normalized,
  // averaged). Threshold 0 localizes every window, so the status depends
  // on every member's CAM.
  Rng rng(85);
  std::vector<core::EnsembleMember> members;
  for (int64_t k : {5, 15, 9}) {
    core::ResNetConfig config;
    config.base_filters = 8;
    config.kernel_size = k;
    core::EnsembleMember member;
    member.model = std::make_unique<core::ResNetClassifier>(config, &rng);
    WarmBatchNorm(member.model.get(), 64, &rng);
    member.kernel_size = k;
    members.push_back(std::move(member));
  }
  const core::CamalEnsemble ensemble =
      core::CamalEnsemble::FromMembers(std::move(members));
  core::LocalizerOptions options;
  options.detection_threshold = 0.0f;
  core::CamalLocalizer reference(&ensemble, options);
  core::CamalLocalizer localizer(&ensemble, options);
  for (int64_t batch : {1, 3, 7}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const nn::Tensor x = RandomTensor({batch, 1, 64}, &rng);
    const core::LocalizationResult want = reference.Localize(x);
    EXPECT_GT(want.status.Sum(), 0.0) << "no timestamp localized";
    std::vector<nn::Tensor> maps;
    ensemble.DetectProbabilityBatched(x, &maps);
    std::vector<nn::Tensor> cams(maps.size());
    for (size_t m = 0; m < maps.size(); ++m) {
      core::ComputeCamInto(maps[m], ensemble.members()[m].model->head_weights(),
                           1, &cams[m]);
      core::NormalizeCamByMaxInPlace(&cams[m]);
    }
    ExpectSameBits(want.ensemble_cam, core::AverageCams(cams));
    for (int spare = 0; spare <= 3; ++spare) {
      SCOPED_TRACE("spare " + std::to_string(spare));
      const core::LocalizationResult got = localizer.Localize(x, spare);
      ExpectSameBits(got.probabilities, want.probabilities);
      ExpectSameBits(got.ensemble_cam, want.ensemble_cam);
      ExpectSameBits(got.status, want.status);
    }
  }
}

}  // namespace
}  // namespace camal
