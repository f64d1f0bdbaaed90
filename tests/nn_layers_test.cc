#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.h"
#include "nn/batchnorm1d.h"
#include "nn/conv1d.h"
#include "nn/gru.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "nn/upsample.h"

namespace camal::nn {
namespace {

TEST(Conv1dTest, SamePaddingPreservesLength) {
  Rng rng(1);
  Conv1dOptions opt;
  opt.in_channels = 2;
  opt.out_channels = 3;
  opt.kernel_size = 5;
  opt.padding = opt.SamePadding();
  Conv1d conv(opt, &rng);
  Tensor x({4, 2, 17});
  Tensor y = conv.Forward(x);
  EXPECT_EQ(y.dim(0), 4);
  EXPECT_EQ(y.dim(1), 3);
  EXPECT_EQ(y.dim(2), 17);
}

TEST(Conv1dTest, IdentityKernelReproducesInput) {
  Rng rng(1);
  Conv1dOptions opt;
  opt.in_channels = 1;
  opt.out_channels = 1;
  opt.kernel_size = 1;
  Conv1d conv(opt, &rng);
  conv.weight().value.Fill(1.0f);
  conv.bias_param().value.Fill(0.0f);
  Tensor x({1, 1, 5});
  for (int64_t i = 0; i < 5; ++i) x.at3(0, 0, i) = static_cast<float>(i);
  Tensor y = conv.Forward(x);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_FLOAT_EQ(y.at3(0, 0, i), x.at3(0, 0, i));
  }
}

TEST(Conv1dTest, KnownConvolutionValues) {
  Rng rng(1);
  Conv1dOptions opt;
  opt.in_channels = 1;
  opt.out_channels = 1;
  opt.kernel_size = 3;
  opt.padding = 1;
  Conv1d conv(opt, &rng);
  // Moving-sum kernel.
  conv.weight().value.Fill(1.0f);
  conv.bias_param().value.Fill(0.0f);
  Tensor x({1, 1, 4});
  x.at3(0, 0, 0) = 1;
  x.at3(0, 0, 1) = 2;
  x.at3(0, 0, 2) = 3;
  x.at3(0, 0, 3) = 4;
  Tensor y = conv.Forward(x);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 0), 3.0f);   // 0+1+2
  EXPECT_FLOAT_EQ(y.at3(0, 0, 1), 6.0f);   // 1+2+3
  EXPECT_FLOAT_EQ(y.at3(0, 0, 2), 9.0f);   // 2+3+4
  EXPECT_FLOAT_EQ(y.at3(0, 0, 3), 7.0f);   // 3+4+0
}

TEST(Conv1dTest, StrideAndDilationOutputLength) {
  Rng rng(1);
  Conv1dOptions opt;
  opt.in_channels = 1;
  opt.out_channels = 1;
  opt.kernel_size = 3;
  opt.stride = 2;
  opt.dilation = 2;
  Conv1d conv(opt, &rng);
  // effective kernel = 5; L_out = (11 - 5)/2 + 1 = 4
  EXPECT_EQ(conv.OutputLength(11), 4);
  Tensor y = conv.Forward(Tensor({1, 1, 11}));
  EXPECT_EQ(y.dim(2), 4);
}

TEST(Conv1dTest, BiasAddsPerChannel) {
  Rng rng(1);
  Conv1dOptions opt;
  opt.in_channels = 1;
  opt.out_channels = 2;
  opt.kernel_size = 1;
  Conv1d conv(opt, &rng);
  conv.weight().value.Fill(0.0f);
  conv.bias_param().value.at(0) = 1.5f;
  conv.bias_param().value.at(1) = -2.0f;
  Tensor y = conv.Forward(Tensor({1, 1, 3}));
  EXPECT_FLOAT_EQ(y.at3(0, 0, 1), 1.5f);
  EXPECT_FLOAT_EQ(y.at3(0, 1, 2), -2.0f);
}

TEST(LinearTest, ComputesAffineMap) {
  Rng rng(1);
  Linear lin(2, 2, /*bias=*/true, &rng);
  lin.weight().value = Tensor::FromVector({1, 2, 3, 4}).Reshape({2, 2});
  lin.bias_param().value = Tensor::FromVector({10, 20});
  Tensor x = Tensor::FromVector({1, 1}).Reshape({1, 2});
  Tensor y = lin.Forward(x);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 13.0f);  // 1+2+10
  EXPECT_FLOAT_EQ(y.at2(0, 1), 27.0f);  // 3+4+20
}

TEST(ReluTest, ClampsNegativesForwardAndBackward) {
  ReLU relu;
  Tensor x = Tensor::FromVector({-1, 0, 2});
  Tensor y = relu.Forward(x);
  EXPECT_EQ(y.at(0), 0.0f);
  EXPECT_EQ(y.at(1), 0.0f);
  EXPECT_EQ(y.at(2), 2.0f);
  Tensor g = relu.Backward(Tensor::FromVector({1, 1, 1}));
  EXPECT_EQ(g.at(0), 0.0f);
  EXPECT_EQ(g.at(1), 0.0f);  // gradient at exactly 0 defined as 0
  EXPECT_EQ(g.at(2), 1.0f);
}

TEST(SigmoidTest, KnownValues) {
  Sigmoid sig;
  Tensor y = sig.Forward(Tensor::FromVector({0.0f}));
  EXPECT_FLOAT_EQ(y.at(0), 0.5f);
  EXPECT_NEAR(SigmoidScalar(2.0f), 0.880797f, 1e-5);
  EXPECT_NEAR(SigmoidScalar(-2.0f), 0.119203f, 1e-5);
}

TEST(TanhGeluTest, ForwardShapesAndRanges) {
  Tanh tanh_layer;
  Gelu gelu;
  Tensor x = Tensor::FromVector({-3, -1, 0, 1, 3});
  Tensor ty = tanh_layer.Forward(x);
  Tensor gy = gelu.Forward(x);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_LE(std::fabs(ty.at(i)), 1.0f);
  }
  EXPECT_FLOAT_EQ(gy.at(2), 0.0f);
  EXPECT_NEAR(gy.at(3), 0.8412f, 1e-3);  // GELU(1)
}

TEST(MaxPoolTest, SelectsMaximaAndRoutesGradient) {
  MaxPool1d pool(2, 2);
  Tensor x({1, 1, 6});
  float vals[] = {1, 5, 2, 2, 9, 3};
  for (int64_t i = 0; i < 6; ++i) x.at3(0, 0, i) = vals[i];
  Tensor y = pool.Forward(x);
  EXPECT_EQ(y.dim(2), 3);
  EXPECT_EQ(y.at3(0, 0, 0), 5.0f);
  EXPECT_EQ(y.at3(0, 0, 1), 2.0f);
  EXPECT_EQ(y.at3(0, 0, 2), 9.0f);
  Tensor g = pool.Backward(Tensor::Full({1, 1, 3}, 1.0f));
  EXPECT_EQ(g.at3(0, 0, 1), 1.0f);  // argmax of first window
  EXPECT_EQ(g.at3(0, 0, 0), 0.0f);
  EXPECT_EQ(g.at3(0, 0, 4), 1.0f);
}

TEST(AvgPoolTest, AveragesWindows) {
  AvgPool1d pool(3, 3);
  Tensor x({1, 1, 6});
  for (int64_t i = 0; i < 6; ++i) x.at3(0, 0, i) = static_cast<float>(i + 1);
  Tensor y = pool.Forward(x);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 1), 5.0f);
  Tensor g = pool.Backward(Tensor::Full({1, 1, 2}, 3.0f));
  EXPECT_FLOAT_EQ(g.at3(0, 0, 0), 1.0f);
}

TEST(GlobalAvgPoolTest, ReducesTemporalAxis) {
  GlobalAvgPool1d gap;
  Tensor x({2, 3, 4});
  x.Fill(2.0f);
  Tensor y = gap.Forward(x);
  EXPECT_EQ(y.ndim(), 2);
  EXPECT_EQ(y.dim(1), 3);
  EXPECT_FLOAT_EQ(y.at2(1, 2), 2.0f);
  Tensor g = gap.Backward(Tensor::Full({2, 3}, 4.0f));
  EXPECT_FLOAT_EQ(g.at3(0, 0, 0), 1.0f);  // 4 / L
}

TEST(BatchNormTest, NormalizesBatchStatistics) {
  BatchNorm1d bn(1);
  bn.SetTraining(true);
  Tensor x({2, 1, 2});
  x.at3(0, 0, 0) = 1;
  x.at3(0, 0, 1) = 2;
  x.at3(1, 0, 0) = 3;
  x.at3(1, 0, 1) = 4;
  Tensor y = bn.Forward(x);
  double mean = 0.0, var = 0.0;
  for (int64_t i = 0; i < 4; ++i) mean += y.at(i);
  mean /= 4;
  for (int64_t i = 0; i < 4; ++i) var += (y.at(i) - mean) * (y.at(i) - mean);
  var /= 4;
  EXPECT_NEAR(mean, 0.0, 1e-5);
  EXPECT_NEAR(var, 1.0, 1e-3);
}

TEST(BatchNormTest, EvalModeUsesRunningStats) {
  BatchNorm1d bn(1, 1e-5f, /*momentum=*/1.0f);  // running <- batch exactly
  bn.SetTraining(true);
  Tensor x({1, 1, 4});
  for (int64_t i = 0; i < 4; ++i) x.at3(0, 0, i) = static_cast<float>(i);
  bn.Forward(x);
  EXPECT_NEAR(bn.running_mean().at(0), 1.5f, 1e-5);
  bn.SetTraining(false);
  Tensor y = bn.Forward(Tensor::Full({1, 1, 2}, 1.5f));
  EXPECT_NEAR(y.at3(0, 0, 0), 0.0f, 1e-4);
}

TEST(LayerNormTest, NormalizesAcrossFeatures) {
  LayerNorm ln(4);
  Tensor x({1, 4, 1});
  for (int64_t j = 0; j < 4; ++j) x.at3(0, j, 0) = static_cast<float>(j);
  Tensor y = ln.Forward(x);
  double mean = 0.0;
  for (int64_t j = 0; j < 4; ++j) mean += y.at3(0, j, 0);
  EXPECT_NEAR(mean / 4.0, 0.0, 1e-5);
}

TEST(UpsampleTest, NearestRepeatsValues) {
  UpsampleNearest1d up(3);
  Tensor x({1, 1, 2});
  x.at3(0, 0, 0) = 1.0f;
  x.at3(0, 0, 1) = 2.0f;
  Tensor y = up.Forward(x);
  EXPECT_EQ(y.dim(2), 6);
  EXPECT_EQ(y.at3(0, 0, 2), 1.0f);
  EXPECT_EQ(y.at3(0, 0, 3), 2.0f);
  Tensor g = up.Backward(Tensor::Full({1, 1, 6}, 1.0f));
  EXPECT_EQ(g.at3(0, 0, 0), 3.0f);
}

TEST(ResizeTest, RestoresTargetLength) {
  ResizeNearest1d resize(7);
  Tensor x({1, 2, 3});
  for (int64_t i = 0; i < x.numel(); ++i) x.at(i) = static_cast<float>(i);
  Tensor y = resize.Forward(x);
  EXPECT_EQ(y.dim(2), 7);
  Tensor g = resize.Backward(Tensor::Full({1, 2, 7}, 1.0f));
  EXPECT_EQ(g.dim(2), 3);
  // Total gradient mass is conserved.
  EXPECT_DOUBLE_EQ(g.Sum(), 14.0);
}

TEST(SequentialTest, ChainsLayers) {
  Rng rng(1);
  Sequential seq;
  Conv1dOptions opt;
  opt.in_channels = 1;
  opt.out_channels = 2;
  opt.kernel_size = 3;
  opt.padding = 1;
  seq.Add(std::make_unique<Conv1d>(opt, &rng));
  seq.Add(std::make_unique<ReLU>());
  Tensor y = seq.Forward(Tensor({2, 1, 8}));
  EXPECT_EQ(y.dim(1), 2);
  EXPECT_EQ(y.dim(2), 8);
  EXPECT_EQ(seq.size(), 2u);
}

TEST(ResidualTest, IdentityShortcutAdds) {
  Rng rng(1);
  auto body = std::make_unique<Sequential>();
  Conv1dOptions opt;
  opt.in_channels = 2;
  opt.out_channels = 2;
  opt.kernel_size = 1;
  auto conv = std::make_unique<Conv1d>(opt, &rng);
  conv->weight().value.Fill(0.0f);
  conv->bias_param().value.Fill(0.0f);
  body->Add(std::move(conv));
  Residual res(std::move(body), nullptr);
  Tensor x = Tensor::Full({1, 2, 3}, 5.0f);
  Tensor y = res.Forward(x);
  // Zero body + identity shortcut = input.
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y.at(i), 5.0f);
}

TEST(GruTest, OutputShapeAndBoundedness) {
  Rng rng(3);
  Gru gru(2, 4, /*reverse=*/false, &rng);
  Tensor x({3, 2, 7});
  for (int64_t i = 0; i < x.numel(); ++i) {
    x.at(i) = static_cast<float>(i % 5) - 2;
  }
  Tensor y = gru.Forward(x);
  EXPECT_EQ(y.dim(0), 3);
  EXPECT_EQ(y.dim(1), 4);
  EXPECT_EQ(y.dim(2), 7);
  // GRU hidden state is a convex-ish combination of tanh outputs: |h| <= 1.
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_LE(std::fabs(y.at(i)), 1.0f);
}

TEST(GruTest, ReverseDirectionDiffersFromForward) {
  Rng rng(3);
  Gru fwd(1, 2, false, &rng);
  Rng rng2(3);
  Gru bwd(1, 2, true, &rng2);  // identical weights, reversed scan
  Tensor x({1, 1, 5});
  for (int64_t i = 0; i < 5; ++i) x.at3(0, 0, i) = static_cast<float>(i);
  Tensor yf = fwd.Forward(x);
  Tensor yb = bwd.Forward(x);
  bool differ = false;
  for (int64_t i = 0; i < yf.numel(); ++i) {
    if (std::fabs(yf.at(i) - yb.at(i)) > 1e-6) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(BiGruTest, ConcatenatesDirections) {
  Rng rng(4);
  BiGru bigru(2, 3, &rng);
  Tensor x({2, 2, 5});
  Tensor y = bigru.Forward(x);
  EXPECT_EQ(y.dim(1), 6);
  EXPECT_EQ(y.dim(2), 5);
}

TEST(ModuleTest, NumParametersCounts) {
  Rng rng(1);
  Linear lin(10, 4, /*bias=*/true, &rng);
  EXPECT_EQ(lin.NumParameters(), 44);
  Linear no_bias(10, 4, /*bias=*/false, &rng);
  EXPECT_EQ(no_bias.NumParameters(), 40);
}

TEST(ModuleTest, ZeroGradClearsGradients) {
  Rng rng(1);
  Linear lin(3, 2, true, &rng);
  Tensor x({2, 3});
  lin.Forward(x);
  lin.Backward(Tensor::Full({2, 2}, 1.0f));
  lin.ZeroGrad();
  for (auto* p : lin.Parameters()) {
    for (int64_t i = 0; i < p->grad.numel(); ++i) {
      EXPECT_EQ(p->grad.at(i), 0.0f);
    }
  }
}

}  // namespace
}  // namespace camal::nn
