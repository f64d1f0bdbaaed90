#include "nn/conv1d.h"

#include <algorithm>
#include <vector>

#include "common/parallel_for.h"
#include "nn/gemm.h"
#include "nn/init.h"

namespace camal::nn {

Conv1d::Conv1d(const Conv1dOptions& options, Rng* rng) : options_(options) {
  CAMAL_CHECK_GT(options_.in_channels, 0);
  CAMAL_CHECK_GT(options_.out_channels, 0);
  CAMAL_CHECK_GT(options_.kernel_size, 0);
  CAMAL_CHECK_GT(options_.stride, 0);
  CAMAL_CHECK_GE(options_.padding, 0);
  CAMAL_CHECK_GT(options_.dilation, 0);
  weight_.name = "conv.weight";
  weight_.value = Tensor(
      {options_.out_channels, options_.in_channels, options_.kernel_size});
  weight_.grad = Tensor(weight_.value.shape());
  KaimingUniform(&weight_.value,
                 options_.in_channels * options_.kernel_size, rng);
  if (options_.bias) {
    bias_.name = "conv.bias";
    bias_.value = Tensor({options_.out_channels});
    bias_.grad = Tensor({options_.out_channels});
    KaimingUniform(&bias_.value, options_.in_channels * options_.kernel_size,
                   rng);
  }
}

int64_t Conv1d::OutputLength(int64_t input_length) const {
  const int64_t effective_k =
      options_.dilation * (options_.kernel_size - 1) + 1;
  return (input_length + 2 * options_.padding - effective_k) /
             options_.stride + 1;
}

Tensor Conv1d::Forward(const Tensor& x) {
  CAMAL_CHECK_EQ(x.ndim(), 3);
  CAMAL_CHECK_EQ(x.dim(1), options_.in_channels);
  input_ = x;
  const int64_t n = x.dim(0), cin = options_.in_channels, lin = x.dim(2);
  const int64_t cout = options_.out_channels, k = options_.kernel_size;
  const int64_t lout = OutputLength(lin);
  CAMAL_CHECK_GT(lout, 0);
  Tensor y({n, cout, lout});
  const int64_t stride = options_.stride, pad = options_.padding,
                dil = options_.dilation;

  ParallelFor(0, n * cout, [&](int64_t idx) {
    const int64_t ni = idx / cout;
    const int64_t co = idx % cout;
    float* out_row = y.data() + (ni * cout + co) * lout;
    if (options_.bias) {
      std::fill(out_row, out_row + lout, bias_.value.at(co));
    }
    for (int64_t ci = 0; ci < cin; ++ci) {
      const float* in_row = x.data() + (ni * cin + ci) * lin;
      const float* w_row = weight_.value.data() + (co * cin + ci) * k;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float w = w_row[kk];
        if (w == 0.0f) continue;
        const int64_t in_off = kk * dil - pad;
        // Valid output positions: 0 <= t*stride + in_off < lin.
        int64_t t0 = 0;
        if (in_off < 0) t0 = (-in_off + stride - 1) / stride;
        int64_t t1 = lout;
        if (in_off < lin) {
          t1 = std::min<int64_t>(lout, (lin - 1 - in_off) / stride + 1);
        } else {
          t1 = 0;
        }
        for (int64_t t = t0; t < t1; ++t) {
          out_row[t] += w * in_row[t * stride + in_off];
        }
      }
    }
  });
  return y;
}

Tensor Conv1d::RunBatched(const Tensor& x,
                          const ConvGemmParams& epilogue) const {
  CAMAL_CHECK_EQ(x.ndim(), 3);
  CAMAL_CHECK_EQ(x.dim(1), options_.in_channels);
  const bool pooled = epilogue.pool != ConvPool::kNone;
  if (pooled) CAMAL_CHECK(ConvGemmSupportsPool(epilogue.pool_size));
  const int64_t lpool =
      OutputLength(x.dim(2)) / (pooled ? epilogue.pool_size : 1);
  CAMAL_CHECK_GT(lpool, 0);
  Tensor y = Tensor::Uninitialized({x.dim(0), options_.out_channels, lpool});
  RunSamples(x.data(), x.dim(0), x.dim(2), epilogue, y.data());
  return y;
}

void Conv1d::RunSamples(const float* x, int64_t n, int64_t length,
                        ConvGemmParams epilogue, float* y) const {
  const int64_t cin = options_.in_channels, lin = length;
  const int64_t cout = options_.out_channels;
  const int64_t lout = OutputLength(lin);
  CAMAL_CHECK_GT(lout, 0);
  const int64_t pw =
      epilogue.pool == ConvPool::kNone ? 1 : epilogue.pool_size;
  const int64_t lpool = lout / pw;
  const int64_t pad = options_.padding;
  const int64_t lpad = lin + 2 * pad;
  const float* w = weight_.value.data();  // (cout, cin * k) row-major

  ConvGemmParams params = epilogue;
  params.cout = cout;
  params.cin = cin;
  params.kernel = options_.kernel_size;
  params.lpad = lpad;
  params.stride = options_.stride;
  params.dilation = options_.dilation;
  params.pool_size = pw;
  const float* residual = epilogue.residual;  // whole batch, laid out like y

  // Implicit im2col for every geometry: the conv GEMM samples the padded
  // input at stride/dilation offsets directly, so only an L1-sized
  // zero-padded copy of each sample is materialized — never the
  // (cin * k) x L_out column matrix.
  ParallelForChunked(0, n, [&](int64_t n_begin, int64_t n_end) {
    thread_local AlignedBuffer xpad;
    const float* sample_pad;
    if (pad == 0) {
      sample_pad = nullptr;  // read straight from x below
    } else {
      xpad.assign(static_cast<size_t>(cin * lpad), 0.0f);
    }
    ConvGemmParams sample_params = params;
    for (int64_t ni = n_begin; ni < n_end; ++ni) {
      const float* sample = x + ni * cin * lin;
      if (pad == 0) {
        sample_pad = sample;
      } else {
        for (int64_t ci = 0; ci < cin; ++ci) {
          std::copy(sample + ci * lin, sample + (ci + 1) * lin,
                    xpad.data() + ci * lpad + pad);
        }
        sample_pad = xpad.data();
      }
      if (residual != nullptr) {
        sample_params.residual = residual + ni * cout * lpool;
      }
      ConvGemmEpilogue(w, sample_pad, y + ni * cout * lpool, sample_params);
    }
  });
}

Tensor Conv1d::ForwardInference(const Tensor& x) {
  ConvGemmParams epilogue;
  epilogue.row_shift = options_.bias ? bias_.value.data() : nullptr;
  return RunBatched(x, epilogue);
}

Tensor Conv1d::ForwardInferenceFused(const Tensor& x,
                                     const float* channel_scale,
                                     const float* channel_shift,
                                     bool fuse_relu, ConvPool pool,
                                     int64_t pool_size) {
  ConvGemmParams epilogue;
  epilogue.row_scale = channel_scale;
  epilogue.row_shift = channel_shift;
  epilogue.relu = fuse_relu;
  epilogue.pool = pool;
  epilogue.pool_size = pool_size;
  if (!options_.bias) return RunBatched(x, epilogue);
  // Fold the conv bias into the shift: s * (conv + bias) + t.
  std::vector<float> shift(static_cast<size_t>(options_.out_channels));
  for (int64_t co = 0; co < options_.out_channels; ++co) {
    const float s = channel_scale != nullptr ? channel_scale[co] : 1.0f;
    const float t = channel_shift != nullptr ? channel_shift[co] : 0.0f;
    shift[static_cast<size_t>(co)] = s * bias_.value.at(co) + t;
  }
  epilogue.row_shift = shift.data();
  return RunBatched(x, epilogue);
}

void Conv1d::ForwardInferenceInto(const float* x, int64_t n, int64_t length,
                                  const float* channel_scale,
                                  const float* channel_shift, bool fuse_relu,
                                  const float* residual, float* y) const {
  CAMAL_CHECK(!options_.bias);
  ConvGemmParams epilogue;
  epilogue.row_scale = channel_scale;
  epilogue.row_shift = channel_shift;
  epilogue.relu = fuse_relu;
  epilogue.residual = residual;
  RunSamples(x, n, length, epilogue, y);
}

Tensor Conv1d::Backward(const Tensor& grad_output) {
  CAMAL_CHECK_EQ(grad_output.ndim(), 3);
  const int64_t n = input_.dim(0), cin = options_.in_channels,
                lin = input_.dim(2);
  const int64_t cout = options_.out_channels, k = options_.kernel_size;
  const int64_t lout = OutputLength(lin);
  CAMAL_CHECK_EQ(grad_output.dim(0), n);
  CAMAL_CHECK_EQ(grad_output.dim(1), cout);
  CAMAL_CHECK_EQ(grad_output.dim(2), lout);
  const int64_t stride = options_.stride, pad = options_.padding,
                dil = options_.dilation;

  // Parameter gradients: parallel over output channels (each channel's
  // weight slice is touched by exactly one worker).
  ParallelFor(0, cout, [&](int64_t co) {
    float* wg_base = weight_.grad.data() + co * cin * k;
    double bias_acc = 0.0;
    for (int64_t ni = 0; ni < n; ++ni) {
      const float* go_row = grad_output.data() + (ni * cout + co) * lout;
      for (int64_t ci = 0; ci < cin; ++ci) {
        const float* in_row = input_.data() + (ni * cin + ci) * lin;
        float* wg_row = wg_base + ci * k;
        for (int64_t kk = 0; kk < k; ++kk) {
          const int64_t in_off = kk * dil - pad;
          int64_t t0 = 0;
          if (in_off < 0) t0 = (-in_off + stride - 1) / stride;
          int64_t t1 = 0;
          if (in_off < lin) {
            t1 = std::min<int64_t>(lout, (lin - 1 - in_off) / stride + 1);
          }
          float acc = 0.0f;
          for (int64_t t = t0; t < t1; ++t) {
            acc += go_row[t] * in_row[t * stride + in_off];
          }
          wg_row[kk] += acc;
        }
      }
      if (options_.bias) {
        for (int64_t t = 0; t < lout; ++t) bias_acc += go_row[t];
      }
    }
    if (options_.bias) {
      bias_.grad.at(co) += static_cast<float>(bias_acc);
    }
  });

  // Input gradient: parallel over (batch x input-channel).
  Tensor grad_input({n, cin, lin});
  ParallelFor(0, n * cin, [&](int64_t idx) {
    const int64_t ni = idx / cin;
    const int64_t ci = idx % cin;
    float* gi_row = grad_input.data() + (ni * cin + ci) * lin;
    for (int64_t co = 0; co < cout; ++co) {
      const float* go_row = grad_output.data() + (ni * cout + co) * lout;
      const float* w_row = weight_.value.data() + (co * cin + ci) * k;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float w = w_row[kk];
        if (w == 0.0f) continue;
        const int64_t in_off = kk * dil - pad;
        int64_t t0 = 0;
        if (in_off < 0) t0 = (-in_off + stride - 1) / stride;
        int64_t t1 = 0;
        if (in_off < lin) {
          t1 = std::min<int64_t>(lout, (lin - 1 - in_off) / stride + 1);
        }
        for (int64_t t = t0; t < t1; ++t) {
          gi_row[t * stride + in_off] += w * go_row[t];
        }
      }
    }
  });
  return grad_input;
}

void Conv1d::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  if (options_.bias) out->push_back(&bias_);
}

}  // namespace camal::nn
