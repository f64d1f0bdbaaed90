#include "nn/sequential.h"

#include <vector>

#include "nn/activations.h"
#include "nn/batchnorm1d.h"
#include "nn/conv1d.h"
#include "nn/pooling.h"

namespace camal::nn {

Tensor Sequential::Forward(const Tensor& x) {
  Tensor h = x;
  for (auto& layer : layers_) h = layer->Forward(h);
  return h;
}

Tensor Sequential::ForwardInference(const Tensor& x) {
  // Layers read the caller's tensor in place: `in` points at x until the
  // first layer output lands in h, which every later layer then replaces.
  Tensor h;
  const Tensor* in = &x;
  for (size_t i = 0; i < layers_.size();) {
    // ReLU runs in place on h (the training path must keep the
    // pre-activation for Backward; inference does not). Only a ReLU that
    // would clamp the caller's x copies it first.
    if (dynamic_cast<ReLU*>(layers_[i].get()) != nullptr) {
      if (in == &x) {
        h = x;
        in = &h;
      }
      float* d = h.data();
      for (int64_t j = 0; j < h.numel(); ++j) {
        if (d[j] < 0.0f) d[j] = 0.0f;
      }
      ++i;
      continue;
    }
    // Collapse Conv [-> BatchNorm(eval)] [-> ReLU]
    // [-> MaxPool/AvgPool(w, w)] into one fused pass: the BatchNorm
    // affine, the ReLU clamp, and the non-overlapping pool all ride in
    // the conv GEMM epilogue instead of re-streaming the activation
    // tensor once per layer — with a fused pool the full-size activation
    // never materializes at all.
    auto* conv = dynamic_cast<Conv1d*>(layers_[i].get());
    if (conv != nullptr) {
      size_t next = i + 1;
      std::vector<float> scale, shift;
      bool have_bn = false;
      if (next < layers_.size()) {
        auto* bn = dynamic_cast<BatchNorm1d*>(layers_[next].get());
        if (bn != nullptr && !bn->training()) {
          bn->FusedAffine(&scale, &shift);
          have_bn = true;
          ++next;
        }
      }
      bool fuse_relu = false;
      if (next < layers_.size() &&
          dynamic_cast<ReLU*>(layers_[next].get()) != nullptr) {
        fuse_relu = true;
        ++next;
      }
      ConvPool pool = ConvPool::kNone;
      int64_t pool_size = 1;
      if (next < layers_.size()) {
        if (auto* mp = dynamic_cast<MaxPool1d*>(layers_[next].get());
            mp != nullptr && mp->kernel() == mp->stride() &&
            mp->padding() == 0 && ConvGemmSupportsPool(mp->kernel())) {
          pool = ConvPool::kMax;
          pool_size = mp->kernel();
          ++next;
        } else if (auto* ap = dynamic_cast<AvgPool1d*>(layers_[next].get());
                   ap != nullptr && ap->kernel() == ap->stride() &&
                   ConvGemmSupportsPool(ap->kernel())) {
          pool = ConvPool::kAvg;
          pool_size = ap->kernel();
          ++next;
        }
      }
      if (have_bn || fuse_relu || pool != ConvPool::kNone) {
        h = conv->ForwardInferenceFused(
            *in, have_bn ? scale.data() : nullptr,
            have_bn ? shift.data() : nullptr, fuse_relu, pool, pool_size);
        in = &h;
        i = next;
        continue;
      }
    }
    h = layers_[i]->ForwardInference(*in);
    in = &h;
    ++i;
  }
  if (in == &x) return x;  // no layers
  return h;
}

Tensor Sequential::Backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

void Sequential::CollectParameters(std::vector<Parameter*>* out) {
  for (auto& layer : layers_) layer->CollectParameters(out);
}

void Sequential::CollectBuffers(std::vector<Tensor*>* out) {
  for (auto& layer : layers_) layer->CollectBuffers(out);
}

void Sequential::SetTraining(bool training) {
  Module::SetTraining(training);
  for (auto& layer : layers_) layer->SetTraining(training);
}

Residual::Residual(std::unique_ptr<Module> body,
                   std::unique_ptr<Module> shortcut)
    : body_(std::move(body)), shortcut_(std::move(shortcut)) {
  CAMAL_CHECK(body_ != nullptr);
}

Tensor Residual::Forward(const Tensor& x) {
  Tensor main = body_->Forward(x);
  Tensor skip = shortcut_ ? shortcut_->Forward(x) : x;
  CAMAL_CHECK_MSG(main.SameShape(skip),
                  "residual body/shortcut shape mismatch");
  return Add(main, skip);
}

Tensor Residual::Backward(const Tensor& grad_output) {
  Tensor g_body = body_->Backward(grad_output);
  Tensor g_skip =
      shortcut_ ? shortcut_->Backward(grad_output) : grad_output;
  return Add(g_body, g_skip);
}

void Residual::CollectParameters(std::vector<Parameter*>* out) {
  body_->CollectParameters(out);
  if (shortcut_) shortcut_->CollectParameters(out);
}

void Residual::CollectBuffers(std::vector<Tensor*>* out) {
  body_->CollectBuffers(out);
  if (shortcut_) shortcut_->CollectBuffers(out);
}

void Residual::SetTraining(bool training) {
  Module::SetTraining(training);
  body_->SetTraining(training);
  if (shortcut_) shortcut_->SetTraining(training);
}

}  // namespace camal::nn
