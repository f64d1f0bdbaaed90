#include "core/backbone.h"

namespace camal::core {

const char* BackboneKindName(BackboneKind kind) {
  switch (kind) {
    case BackboneKind::kResNet:
      return "resnet";
    case BackboneKind::kInception:
      return "inception";
  }
  return "unknown";
}

void CamBackbone::ResizeOutputs(const nn::Tensor& x, nn::Tensor* logits,
                                nn::Tensor* feature_maps) const {
  CAMAL_CHECK_EQ(x.ndim(), 3);
  const nn::Tensor& head = head_weights();  // (num_classes, K)
  logits->Resize({x.dim(0), head.dim(0)});
  if (feature_maps != nullptr) {
    feature_maps->Resize({x.dim(0), head.dim(1), x.dim(2)});
  }
}

nn::Tensor CamBackbone::Infer(const nn::Tensor& x,
                              nn::Tensor* feature_maps) const {
  nn::Tensor logits;
  ResizeOutputs(x, &logits, feature_maps);
  InferRows(x, 0, x.dim(0), &logits, feature_maps);
  return logits;
}

}  // namespace camal::core
