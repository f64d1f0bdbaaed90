#include "core/backbone.h"

#include "core/cam.h"

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
                                nn::Tensor* feature_maps,
                                nn::Tensor* cam) const {
  CAMAL_CHECK_EQ(x.ndim(), 3);
  const nn::Tensor& head = head_weights();  // (num_classes, K)
  logits->Resize({x.dim(0), head.dim(0)});
  if (feature_maps != nullptr) {
    feature_maps->Resize({x.dim(0), head.dim(1), x.dim(2)});
  }
  if (cam != nullptr) cam->Resize({x.dim(0), x.dim(2)});
}

nn::Tensor CamBackbone::Infer(const nn::Tensor& x,
                              nn::Tensor* feature_maps) const {
  nn::Tensor logits;
  ResizeOutputs(x, &logits, feature_maps, nullptr);
  InferRows(x, 0, x.dim(0), &logits, feature_maps, nullptr);
  return logits;
}

void CamBackbone::CamRowsInto(const float* maps, int64_t begin, int64_t rows,
                              int64_t length, nn::Tensor* cam) const {
  if (cam == nullptr) return;
  CAMAL_CHECK(cam->ndim() == 2 && cam->dim(1) == length &&
              begin + rows <= cam->dim(0));
  CamRows(maps, rows, length, head_weights(), /*class_index=*/1,
          cam->data() + begin * length);
}

}  // namespace camal::core
