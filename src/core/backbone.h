#ifndef CAMAL_CORE_BACKBONE_H_
#define CAMAL_CORE_BACKBONE_H_

#include "nn/module.h"

namespace camal::core {

/// Classifier backbones usable inside the CamAL ensemble.
enum class BackboneKind {
  kResNet,     ///< the paper's choice (Fig. 4)
  kInception,  ///< InceptionTime, discussed and rejected in §IV-A
};

/// Stable name for manifests ("resnet" / "inception").
const char* BackboneKindName(BackboneKind kind);

/// A CAM-compatible classifier: any network ending in Global Average
/// Pooling followed by a linear softmax head (the structural requirement
/// of Definition II.1). It exposes the pre-GAP feature maps and the head
/// weights so the localizer can form CAM_c(t) = sum_k w_kc f_k(t).
class CamBackbone : public nn::Module {
 public:
  /// Serving forward, (N, C_in, L) -> (N, num_classes) logits, writing the
  /// pre-GAP feature maps (N, K, L) to \p feature_maps unless it is null.
  /// Reads the model only, so threads may share it; needs eval mode
  /// (CamalEnsemble sets it), or BatchNorm would update its running
  /// statistics.
  virtual nn::Tensor Infer(const nn::Tensor& x,
                           nn::Tensor* feature_maps) const = 0;

  /// Feature maps (N, K, L) that fed the GAP in the last Forward call.
  virtual const nn::Tensor& feature_maps() const = 0;

  /// Linear head weights (num_classes, K).
  virtual const nn::Tensor& head_weights() const = 0;

  /// Which architecture this is (for ensemble manifests).
  virtual BackboneKind kind() const = 0;

  /// Width parameter used to reconstruct the architecture at load time.
  virtual int64_t base_filters() const = 0;
};

}  // namespace camal::core

#endif  // CAMAL_CORE_BACKBONE_H_
