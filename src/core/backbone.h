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
  /// The serving forward: rows [\p begin, \p end) of x (N, C_in, L) into
  /// the same rows of \p logits (N, num_classes) and of each output that
  /// is not null: \p feature_maps, the pre-GAP maps (N, K, L), and \p cam,
  /// the class-1 CAM (N, L) formed from the maps this call just produced
  /// (core/cam.h's CamRows, so a row equals ComputeCamInto's bit for
  /// bit). A caller that wants CAMs needs no maps: they stay in the
  /// forward's own activations. The caller sizes every output
  /// (ResizeOutputs), and the call writes no other row, so threads may
  /// fill disjoint rows of the same tensors at once. A row's values do
  /// not depend on which rows share the call. Reads the model only, so
  /// threads may share it; needs eval mode (CamalEnsemble sets it), or
  /// BatchNorm would update its running statistics.
  virtual void InferRows(const nn::Tensor& x, int64_t begin, int64_t end,
                         nn::Tensor* logits, nn::Tensor* feature_maps,
                         nn::Tensor* cam) const = 0;

  /// Shapes \p logits and each non-null output of InferRows over x
  /// (Tensor::Resize, so storage is kept when it fits).
  void ResizeOutputs(const nn::Tensor& x, nn::Tensor* logits,
                     nn::Tensor* feature_maps, nn::Tensor* cam) const;

  /// InferRows over every row of x: returns the logits and writes the
  /// maps to \p feature_maps, reusing its storage, unless it is null.
  nn::Tensor Infer(const nn::Tensor& x, nn::Tensor* feature_maps) const;

  /// Feature maps (N, K, L) that fed the GAP in the last Forward call.
  virtual const nn::Tensor& feature_maps() const = 0;

  /// Linear head weights (num_classes, K).
  virtual const nn::Tensor& head_weights() const = 0;

  /// Which architecture this is (for ensemble manifests).
  virtual BackboneKind kind() const = 0;

  /// Width parameter used to reconstruct the architecture at load time.
  virtual int64_t base_filters() const = 0;

 protected:
  /// InferRows' CAM output: the class-1 CAM of \p rows samples' maps
  /// (rows, K, L) at \p maps into rows [begin, begin + rows) of \p cam,
  /// unless it is null.
  void CamRowsInto(const float* maps, int64_t begin, int64_t rows,
                   int64_t length, nn::Tensor* cam) const;
};

}  // namespace camal::core

#endif  // CAMAL_CORE_BACKBONE_H_
