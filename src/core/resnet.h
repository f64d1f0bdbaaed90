#ifndef CAMAL_CORE_RESNET_H_
#define CAMAL_CORE_RESNET_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/backbone.h"
#include "nn/batchnorm1d.h"
#include "nn/conv1d.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace camal::core {

/// Configuration of one CamAL ResNet member (Fig. 4 of the paper).
struct ResNetConfig {
  /// The per-member kernel size k_p; the first conv block of every residual
  /// unit uses this kernel, the remaining two use 5 and 3.
  int64_t kernel_size = 7;
  /// Filters of the first residual unit; units use {f, 2f, 2f}. The paper
  /// uses f = 64 (570K parameters); benches shrink this in fast modes.
  int64_t base_filters = 64;
  int64_t input_channels = 1;
  int64_t num_classes = 2;
};

/// The time-series ResNet classifier of Wang et al. adapted per Fig. 4:
/// three residual units (filters {f, 2f, 2f}), each made of three
/// Conv-BN-ReLU blocks with kernels {k_p, 5, 3} (the last block's ReLU is
/// applied after the shortcut addition), followed by Global Average Pooling
/// and a linear softmax head.
///
/// The pre-GAP feature maps are what the CAM is extracted from
/// (Definition II.1): CAM_c(t) = sum_k w_kc f_k(t).
class ResNetClassifier : public CamBackbone {
 public:
  ResNetClassifier(const ResNetConfig& config, Rng* rng);

  /// (N, C_in, L) -> (N, num_classes) logits.
  nn::Tensor Forward(const nn::Tensor& x) override;
  nn::Tensor Backward(const nn::Tensor& grad_output) override;

  /// Batched inference path: the plan compiled at construction, whose
  /// fused conv steps run over this thread's activation arena (see
  /// resnet.cc). The first step reads x's rows and the last writes the
  /// maps rows in place (\p feature_maps serves as its slot; it must not
  /// be \p x); GAP and the head write the logits rows. Needs eval mode.
  void InferRows(const nn::Tensor& x, int64_t begin, int64_t end,
                 nn::Tensor* logits, nn::Tensor* feature_maps) const override;
  /// Infer into feature_maps(), so CAM extraction works after it.
  nn::Tensor ForwardInference(const nn::Tensor& x) override;
  void CollectParameters(std::vector<nn::Parameter*>* out) override;
  void CollectBuffers(std::vector<nn::Tensor*>* out) override;
  void SetTraining(bool training) override;

  /// Feature maps (N, 2f, L) of the last Forward or ForwardInference.
  const nn::Tensor& feature_maps() const override { return feature_maps_; }

  /// Linear head weights (num_classes, 2f) — the w_kc of the CAM.
  const nn::Tensor& head_weights() const override;

  BackboneKind kind() const override { return BackboneKind::kResNet; }
  int64_t base_filters() const override { return config_.base_filters; }

 private:
  /// PlanStep slot values besides arena slots 0, 1, 2.
  static constexpr int kInput = -1;       ///< the caller's x
  static constexpr int kNoResidual = -2;  ///< the step adds none

  /// One step of the inference plan: conv -> BatchNorm affine [-> ReLU],
  /// or, closing a residual unit, conv -> BatchNorm affine -> + residual
  /// -> clamp, in one conv epilogue. in, residual and out name arena
  /// slots (or kInput / kNoResidual).
  struct PlanStep {
    const nn::Conv1d* conv = nullptr;
    const nn::BatchNorm1d* bn = nullptr;
    bool relu = false;
    int in = kInput;
    int residual = kNoResidual;
    int out = 0;
  };

  /// Appends one residual unit to body_ and its steps to plan_.
  void AddUnit(int64_t in_channels, int64_t out_channels, Rng* rng);

  ResNetConfig config_;
  std::unique_ptr<nn::Sequential> body_;  // residual units + ReLUs
  std::vector<PlanStep> plan_;
  std::unique_ptr<nn::GlobalAvgPool1d> gap_;
  nn::Linear* head_ = nullptr;            // owned by head_seq_
  std::unique_ptr<nn::Sequential> head_seq_;
  nn::Tensor feature_maps_;
};

}  // namespace camal::core

#endif  // CAMAL_CORE_RESNET_H_
