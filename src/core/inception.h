#ifndef CAMAL_CORE_INCEPTION_H_
#define CAMAL_CORE_INCEPTION_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/backbone.h"
#include "nn/activations.h"
#include "nn/batchnorm1d.h"
#include "nn/conv1d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace camal::core {

/// Configuration of the InceptionTime classifier.
struct InceptionConfig {
  /// Base kernel size k; each inception block runs parallel convolutions
  /// with kernels {k, 2k+1, 4k+3} (InceptionTime uses {10, 20, 40}).
  int64_t kernel_size = 9;
  /// Filters per branch; blocks output 4f channels (3 conv branches plus
  /// the maxpool-projection branch).
  int64_t base_filters = 8;
  int64_t input_channels = 1;
  int64_t num_classes = 2;
  int64_t depth = 3;  ///< inception blocks (one residual across all three)
};

/// InceptionTime (Fawaz et al. [37]) adapted as a CAM-compatible backbone:
/// `depth` inception blocks (bottleneck 1x1, three parallel convolutions
/// with multi-scale kernels, a maxpool+1x1 branch, concat, BN, ReLU) with a
/// projection residual across the stack, then GAP + linear head.
///
/// The paper's §IV-A argues ResNet is preferable (shallower, cheaper,
/// kernel-tunable); this class exists to test that design choice
/// empirically (bench_ablation_backbone).
class InceptionClassifier : public CamBackbone {
 public:
  InceptionClassifier(const InceptionConfig& config, Rng* rng);

  nn::Tensor Forward(const nn::Tensor& x) override;
  nn::Tensor Backward(const nn::Tensor& grad_output) override;
  /// Eval-mode forward through every layer's ForwardInference, no caches,
  /// over a copy of the rows; the results are copied into the caller's
  /// rows, and the CAM rows formed from the maps.
  void InferRows(const nn::Tensor& x, int64_t begin, int64_t end,
                 nn::Tensor* logits, nn::Tensor* feature_maps,
                 nn::Tensor* cam) const override;
  void CollectParameters(std::vector<nn::Parameter*>* out) override;
  void CollectBuffers(std::vector<nn::Tensor*>* out) override;
  void SetTraining(bool training) override;

  const nn::Tensor& feature_maps() const override { return feature_maps_; }
  const nn::Tensor& head_weights() const override;
  BackboneKind kind() const override { return BackboneKind::kInception; }
  int64_t base_filters() const override { return config_.base_filters; }

 private:
  struct Block {
    std::unique_ptr<nn::Conv1d> bottleneck;  // null for the first block
    std::vector<std::unique_ptr<nn::Conv1d>> branches;
    std::unique_ptr<nn::MaxPool1d> pool;
    std::unique_ptr<nn::Conv1d> pool_proj;
    std::unique_ptr<nn::BatchNorm1d> bn;
    std::unique_ptr<nn::ReLU> relu;
    // Cached branch inputs/outputs for backward routing.
    nn::Tensor bottleneck_out;
    std::vector<int64_t> concat_channels;
  };

  nn::Tensor ForwardBlock(Block* block, const nn::Tensor& x);
  nn::Tensor BackwardBlock(Block* block, const nn::Tensor& grad);
  nn::Tensor InferBlock(const Block& block, const nn::Tensor& x) const;

  InceptionConfig config_;
  std::vector<Block> blocks_;
  std::unique_ptr<nn::Sequential> shortcut_;  // conv1x1 + BN residual
  std::unique_ptr<nn::ReLU> final_relu_;
  std::unique_ptr<nn::GlobalAvgPool1d> gap_;
  nn::Linear* head_ = nullptr;
  std::unique_ptr<nn::Sequential> head_seq_;
  nn::Tensor feature_maps_;
  nn::Tensor residual_input_;
};

}  // namespace camal::core

#endif  // CAMAL_CORE_INCEPTION_H_
