#ifndef CAMAL_CORE_ENSEMBLE_H_
#define CAMAL_CORE_ENSEMBLE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/backbone.h"
#include "core/inception.h"
#include "core/resnet.h"
#include "data/dataset.h"

namespace camal::core {

/// Training hyper-parameters for one ResNet classifier (Problem 1).
struct ClassifierTrainConfig {
  int max_epochs = 12;
  int batch_size = 32;
  float lr = 1e-3f;
  float weight_decay = 0.0f;
  /// Early-stopping patience (epochs without val-sub improvement).
  int patience = 3;
};

/// Configuration of Algorithm 1 (CamAL ResNet ensemble training).
struct EnsembleConfig {
  /// Kernel grid K_p; the paper uses {5, 7, 9, 15, 25}.
  std::vector<int64_t> kernel_sizes = {5, 7, 9, 15, 25};
  /// Trials per kernel size (Algorithm 1 uses 3).
  int trials_per_kernel = 3;
  /// Ensemble size n: the n models with the lowest validation loss are kept.
  int ensemble_size = 5;
  /// Base filter count of each ResNet (paper: 64).
  int64_t base_filters = 64;
  /// Classifier architecture: the paper's ResNet by default; Inception is
  /// provided to test the §IV-A design choice (bench_ablation_backbone).
  BackboneKind backbone = BackboneKind::kResNet;
  ClassifierTrainConfig train;
};

/// One selected ensemble member with its selection score.
struct EnsembleMember {
  std::unique_ptr<CamBackbone> model;
  int64_t kernel_size = 0;
  double validation_loss = 0.0;
};

/// Trains one ResNet classifier on weak labels with softmax cross-entropy,
/// Adam, and early stopping monitored on \p val_sub (best-epoch weights are
/// restored). Returns the best val_sub loss.
double TrainClassifier(CamBackbone* model,
                       const data::WindowDataset& train_sub,
                       const data::WindowDataset& val_sub,
                       const ClassifierTrainConfig& config, Rng* rng);

/// Mean softmax cross-entropy of \p model on \p dataset (eval mode).
double EvaluateClassifierLoss(CamBackbone* model,
                              const data::WindowDataset& dataset);

/// The detection half of CamAL: an ensemble of ResNets with diverse
/// receptive fields, trained with Algorithm 1.
class CamalEnsemble {
 public:
  /// Algorithm 1: splits \p train 80/20 into train-sub/val-sub, trains
  /// trials_per_kernel ResNets per kernel size, scores every trained model
  /// on \p validation, and keeps the ensemble_size best.
  static Result<CamalEnsemble> Train(const data::WindowDataset& train,
                                     const data::WindowDataset& validation,
                                     const EnsembleConfig& config,
                                     uint64_t seed);

  /// Assembles an ensemble from already-trained members (used by
  /// LoadEnsemble and by ablation benches that subset a candidate pool).
  static CamalEnsemble FromMembers(std::vector<EnsembleMember> members) {
    return CamalEnsemble(std::move(members));
  }

  CamalEnsemble(CamalEnsemble&&) = default;
  CamalEnsemble& operator=(CamalEnsemble&&) = default;

  /// Ensemble detection probability (step 1 of §IV-B): the mean of member
  /// class-1 softmax probabilities, shape (N) for inputs (N, C, L).
  /// Member forward passes also cache the feature maps used for CAMs.
  nn::Tensor DetectProbability(const nn::Tensor& inputs);

  /// Same probability through each member's const serving forward
  /// (CamBackbone::InferRows: GEMM convolutions, fused BatchNorm, no
  /// caches); \p feature_maps, when set, gets the members' pre-GAP maps in
  /// member order. Reads the ensemble only, so threads may share it.
  /// Agrees with DetectProbability to float rounding.
  ///
  /// Each member's forward of each window is independent until the
  /// probabilities are averaged, so the pass runs min(members x windows,
  /// 1 + \p spare, NumThreads()) lanes. With more than one, the lanes
  /// (ParallelLanes, each forward with budget 1) claim (member, window)
  /// items from one cursor in cost order: every window of the costliest
  /// member first, then the next member's (internal::LaneItemAt), and
  /// each item writes its window's rows of that member's logits and maps
  /// in place. With one, each member runs the whole batch as one forward
  /// on the caller's budget. Pass the number of cores known to be idle
  /// (serve::Service passes its spare workers); the default 0 is one lane.
  /// A window's rows do not depend on which rows share its forward, and
  /// the probabilities are still summed in member order, so the result is
  /// bitwise the same for every \p spare.
  nn::Tensor DetectProbabilityBatched(
      const nn::Tensor& inputs, std::vector<nn::Tensor>* feature_maps = nullptr,
      int spare = 0) const;

  /// Mutable for reading weights; keep the member count: the cost order
  /// is fixed at construction (rebuild through FromMembers to subset).
  std::vector<EnsembleMember>& members() { return members_; }
  const std::vector<EnsembleMember>& members() const { return members_; }

  /// Total trainable parameters across members (Table II row).
  int64_t NumParameters() const;

 private:
  /// Every way to build an ensemble ends here: eval mode and the members'
  /// cost order, set once.
  explicit CamalEnsemble(std::vector<EnsembleMember> members);

  std::vector<EnsembleMember> members_;
  /// internal::CostOrder of the members' parameter counts.
  std::vector<size_t> cost_order_;
};

namespace internal {

/// Member indices by descending cost, member order among equals. The
/// ensemble passes parameter counts: a forward's conv FLOPs per position
/// scale with them, so a lane pass in this order starts the widest
/// member's windows first.
std::vector<size_t> CostOrder(const std::vector<int64_t>& cost);

/// A lane pass's work item: one member's forward of one window.
struct LaneItem {
  size_t member = 0;
  int64_t window = 0;
};

/// Item \p item in [0, members x \p windows) of a lane pass: the
/// \p windows windows of cost_order[0] in ascending order, then those of
/// cost_order[1], and so on.
LaneItem LaneItemAt(const std::vector<size_t>& cost_order, int64_t windows,
                    int64_t item);

}  // namespace internal

}  // namespace camal::core

#endif  // CAMAL_CORE_ENSEMBLE_H_
