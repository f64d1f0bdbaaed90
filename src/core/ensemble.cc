#include "core/ensemble.h"

#include <algorithm>
#include <atomic>

#include "common/parallel_for.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace camal::core {
namespace {

// Builds the (B, C, L) batch tensor and label vector for rows
// [begin, end) of `order`.
void MakeBatch(const data::WindowDataset& ds,
               const std::vector<int64_t>& order, size_t begin, size_t end,
               nn::Tensor* inputs, std::vector<int>* labels) {
  const int64_t b = static_cast<int64_t>(end - begin);
  const int64_t l = ds.window_length;
  *inputs = nn::Tensor({b, 1, l});
  labels->clear();
  labels->reserve(static_cast<size_t>(b));
  for (size_t i = begin; i < end; ++i) {
    const int64_t src = order[i];
    for (int64_t t = 0; t < l; ++t) {
      inputs->at3(static_cast<int64_t>(i - begin), 0, t) =
          ds.inputs.at3(src, 0, t);
    }
    labels->push_back(ds.weak_labels[static_cast<size_t>(src)]);
  }
}

// Mean class-1 softmax probability over member logits (N, 2), summed in
// member order.
nn::Tensor MeanClassOneProbability(const std::vector<nn::Tensor>& logits) {
  CAMAL_CHECK(!logits.empty());
  const int64_t n = logits.front().dim(0);
  nn::Tensor prob({n});
  for (const nn::Tensor& member_logits : logits) {
    nn::Tensor p = nn::Softmax(member_logits);
    for (int64_t i = 0; i < n; ++i) prob.at(i) += p.at2(i, 1);
  }
  prob.ScaleInPlace(1.0f / static_cast<float>(logits.size()));
  return prob;
}

}  // namespace

double EvaluateClassifierLoss(CamBackbone* model,
                              const data::WindowDataset& dataset) {
  CAMAL_CHECK_GT(dataset.size(), 0);
  model->SetTraining(false);
  constexpr int64_t kEvalBatch = 64;
  double total = 0.0;
  std::vector<int64_t> order(static_cast<size_t>(dataset.size()));
  for (int64_t i = 0; i < dataset.size(); ++i) {
    order[static_cast<size_t>(i)] = i;
  }
  int64_t done = 0;
  while (done < dataset.size()) {
    const int64_t b = std::min<int64_t>(kEvalBatch, dataset.size() - done);
    nn::Tensor inputs;
    std::vector<int> labels;
    MakeBatch(dataset, order, static_cast<size_t>(done),
              static_cast<size_t>(done + b), &inputs, &labels);
    // Inference-only forward (fused conv GEMM, no backward caches):
    // agrees with eval-mode Forward to float rounding, so the epoch a
    // fixed-seed training run early-stops on is unchanged (pinned by
    // EnsembleTest.EarlyStoppingSelectionIsReproducible).
    nn::Tensor logits = model->ForwardInference(inputs);
    total += nn::SoftmaxCrossEntropy(logits, labels).value *
             static_cast<double>(b);
    done += b;
  }
  return total / static_cast<double>(dataset.size());
}

double TrainClassifier(CamBackbone* model,
                       const data::WindowDataset& train_sub,
                       const data::WindowDataset& val_sub,
                       const ClassifierTrainConfig& config, Rng* rng) {
  CAMAL_CHECK_GT(train_sub.size(), 0);
  CAMAL_CHECK_GT(val_sub.size(), 0);
  nn::Adam optimizer(model->Parameters(), config.lr, 0.9f, 0.999f, 1e-8f,
                     config.weight_decay);
  std::vector<int64_t> order(static_cast<size_t>(train_sub.size()));
  for (int64_t i = 0; i < train_sub.size(); ++i) {
    order[static_cast<size_t>(i)] = i;
  }

  double best_val = std::numeric_limits<double>::infinity();
  std::vector<nn::Tensor> best_params = nn::SnapshotParameters(model);
  int bad_epochs = 0;
  for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
    model->SetTraining(true);
    rng->Shuffle(&order);
    for (size_t begin = 0; begin < order.size();
         begin += static_cast<size_t>(config.batch_size)) {
      const size_t end = std::min(
          order.size(), begin + static_cast<size_t>(config.batch_size));
      nn::Tensor inputs;
      std::vector<int> labels;
      MakeBatch(train_sub, order, begin, end, &inputs, &labels);
      nn::Tensor logits = model->Forward(inputs);
      nn::LossResult loss = nn::SoftmaxCrossEntropy(logits, labels);
      optimizer.ZeroGrad();
      model->Backward(loss.grad);
      optimizer.Step();
    }
    const double val_loss = EvaluateClassifierLoss(model, val_sub);
    if (val_loss < best_val - 1e-6) {
      best_val = val_loss;
      best_params = nn::SnapshotParameters(model);
      bad_epochs = 0;
    } else if (++bad_epochs > config.patience) {
      break;
    }
  }
  nn::RestoreParameters(model, best_params);
  model->SetTraining(false);
  return best_val;
}

Result<CamalEnsemble> CamalEnsemble::Train(
    const data::WindowDataset& train, const data::WindowDataset& validation,
    const EnsembleConfig& config, uint64_t seed) {
  if (train.size() < 5) {
    return Status::FailedPrecondition("too few training windows");
  }
  if (validation.size() == 0) {
    return Status::FailedPrecondition("empty validation set");
  }
  if (config.kernel_sizes.empty() || config.trials_per_kernel < 1 ||
      config.ensemble_size < 1) {
    return Status::InvalidArgument("invalid ensemble configuration");
  }

  Rng rng(seed);
  // Algorithm 1 line 1: split D_train into 80% train-sub / 20% val-sub.
  std::vector<int64_t> order(static_cast<size_t>(train.size()));
  for (int64_t i = 0; i < train.size(); ++i) order[static_cast<size_t>(i)] = i;
  rng.Shuffle(&order);
  const size_t n_val_sub =
      std::max<size_t>(1, order.size() / 5);
  std::vector<int64_t> val_idx(order.begin(),
                               order.begin() + static_cast<long>(n_val_sub));
  std::vector<int64_t> train_idx(order.begin() + static_cast<long>(n_val_sub),
                                 order.end());
  const data::WindowDataset train_sub = train.Subset(train_idx);
  const data::WindowDataset val_sub = train.Subset(val_idx);

  // Algorithm 1 lines 2-8: train trials_per_kernel models per kernel size
  // and score each on D_validation.
  std::vector<EnsembleMember> candidates;
  for (int64_t kp : config.kernel_sizes) {
    for (int trial = 0; trial < config.trials_per_kernel; ++trial) {
      Rng init_rng = rng.Fork();
      std::unique_ptr<CamBackbone> model;
      if (config.backbone == BackboneKind::kInception) {
        InceptionConfig ic;
        ic.kernel_size = kp;
        // 4f output channels vs the ResNet's 2f: halve the per-branch
        // width so both backbones feed comparable heads.
        ic.base_filters = std::max<int64_t>(2, config.base_filters / 2);
        model = std::make_unique<InceptionClassifier>(ic, &init_rng);
      } else {
        ResNetConfig rc;
        rc.kernel_size = kp;
        rc.base_filters = config.base_filters;
        model = std::make_unique<ResNetClassifier>(rc, &init_rng);
      }
      Rng train_rng = rng.Fork();
      TrainClassifier(model.get(), train_sub, val_sub, config.train,
                      &train_rng);
      EnsembleMember member;
      member.kernel_size = kp;
      member.validation_loss =
          EvaluateClassifierLoss(model.get(), validation);
      member.model = std::move(model);
      candidates.push_back(std::move(member));
    }
  }

  // Algorithm 1 line 9: keep the ensemble_size models with the lowest
  // validation loss.
  std::sort(candidates.begin(), candidates.end(),
            [](const EnsembleMember& a, const EnsembleMember& b) {
              return a.validation_loss < b.validation_loss;
            });
  const size_t keep = std::min<size_t>(
      candidates.size(), static_cast<size_t>(config.ensemble_size));
  candidates.resize(keep);
  return CamalEnsemble(std::move(candidates));
}

nn::Tensor CamalEnsemble::DetectProbability(const nn::Tensor& inputs) {
  std::vector<nn::Tensor> logits;
  for (auto& member : members_) logits.push_back(member.model->Forward(inputs));
  return MeanClassOneProbability(logits);
}

namespace internal {

std::vector<size_t> CostOrder(const std::vector<int64_t>& cost) {
  std::vector<size_t> order(cost.size());
  for (size_t m = 0; m < order.size(); ++m) order[m] = m;
  std::stable_sort(order.begin(), order.end(),
                   [&cost](size_t a, size_t b) { return cost[a] > cost[b]; });
  return order;
}

LaneItem LaneItemAt(const std::vector<size_t>& cost_order, int64_t windows,
                    int64_t item) {
  return LaneItem{cost_order[static_cast<size_t>(item / windows)],
                  item % windows};
}

}  // namespace internal

CamalEnsemble::CamalEnsemble(std::vector<EnsembleMember> members)
    : members_(std::move(members)) {
  std::vector<int64_t> cost;
  for (auto& member : members_) {
    member.model->SetTraining(false);
    cost.push_back(member.model->NumParameters());
  }
  cost_order_ = internal::CostOrder(cost);
}

nn::Tensor CamalEnsemble::DetectProbabilityBatched(
    const nn::Tensor& inputs, std::vector<nn::Tensor>* feature_maps,
    int spare, std::vector<nn::Tensor>* cams) const {
  // Resizing members() after construction would leave cost_order_ stale.
  CAMAL_CHECK_EQ(cost_order_.size(), members_.size());
  const size_t n = members_.size();
  const int64_t windows = inputs.dim(0);
  if (feature_maps != nullptr) feature_maps->resize(n);
  if (cams != nullptr) cams->resize(n);
  // Member m's optional outputs, or null.
  const auto out = [](std::vector<nn::Tensor>* all, size_t m) {
    return all != nullptr ? &(*all)[m] : nullptr;
  };
  // Rows [begin, end) of member m into its outputs.
  std::vector<nn::Tensor> logits(n);
  const auto infer = [&](size_t m, int64_t begin, int64_t end) {
    members_[m].model->InferRows(inputs, begin, end, &logits[m],
                                 out(feature_maps, m), out(cams, m));
  };
  // Every member's outputs get their shapes before any lane writes rows.
  for (size_t m = 0; m < n; ++m) {
    members_[m].model->ResizeOutputs(inputs, &logits[m], out(feature_maps, m),
                                     out(cams, m));
  }
  const int64_t items = static_cast<int64_t>(n) * windows;
  const int cores = std::min(1 + std::max(0, spare), NumThreads());
  const int lanes = static_cast<int>(std::min<int64_t>(items, cores));
  if (lanes <= 1) {
    for (size_t m : cost_order_) infer(m, 0, windows);
  } else {
    std::atomic<int64_t> next{0};
    ParallelLanes(lanes, [&](int) {
      for (int64_t k = next++; k < items; k = next++) {
        const internal::LaneItem item =
            internal::LaneItemAt(cost_order_, windows, k);
        infer(item.member, item.window, item.window + 1);
      }
    });
  }
  return MeanClassOneProbability(logits);
}

int64_t CamalEnsemble::NumParameters() const {
  int64_t total = 0;
  for (const auto& m : members_) total += m.model->NumParameters();
  return total;
}

}  // namespace camal::core
