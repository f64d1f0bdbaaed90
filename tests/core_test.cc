#include <gtest/gtest.h>

#include "core/cam.h"
#include "core/ensemble.h"
#include "core/localizer.h"
#include "core/power_estimation.h"
#include "core/resnet.h"
#include "gradcheck.h"
#include "nn/loss.h"

namespace camal::core {
namespace {

using camal::testing::CheckModuleGradients;
using camal::testing::RandomInput;

ResNetConfig TinyConfig(int64_t kernel = 5) {
  ResNetConfig c;
  c.kernel_size = kernel;
  c.base_filters = 4;
  return c;
}

TEST(ResNetTest, OutputShapeAndFeatureMaps) {
  Rng rng(1);
  ResNetClassifier net(TinyConfig(), &rng);
  nn::Tensor x = RandomInput({3, 1, 16}, 2);
  nn::Tensor logits = net.Forward(x);
  EXPECT_EQ(logits.dim(0), 3);
  EXPECT_EQ(logits.dim(1), 2);
  // Feature maps: (N, 2f, L) before GAP.
  EXPECT_EQ(net.feature_maps().dim(0), 3);
  EXPECT_EQ(net.feature_maps().dim(1), 8);
  EXPECT_EQ(net.feature_maps().dim(2), 16);
  EXPECT_EQ(net.head_weights().dim(0), 2);
  EXPECT_EQ(net.head_weights().dim(1), 8);
}

TEST(ResNetTest, PaperScaleParameterCountNear570k) {
  // Table II reports ~570K trainable parameters per ResNet member at
  // base_filters = 64.
  Rng rng(1);
  ResNetConfig c;
  c.kernel_size = 7;
  c.base_filters = 64;
  ResNetClassifier net(c, &rng);
  const int64_t params = net.NumParameters();
  EXPECT_GT(params, 350'000);
  EXPECT_LT(params, 800'000);
}

TEST(ResNetTest, KernelSizeChangesParameterCount) {
  Rng rng(1);
  ResNetClassifier small(TinyConfig(5), &rng);
  ResNetClassifier large(TinyConfig(25), &rng);
  EXPECT_GT(large.NumParameters(), small.NumParameters());
}

TEST(ResNetTest, GradCheck) {
  Rng rng(1);
  ResNetClassifier net(TinyConfig(), &rng);
  net.SetTraining(true);
  nn::Tensor x = RandomInput({2, 1, 12}, 3, -0.5, 0.5);
  auto result = CheckModuleGradients(&net, x, 5);
  EXPECT_TRUE(result.ok(3e-2)) << "abs=" << result.max_abs_err
                               << " rel=" << result.max_rel_err;
}

TEST(CamTest, MatchesDefinition) {
  // CAM_c(t) = sum_k w[c,k] f[k,t].
  nn::Tensor features({1, 2, 3});
  features.at3(0, 0, 0) = 1;
  features.at3(0, 0, 1) = 2;
  features.at3(0, 0, 2) = 3;
  features.at3(0, 1, 0) = 4;
  features.at3(0, 1, 1) = 5;
  features.at3(0, 1, 2) = 6;
  nn::Tensor weights({2, 2});
  weights.at2(1, 0) = 2.0f;
  weights.at2(1, 1) = -1.0f;
  nn::Tensor cam = ComputeCam(features, weights, 1);
  EXPECT_FLOAT_EQ(cam.at2(0, 0), 2 * 1 - 4);
  EXPECT_FLOAT_EQ(cam.at2(0, 1), 2 * 2 - 5);
  EXPECT_FLOAT_EQ(cam.at2(0, 2), 2 * 3 - 6);
}

TEST(CamTest, NormalizeByMaxKeepsSign) {
  nn::Tensor cam({1, 4});
  cam.at2(0, 0) = -2.0f;
  cam.at2(0, 1) = 0.0f;
  cam.at2(0, 2) = 4.0f;
  cam.at2(0, 3) = 2.0f;
  nn::Tensor norm = NormalizeCamByMax(cam);
  EXPECT_FLOAT_EQ(norm.at2(0, 0), -0.5f);
  EXPECT_FLOAT_EQ(norm.at2(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(norm.at2(0, 3), 0.5f);
}

TEST(CamTest, NormalizeZeroesNonPositiveRows) {
  nn::Tensor cam({1, 3});
  cam.at2(0, 0) = -1.0f;
  cam.at2(0, 1) = -5.0f;
  cam.at2(0, 2) = 0.0f;
  nn::Tensor norm = NormalizeCamByMax(cam);
  for (int64_t t = 0; t < 3; ++t) EXPECT_FLOAT_EQ(norm.at2(0, t), 0.0f);
}

TEST(CamTest, AverageCams) {
  nn::Tensor a = nn::Tensor::Full({1, 2}, 1.0f);
  nn::Tensor b = nn::Tensor::Full({1, 2}, 3.0f);
  nn::Tensor avg = AverageCams({a, b});
  EXPECT_FLOAT_EQ(avg.at2(0, 0), 2.0f);
}

// Builds a trivially separable weak-label dataset: positives contain a
// strong rectangular pulse.
data::WindowDataset MakePulseDataset(int64_t n, int64_t l, uint64_t seed) {
  Rng rng(seed);
  data::WindowDataset ds;
  ds.window_length = l;
  ds.appliance = {"pulse", 300.0f, 800.0f};
  ds.inputs = nn::Tensor({n, 1, l});
  ds.status = nn::Tensor({n, l});
  ds.appliance_power = nn::Tensor({n, l});
  for (int64_t i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    for (int64_t t = 0; t < l; ++t) {
      ds.inputs.at3(i, 0, t) =
          0.1f + static_cast<float>(rng.Gaussian(0.0, 0.02));
    }
    if (positive) {
      const int64_t start = rng.UniformInt(0, l - 7);
      for (int64_t t = start; t < start + 6; ++t) {
        ds.inputs.at3(i, 0, t) += 0.8f;  // scaled 800 W pulse
        ds.status.at2(i, t) = 1.0f;
        ds.appliance_power.at2(i, t) = 800.0f;
      }
    }
    ds.weak_labels.push_back(positive ? 1 : 0);
    ds.house_ids.push_back(static_cast<int>(i % 3));
  }
  return ds;
}

TEST(EnsembleTest, TrainRejectsDegenerateInputs) {
  data::WindowDataset tiny = MakePulseDataset(3, 16, 1);
  data::WindowDataset valid = MakePulseDataset(4, 16, 2);
  EnsembleConfig config;
  EXPECT_FALSE(CamalEnsemble::Train(tiny, valid, config, 1).ok());

  data::WindowDataset train = MakePulseDataset(16, 16, 1);
  data::WindowDataset empty;
  empty.window_length = 16;
  EXPECT_FALSE(CamalEnsemble::Train(train, empty, config, 1).ok());

  EnsembleConfig bad;
  bad.kernel_sizes.clear();
  EXPECT_FALSE(CamalEnsemble::Train(train, valid, bad, 1).ok());
}

EnsembleConfig TinyEnsembleConfig() {
  EnsembleConfig config;
  config.kernel_sizes = {5, 9};
  config.trials_per_kernel = 1;
  config.ensemble_size = 2;
  config.base_filters = 4;
  config.train.max_epochs = 6;
  config.train.batch_size = 16;
  config.train.patience = 3;
  return config;
}

TEST(EnsembleTest, LearnsEasyDetectionTask) {
  data::WindowDataset train = MakePulseDataset(60, 24, 1);
  data::WindowDataset valid = MakePulseDataset(20, 24, 2);
  data::WindowDataset test = MakePulseDataset(20, 24, 3);
  auto result = CamalEnsemble::Train(train, valid, TinyEnsembleConfig(), 7);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  CamalEnsemble ensemble = std::move(result).value();
  EXPECT_EQ(ensemble.members().size(), 2u);

  nn::Tensor prob = ensemble.DetectProbability(test.inputs);
  int correct = 0;
  for (int64_t i = 0; i < test.size(); ++i) {
    const bool predicted = prob.at(i) > 0.5f;
    if (predicted == (test.weak_labels[static_cast<size_t>(i)] == 1)) {
      ++correct;
    }
  }
  EXPECT_GE(correct, 16) << "detection accuracy too low on separable task";
}

TEST(EnsembleTest, MembersSortedByValidationLoss) {
  data::WindowDataset train = MakePulseDataset(40, 24, 1);
  data::WindowDataset valid = MakePulseDataset(16, 24, 2);
  auto result = CamalEnsemble::Train(train, valid, TinyEnsembleConfig(), 7);
  ASSERT_TRUE(result.ok());
  const auto& members = result.value().members();
  for (size_t i = 1; i < members.size(); ++i) {
    EXPECT_LE(members[i - 1].validation_loss, members[i].validation_loss);
  }
}

TEST(EnsembleTest, EvaluateClassifierLossMatchesTrainingForwardPath) {
  // EvaluateClassifierLoss routes through ForwardInference (fused conv
  // GEMMs, no backward caches); the loss it reports must match the
  // training-kernel computation, otherwise early stopping would pick
  // different epochs after the switch. Training scores every epoch this
  // way while BatchNorm's running statistics move, so the check repeats
  // after training-mode forwards have moved them.
  data::WindowDataset data = MakePulseDataset(24, 16, 5);
  Rng rng(3);
  ResNetClassifier model(TinyConfig(), &rng);
  std::vector<int> labels(data.weak_labels.begin(), data.weak_labels.end());
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round == 0 ? "fresh statistics" : "moved statistics");
    const double fast = EvaluateClassifierLoss(&model, data);
    model.SetTraining(false);
    nn::Tensor logits = model.Forward(data.inputs);
    const double slow = nn::SoftmaxCrossEntropy(logits, labels).value;
    EXPECT_NEAR(fast, slow, 1e-5);
    model.SetTraining(true);
    for (int i = 0; i < 3; ++i) model.Forward(data.inputs);
  }
}

TEST(EnsembleTest, EarlyStoppingSelectionIsReproducible) {
  // The ROADMAP gate for evaluating with ForwardInference: on a
  // fixed-seed run, classifier training must pick the same best epoch —
  // pinned by requiring the identical best validation loss and bitwise
  // identical restored weights across two runs.
  data::WindowDataset train = MakePulseDataset(40, 16, 1);
  data::WindowDataset valid = MakePulseDataset(12, 16, 2);
  ClassifierTrainConfig config;
  config.max_epochs = 4;
  config.batch_size = 8;
  config.patience = 2;

  auto run = [&](std::vector<float>* flat_params) {
    Rng init_rng(11);
    ResNetClassifier model(TinyConfig(), &init_rng);
    Rng train_rng(13);
    const double best =
        TrainClassifier(&model, train, valid, config, &train_rng);
    for (auto* p : model.Parameters()) {
      for (int64_t i = 0; i < p->value.numel(); ++i) {
        flat_params->push_back(p->value.at(i));
      }
    }
    return best;
  };
  std::vector<float> params_a, params_b;
  const double best_a = run(&params_a);
  const double best_b = run(&params_b);
  EXPECT_EQ(best_a, best_b);
  ASSERT_EQ(params_a.size(), params_b.size());
  for (size_t i = 0; i < params_a.size(); ++i) {
    ASSERT_EQ(params_a[i], params_b[i]) << "parameter scalar " << i;
  }
}

TEST(LocalizerTest, UndetectedWindowsAreAllOff) {
  data::WindowDataset train = MakePulseDataset(60, 24, 1);
  data::WindowDataset valid = MakePulseDataset(20, 24, 2);
  auto result = CamalEnsemble::Train(train, valid, TinyEnsembleConfig(), 7);
  ASSERT_TRUE(result.ok());
  CamalEnsemble ensemble = std::move(result).value();
  CamalLocalizer localizer(&ensemble);

  data::WindowDataset test = MakePulseDataset(20, 24, 3);
  LocalizationResult res = localizer.Localize(test.inputs);
  for (int64_t i = 0; i < test.size(); ++i) {
    if (res.probabilities.at(i) <= 0.5f) {
      for (int64_t t = 0; t < 24; ++t) {
        EXPECT_EQ(res.status.at2(i, t), 0.0f);
      }
    }
  }
}

TEST(LocalizerTest, LocalizesPulsesBetterThanChance) {
  data::WindowDataset train = MakePulseDataset(80, 24, 1);
  data::WindowDataset valid = MakePulseDataset(24, 24, 2);
  auto result = CamalEnsemble::Train(train, valid, TinyEnsembleConfig(), 7);
  ASSERT_TRUE(result.ok());
  CamalEnsemble ensemble = std::move(result).value();
  CamalLocalizer localizer(&ensemble);

  data::WindowDataset test = MakePulseDataset(30, 24, 5);
  LocalizationResult res = localizer.Localize(test.inputs);
  int64_t tp = 0, fp = 0, fn = 0;
  for (int64_t i = 0; i < test.size(); ++i) {
    for (int64_t t = 0; t < 24; ++t) {
      const bool p = res.status.at2(i, t) > 0.5f;
      const bool g = test.status.at2(i, t) > 0.5f;
      tp += p && g;
      fp += p && !g;
      fn += !p && g;
    }
  }
  const double f1 = tp > 0 ? 2.0 * tp / (2.0 * tp + fp + fn) : 0.0;
  EXPECT_GT(f1, 0.3) << "tp=" << tp << " fp=" << fp << " fn=" << fn;
}

TEST(LocalizerTest, AblationWithoutAttentionFloodsPositives) {
  data::WindowDataset train = MakePulseDataset(60, 24, 1);
  data::WindowDataset valid = MakePulseDataset(20, 24, 2);
  auto result = CamalEnsemble::Train(train, valid, TinyEnsembleConfig(), 7);
  ASSERT_TRUE(result.ok());
  CamalEnsemble ensemble = std::move(result).value();

  data::WindowDataset test = MakePulseDataset(20, 24, 3);
  LocalizerOptions with;
  LocalizerOptions without;
  without.use_attention = false;
  CamalLocalizer loc_with(&ensemble, with);
  LocalizationResult a = loc_with.Localize(test.inputs);
  CamalLocalizer loc_without(&ensemble, without);
  LocalizationResult b = loc_without.Localize(test.inputs);
  // The ablated variant predicts at least as many positive timestamps
  // (sigmoid(CAM) >= 0.5 includes every zero/positive-CAM timestep).
  EXPECT_GE(b.status.Sum(), a.status.Sum());
}

TEST(PowerEstimationTest, ScalesAndClips) {
  nn::Tensor status({1, 4});
  status.at2(0, 0) = 1;
  status.at2(0, 1) = 1;
  status.at2(0, 3) = 1;
  nn::Tensor watts({1, 4});
  watts.at2(0, 0) = 1000.0f;  // above P_a: estimate = P_a
  watts.at2(0, 1) = 300.0f;   // below P_a: clipped to aggregate
  watts.at2(0, 2) = 1000.0f;  // OFF: zero
  watts.at2(0, 3) = -5.0f;    // negative aggregate clamps to 0
  nn::Tensor est = EstimatePower(status, watts, 800.0f);
  EXPECT_FLOAT_EQ(est.at2(0, 0), 800.0f);
  EXPECT_FLOAT_EQ(est.at2(0, 1), 300.0f);
  EXPECT_FLOAT_EQ(est.at2(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(est.at2(0, 3), 0.0f);
}

}  // namespace
}  // namespace camal::core
