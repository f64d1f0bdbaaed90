// Tests for the extension modules: CSV dataset loading, ensemble
// persistence, the InceptionTime backbone, the Combinatorial Optimization
// baseline, and refined power estimation.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "baselines/combinatorial.h"
#include "baselines/fhmm.h"
#include "core/inception.h"
#include "core/localizer.h"
#include "core/model_io.h"
#include "core/power_estimation.h"
#include "data/csv_loader.h"
#include "gradcheck.h"
#include "nn/pooling.h"

namespace camal {
namespace {

using camal::testing::CheckModuleGradients;
using camal::testing::RandomInput;

// ---------------------------------------------------------------------------
// CSV loader.
// ---------------------------------------------------------------------------

constexpr char kCsv[] =
    "timestamp,aggregate,dishwasher\n"
    "0,100,0\n"
    "60,150,0\n"
    "120,900,800\n"
    "180,950,820\n"
    "300,120,0\n";  // note the 240s gap -> one missing row

TEST(CsvLoaderTest, ParsesHeaderAndValues) {
  auto house = data::ParseHouseCsv(kCsv, 7);
  ASSERT_TRUE(house.ok()) << house.status().ToString();
  const data::HouseRecord& h = house.value();
  EXPECT_EQ(h.house_id, 7);
  EXPECT_DOUBLE_EQ(h.interval_seconds, 60.0);
  ASSERT_EQ(h.aggregate.size(), 6u);  // 5 rows + 1 gap expansion
  EXPECT_FLOAT_EQ(h.aggregate[0], 100.0f);
  EXPECT_FLOAT_EQ(h.aggregate[2], 900.0f);
  EXPECT_TRUE(data::IsMissing(h.aggregate[4]));  // the gap at t=240
  EXPECT_FLOAT_EQ(h.aggregate[5], 120.0f);
  ASSERT_EQ(h.appliances.size(), 1u);
  EXPECT_EQ(h.appliances[0].name, "dishwasher");
  EXPECT_FLOAT_EQ(h.appliances[0].power[3], 820.0f);
  EXPECT_TRUE(h.Owns("dishwasher"));
}

TEST(CsvLoaderTest, EmptyCellsAreMissing) {
  auto house = data::ParseHouseCsv(
      "timestamp,aggregate\n0,\n60,200\n120,300\n", 1);
  ASSERT_TRUE(house.ok());
  EXPECT_TRUE(data::IsMissing(house.value().aggregate[0]));
  EXPECT_FLOAT_EQ(house.value().aggregate[1], 200.0f);
}

TEST(CsvLoaderTest, RejectsBadHeader) {
  EXPECT_FALSE(data::ParseHouseCsv("time,power\n0,1\n1,2\n", 1).ok());
  EXPECT_FALSE(data::ParseHouseCsv("timestamp,aggregate\n0,1\n", 1).ok());
}

TEST(CsvLoaderTest, RejectsNonMonotonicTimestamps) {
  EXPECT_FALSE(data::ParseHouseCsv(
                   "timestamp,aggregate\n0,1\n60,2\n30,3\n", 1)
                   .ok());
}

TEST(CsvLoaderTest, RejectsMalformedNumbers) {
  EXPECT_FALSE(
      data::ParseHouseCsv("timestamp,aggregate\n0,abc\n60,2\n120,1\n", 1)
          .ok());
}

TEST(CsvLoaderTest, WriteThenLoadRoundTrip) {
  const std::string path = "/tmp/camal_house_roundtrip.csv";
  auto original = data::ParseHouseCsv(kCsv, 3).value();
  ASSERT_TRUE(data::WriteHouseCsv(original, path).ok());
  auto loaded = data::LoadHouseCsv(path, 3);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().aggregate.size(), original.aggregate.size());
  for (size_t i = 0; i < original.aggregate.size(); ++i) {
    if (data::IsMissing(original.aggregate[i])) {
      EXPECT_TRUE(data::IsMissing(loaded.value().aggregate[i]));
    } else {
      EXPECT_FLOAT_EQ(loaded.value().aggregate[i], original.aggregate[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(CsvLoaderTest, LoadDatasetDirReadsSortedHouses) {
  const std::string dir = "/tmp/camal_dataset_dir";
  std::filesystem::create_directories(dir);
  auto h1 = data::ParseHouseCsv(kCsv, 1).value();
  ASSERT_TRUE(data::WriteHouseCsv(h1, dir + "/house_01.csv").ok());
  ASSERT_TRUE(data::WriteHouseCsv(h1, dir + "/house_02.csv").ok());
  auto cohort = data::LoadDatasetDir(dir);
  ASSERT_TRUE(cohort.ok()) << cohort.status().ToString();
  ASSERT_EQ(cohort.value().size(), 2u);
  EXPECT_EQ(cohort.value()[0].house_id, 1);
  EXPECT_EQ(cohort.value()[1].house_id, 2);
  std::filesystem::remove_all(dir);
}

TEST(CsvLoaderTest, LoadDatasetDirFailsOnMissingDir) {
  EXPECT_FALSE(data::LoadDatasetDir("/tmp/does_not_exist_camal_dir").ok());
}

TEST(CsvLoaderTest, ReadErrorIsIoErrorNotShortParse) {
  // On Linux, fopen("rb") on a directory succeeds and the first fread
  // fails with EISDIR — exactly the fread-loop-without-ferror case that
  // used to parse an empty "file" instead of reporting the I/O failure.
  const std::string dir = "/tmp/camal_read_error_dir";
  std::filesystem::create_directories(dir);
  auto house = data::LoadHouseCsv(dir, 1);
  ASSERT_FALSE(house.ok());
  EXPECT_EQ(house.status().code(), StatusCode::kIoError)
      << house.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(CsvLoaderTest, HugeTimestampGapIsRejectedNotExpanded) {
  // The third timestamp sits 10^10 intervals past the second. Expanding
  // that gap into missing readings used to abort the process with
  // std::bad_alloc; its count is now bounded before anything is added.
  auto house = data::ParseHouseCsv(
      "timestamp,aggregate\n0,100\n60,150\n600000000000,120\n", 1);
  ASSERT_FALSE(house.ok());
  EXPECT_EQ(house.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(house.status().ToString().find("gap"), std::string::npos);
}

TEST(CsvLoaderTest, NonFiniteTimestampGapIsRejected) {
  // strtod accepts "inf" and "nan": an infinite gap would expand forever,
  // a NaN one would slip past every comparison.
  for (const char* ts : {"inf", "nan"}) {
    const std::string csv =
        std::string("timestamp,aggregate\n0,100\n60,150\n") + ts + ",120\n";
    auto house = data::ParseHouseCsv(csv, 1);
    ASSERT_FALSE(house.ok()) << ts;
    EXPECT_EQ(house.status().code(), StatusCode::kInvalidArgument) << ts;
  }
}

TEST(CsvLoaderTest, PossessionSurveyRejectsMalformedHouseId) {
  // atoi would map "kitchen" to 0 and "12x" to 12, silently attributing
  // survey rows to the wrong household; both must be rejected instead.
  const std::string path = "/tmp/camal_survey_malformed.csv";
  std::vector<data::HouseRecord> houses(1);
  houses[0].house_id = 12;
  for (const char* bad_id : {"kitchen", "12x", "", "12.5"}) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fprintf(f, "house_id,appliance,owned\n%s,kettle,1\n", bad_id);
    std::fclose(f);
    Status st = data::ApplyPossessionSurvey(path, &houses);
    ASSERT_FALSE(st.ok()) << "id '" << bad_id << "' was accepted";
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << st.ToString() << " for id '" << bad_id << "'";
  }
  EXPECT_FALSE(houses[0].Owns("kettle"));
  std::remove(path.c_str());
}

TEST(CsvLoaderTest, PossessionSurveyTogglesOwnership) {
  const std::string path = "/tmp/camal_survey.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("house_id,appliance,owned\n1,kettle,1\n1,dishwasher,0\n", f);
  std::fclose(f);
  std::vector<data::HouseRecord> houses(1);
  houses[0].house_id = 1;
  houses[0].owned_appliances = {"dishwasher"};
  ASSERT_TRUE(data::ApplyPossessionSurvey(path, &houses).ok());
  EXPECT_TRUE(houses[0].Owns("kettle"));
  EXPECT_FALSE(houses[0].Owns("dishwasher"));
  // Unknown house id fails.
  houses[0].house_id = 99;
  EXPECT_FALSE(data::ApplyPossessionSurvey(path, &houses).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// MaxPool padding (needed by the Inception block).
// ---------------------------------------------------------------------------

TEST(MaxPoolPaddingTest, SameLengthPooling) {
  nn::MaxPool1d pool(3, 1, 1);
  nn::Tensor x({1, 1, 5});
  float vals[] = {1, 5, 2, 9, 3};
  for (int64_t i = 0; i < 5; ++i) x.at3(0, 0, i) = vals[i];
  nn::Tensor y = pool.Forward(x);
  ASSERT_EQ(y.dim(2), 5);
  EXPECT_EQ(y.at3(0, 0, 0), 5.0f);  // max(pad, 1, 5)
  EXPECT_EQ(y.at3(0, 0, 1), 5.0f);
  EXPECT_EQ(y.at3(0, 0, 3), 9.0f);
  EXPECT_EQ(y.at3(0, 0, 4), 9.0f);  // max(9, 3, pad)
  nn::Tensor g = pool.Backward(nn::Tensor::Full({1, 1, 5}, 1.0f));
  EXPECT_EQ(g.dim(2), 5);
  // All gradient mass lands on real (non-pad) positions.
  EXPECT_DOUBLE_EQ(g.Sum(), 5.0);
}

// ---------------------------------------------------------------------------
// Inception backbone.
// ---------------------------------------------------------------------------

core::InceptionConfig TinyInception() {
  core::InceptionConfig config;
  config.kernel_size = 3;
  config.base_filters = 2;
  config.depth = 2;
  return config;
}

TEST(InceptionTest, ForwardShapesAndCamInterface) {
  Rng rng(1);
  core::InceptionClassifier net(TinyInception(), &rng);
  nn::Tensor x = RandomInput({2, 1, 16}, 2);
  nn::Tensor logits = net.Forward(x);
  EXPECT_EQ(logits.dim(0), 2);
  EXPECT_EQ(logits.dim(1), 2);
  EXPECT_EQ(net.feature_maps().dim(1), 8);  // 4f
  EXPECT_EQ(net.feature_maps().dim(2), 16);
  EXPECT_EQ(net.head_weights().dim(1), 8);
  EXPECT_EQ(net.kind(), core::BackboneKind::kInception);
}

TEST(InceptionTest, GradCheck) {
  Rng rng(1);
  core::InceptionClassifier net(TinyInception(), &rng);
  net.SetTraining(true);
  nn::Tensor x = RandomInput({2, 1, 12}, 3, -0.5, 0.5);
  auto result = CheckModuleGradients(&net, x, 5, 1e-3);
  EXPECT_TRUE(result.ok(3e-2)) << "abs=" << result.max_abs_err
                               << " rel=" << result.max_rel_err;
}

TEST(InceptionTest, TrainsInsideEnsemble) {
  // Reuse the pulse task: the Inception backbone must be trainable through
  // Algorithm 1 via the backbone switch.
  Rng rng(5);
  data::WindowDataset train;
  train.window_length = 24;
  train.appliance = {"pulse", 300.0f, 800.0f};
  const int64_t n = 48;
  train.inputs = nn::Tensor({n, 1, 24});
  train.status = nn::Tensor({n, 24});
  train.appliance_power = nn::Tensor({n, 24});
  for (int64_t i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    for (int64_t t = 0; t < 24; ++t) {
      train.inputs.at3(i, 0, t) =
          0.1f + static_cast<float>(rng.Gaussian(0.0, 0.02));
    }
    if (positive) {
      for (int64_t t = 6; t < 12; ++t) train.inputs.at3(i, 0, t) += 0.8f;
    }
    train.weak_labels.push_back(positive ? 1 : 0);
    train.house_ids.push_back(0);
  }
  core::EnsembleConfig config;
  config.backbone = core::BackboneKind::kInception;
  config.kernel_sizes = {3};
  config.trials_per_kernel = 1;
  config.ensemble_size = 1;
  config.base_filters = 4;
  config.train.max_epochs = 5;
  auto ens = core::CamalEnsemble::Train(train, train, config, 7);
  ASSERT_TRUE(ens.ok()) << ens.status().ToString();
  EXPECT_EQ(ens.value().members()[0].model->kind(),
            core::BackboneKind::kInception);
  nn::Tensor prob =
      const_cast<core::CamalEnsemble&>(ens.value()).DetectProbability(
          train.inputs);
  int correct = 0;
  for (int64_t i = 0; i < n; ++i) {
    const int label = train.weak_labels[static_cast<size_t>(i)];
    if ((prob.at(i) > 0.5f) == (label == 1)) {
      ++correct;
    }
  }
  EXPECT_GE(correct, n * 3 / 4);
}

// ---------------------------------------------------------------------------
// Ensemble persistence.
// ---------------------------------------------------------------------------

data::WindowDataset SmallPulseSet(int64_t n, uint64_t seed) {
  Rng rng(seed);
  data::WindowDataset ds;
  ds.window_length = 24;
  ds.appliance = {"pulse", 300.0f, 800.0f};
  ds.inputs = nn::Tensor({n, 1, 24});
  ds.status = nn::Tensor({n, 24});
  ds.appliance_power = nn::Tensor({n, 24});
  for (int64_t i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    for (int64_t t = 0; t < 24; ++t) {
      ds.inputs.at3(i, 0, t) =
          0.1f + static_cast<float>(rng.Gaussian(0.0, 0.02));
    }
    if (positive) {
      const int64_t start = rng.UniformInt(0, 17);
      for (int64_t t = start; t < start + 6; ++t) {
        ds.inputs.at3(i, 0, t) += 0.8f;
        ds.status.at2(i, t) = 1.0f;
        ds.appliance_power.at2(i, t) = 800.0f;
      }
    }
    ds.weak_labels.push_back(positive ? 1 : 0);
    ds.house_ids.push_back(0);
  }
  return ds;
}

TEST(ModelIoTest, SaveLoadEnsemblePreservesInference) {
  const std::string dir = "/tmp/camal_ensemble_io";
  data::WindowDataset train = SmallPulseSet(48, 1);
  data::WindowDataset valid = SmallPulseSet(16, 2);
  core::EnsembleConfig config;
  config.kernel_sizes = {5, 9};
  config.trials_per_kernel = 1;
  config.ensemble_size = 2;
  config.base_filters = 4;
  config.train.max_epochs = 4;
  auto trained = core::CamalEnsemble::Train(train, valid, config, 7);
  ASSERT_TRUE(trained.ok());
  core::CamalEnsemble ensemble = std::move(trained).value();
  ASSERT_TRUE(core::SaveEnsemble(ensemble, dir).ok());

  auto loaded = core::LoadEnsemble(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  core::CamalEnsemble restored = std::move(loaded).value();
  ASSERT_EQ(restored.members().size(), ensemble.members().size());
  EXPECT_EQ(restored.members()[0].kernel_size,
            ensemble.members()[0].kernel_size);

  data::WindowDataset test = SmallPulseSet(12, 3);
  nn::Tensor p1 = ensemble.DetectProbability(test.inputs);
  nn::Tensor p2 = restored.DetectProbability(test.inputs);
  for (int64_t i = 0; i < p1.numel(); ++i) {
    EXPECT_NEAR(p1.at(i), p2.at(i), 1e-5);
  }
  // Localization must also be identical (BN buffers round-tripped).
  core::CamalLocalizer l1(&ensemble), l2(&restored);
  nn::Tensor s1 = l1.Localize(test.inputs).status;
  nn::Tensor s2 = l2.Localize(test.inputs).status;
  for (int64_t i = 0; i < s1.numel(); ++i) EXPECT_EQ(s1.at(i), s2.at(i));
  std::filesystem::remove_all(dir);
}

TEST(ModelIoTest, LoadFailsOnMissingDirectory) {
  EXPECT_FALSE(core::LoadEnsemble("/tmp/no_such_camal_ensemble").ok());
}

// A model directory whose manifest lists one member, \p row, over a
// 4 KiB weight file.
std::string ModelDirWithRow(const std::string& name, const std::string& row) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::FILE* manifest = std::fopen((dir + "/manifest.csv").c_str(), "wb");
  const std::string text =
      "backbone,kernel_size,base_filters,validation_loss,file\n" + row + "\n";
  std::fwrite(text.data(), 1, text.size(), manifest);
  std::fclose(manifest);
  std::FILE* weights = std::fopen((dir + "/member0.bin").c_str(), "wb");
  const std::string bytes(4096, '\0');
  std::fwrite(bytes.data(), 1, bytes.size(), weights);
  std::fclose(weights);
  return dir;
}

TEST(ModelIoTest, HugeBaseFiltersRowIsRejectedBeforeBuilding) {
  // base_filters 2e9 used to abort with std::bad_alloc while building the
  // member, before its weight file was read. f^2 * k * 4 bytes overflows
  // int64 here, which must count as "more than the file holds".
  const std::string dir = ModelDirWithRow(
      "camal_huge_filters", "resnet,7,2000000000,0.1,member0.bin");
  auto loaded = core::LoadEnsemble(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

TEST(ModelIoTest, HugeKernelSizeRowIsRejectedBeforeBuilding) {
  // kernel_size 3e12 aborted the same way; it fits int64 once multiplied,
  // so it is the file-size bound, not the overflow check, that rejects it
  // — for both backbones.
  for (const char* backbone : {"resnet", "inception"}) {
    const std::string row =
        std::string(backbone) + ",3000000000000,16,0.1,member0.bin";
    const std::string dir = ModelDirWithRow("camal_huge_kernel", row);
    auto loaded = core::LoadEnsemble(dir);
    ASSERT_FALSE(loaded.ok()) << backbone;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << backbone;
    std::filesystem::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// Combinatorial Optimization baseline.
// ---------------------------------------------------------------------------

TEST(CoBaselineTest, DetectsStepAbovePa2) {
  data::WindowDataset ds = SmallPulseSet(16, 4);
  // Pulse is 800 W over a ~100 W base -> residual 0.8 kW > P_a/2 = 0.4 kW.
  nn::Tensor status = baselines::PredictCoStatus(ds);
  int64_t tp = 0, fn = 0, fp = 0;
  for (int64_t i = 0; i < ds.size(); ++i) {
    for (int64_t t = 0; t < ds.window_length; ++t) {
      const bool p = status.at2(i, t) > 0.5f;
      const bool g = ds.status.at2(i, t) > 0.5f;
      tp += p && g;
      fn += !p && g;
      fp += p && !g;
    }
  }
  // On this clean task CO is near-perfect (that is exactly why the paper
  // notes CO fails on *real* aggregates with concurrent appliances).
  EXPECT_GT(tp, 0);
  EXPECT_EQ(fn, 0);
  EXPECT_LT(fp, ds.size());
}

TEST(CoBaselineTest, ConfusedByDistractorsOfSimilarPower) {
  // Add an 800 W distractor to negative windows: CO cannot tell them apart,
  // CamAL's learned classifier can (the paper's motivation for learning).
  data::WindowDataset ds = SmallPulseSet(16, 5);
  for (int64_t i = 1; i < ds.size(); i += 2) {  // negatives
    for (int64_t t = 2; t < 8; ++t) ds.inputs.at3(i, 0, t) += 0.8f;
  }
  nn::Tensor status = baselines::PredictCoStatus(ds);
  int64_t fp = 0;
  for (int64_t i = 1; i < ds.size(); i += 2) {
    for (int64_t t = 0; t < ds.window_length; ++t) {
      fp += status.at2(i, t) > 0.5f && ds.status.at2(i, t) < 0.5f;
    }
  }
  EXPECT_GT(fp, 0) << "CO should false-positive on same-power distractors";
}

// ---------------------------------------------------------------------------
// FHMM baseline (Kim et al. 2011).
// ---------------------------------------------------------------------------

TEST(FhmmBaselineTest, DecodesCleanPulse) {
  data::WindowDataset ds = SmallPulseSet(16, 6);
  nn::Tensor status = baselines::PredictFhmmStatus(ds);
  int64_t tp = 0, fn = 0, fp = 0;
  for (int64_t i = 0; i < ds.size(); ++i) {
    for (int64_t t = 0; t < ds.window_length; ++t) {
      const bool p = status.at2(i, t) > 0.5f;
      const bool g = ds.status.at2(i, t) > 0.5f;
      tp += p && g;
      fn += !p && g;
      fp += p && !g;
    }
  }
  const double f1 = tp > 0 ? 2.0 * tp / (2.0 * tp + fp + fn) : 0.0;
  EXPECT_GT(f1, 0.8) << "tp=" << tp << " fp=" << fp << " fn=" << fn;
}

TEST(FhmmBaselineTest, AllOffWindowStaysOff) {
  data::WindowDataset ds = SmallPulseSet(16, 6);
  // Flatten every window: constant base load, no pulses.
  for (int64_t i = 0; i < ds.size(); ++i) {
    for (int64_t t = 0; t < ds.window_length; ++t) {
      ds.inputs.at3(i, 0, t) = 0.1f;
    }
  }
  nn::Tensor status = baselines::PredictFhmmStatus(ds);
  EXPECT_DOUBLE_EQ(status.Sum(), 0.0);
}

TEST(FhmmBaselineTest, ViterbiSmoothsIsolatedSpikes) {
  // A single-sample glitch well below P_a should not open an ON segment
  // thanks to the sticky transition prior.
  data::WindowDataset ds = SmallPulseSet(4, 7);
  for (int64_t i = 0; i < ds.size(); ++i) {
    for (int64_t t = 0; t < ds.window_length; ++t) {
      ds.inputs.at3(i, 0, t) = 0.1f;
    }
    ds.inputs.at3(i, 0, 10) = 0.25f;  // 150 W blip << P_a = 800 W
  }
  nn::Tensor status = baselines::PredictFhmmStatus(ds);
  EXPECT_DOUBLE_EQ(status.Sum(), 0.0);
}

TEST(FhmmBaselineTest, EmRefinementHelpsMiscalibratedPa) {
  // Appliance truly draws 1.6 kW but Table I says 0.8 kW: EM should pull
  // the ON mean toward the data and keep detections intact.
  data::WindowDataset ds = SmallPulseSet(8, 8);
  for (int64_t i = 0; i < ds.size(); ++i) {
    for (int64_t t = 0; t < ds.window_length; ++t) {
      if (ds.status.at2(i, t) > 0.5f) ds.inputs.at3(i, 0, t) += 0.8f;  // 2x
    }
  }
  baselines::FhmmOptions with_em;
  with_em.em_iterations = 4;
  baselines::FhmmOptions no_em;
  no_em.em_iterations = 0;
  auto f1_of = [&](const nn::Tensor& status) {
    int64_t tp = 0, fn = 0, fp = 0;
    for (int64_t i = 0; i < ds.size(); ++i) {
      for (int64_t t = 0; t < ds.window_length; ++t) {
        const bool p = status.at2(i, t) > 0.5f;
        const bool g = ds.status.at2(i, t) > 0.5f;
        tp += p && g;
        fn += !p && g;
        fp += p && !g;
      }
    }
    return tp > 0 ? 2.0 * tp / (2.0 * tp + fp + fn) : 0.0;
  };
  const double with_f1 = f1_of(baselines::PredictFhmmStatus(ds, with_em));
  const double without_f1 = f1_of(baselines::PredictFhmmStatus(ds, no_em));
  EXPECT_GE(with_f1, without_f1);
  EXPECT_GT(with_f1, 0.7);
}

// ---------------------------------------------------------------------------
// Refined power estimation.
// ---------------------------------------------------------------------------

TEST(RefinedPowerTest, RecoversTrueStepBetterThanConstantModel) {
  // Appliance truly draws 600 W but Table I says P_a = 800 W: the refined
  // estimator should price the segment at the observed ~600 W step.
  const int64_t l = 32;
  nn::Tensor status({1, l});
  nn::Tensor watts({1, l});
  nn::Tensor truth({1, l});
  for (int64_t t = 0; t < l; ++t) {
    watts.at2(0, t) = 100.0f;  // base load
  }
  for (int64_t t = 10; t < 16; ++t) {
    status.at2(0, t) = 1.0f;
    watts.at2(0, t) = 700.0f;  // base + 600 W appliance
    truth.at2(0, t) = 600.0f;
  }
  nn::Tensor simple = core::EstimatePower(status, watts, 800.0f);
  nn::Tensor refined = core::EstimatePowerRefined(status, watts, 800.0f, 8);
  double err_simple = 0.0, err_refined = 0.0;
  for (int64_t t = 0; t < l; ++t) {
    err_simple += std::fabs(simple.at2(0, t) - truth.at2(0, t));
    err_refined += std::fabs(refined.at2(0, t) - truth.at2(0, t));
  }
  EXPECT_LT(err_refined, err_simple);
  EXPECT_NEAR(refined.at2(0, 12), 600.0f, 1.0f);
}

TEST(RefinedPowerTest, FallsBackWithoutOffContext) {
  // All-ON status: no OFF samples anywhere -> constant-model fallback.
  nn::Tensor status = nn::Tensor::Full({1, 8}, 1.0f);
  nn::Tensor watts = nn::Tensor::Full({1, 8}, 700.0f);
  nn::Tensor refined = core::EstimatePowerRefined(status, watts, 800.0f, 4);
  for (int64_t t = 0; t < 8; ++t) {
    EXPECT_FLOAT_EQ(refined.at2(0, t), 700.0f);  // min(P_a, x)
  }
}

TEST(RefinedPowerTest, OffTimestampsStayZero) {
  nn::Tensor status({1, 8});
  nn::Tensor watts = nn::Tensor::Full({1, 8}, 500.0f);
  nn::Tensor refined = core::EstimatePowerRefined(status, watts, 800.0f);
  EXPECT_DOUBLE_EQ(refined.Sum(), 0.0);
}

}  // namespace
}  // namespace camal
