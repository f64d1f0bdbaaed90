#include <gtest/gtest.h>

#include <limits>

#include "data/balance.h"
#include "data/dataset.h"
#include "data/resample.h"
#include "data/split.h"
#include "data/time_series.h"
#include "data/window.h"

namespace camal::data {
namespace {

TEST(TimeSeriesTest, MissingCount) {
  TimeSeries s;
  s.values = {1.0f, kMissingValue, 2.0f, kMissingValue};
  EXPECT_EQ(s.MissingCount(), 2);
  EXPECT_TRUE(IsMissing(kMissingValue));
  EXPECT_FALSE(IsMissing(0.0f));
}

TEST(TimeSeriesTest, EveryNonFiniteReadingIsMissing) {
  // One predicate for "not a finite number": +-Inf is missing like NaN,
  // and the largest finite readings are not.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(IsMissing(kInf));
  EXPECT_TRUE(IsMissing(-kInf));
  EXPECT_FALSE(IsMissing(std::numeric_limits<float>::max()));
  EXPECT_FALSE(IsMissing(-1e38f));
  TimeSeries s;
  s.interval_seconds = 60.0;
  s.values = {2.0f, kInf, -kInf, kMissingValue};
  EXPECT_EQ(s.MissingCount(), 3);
  auto out = ResampleAverage(s, 120.0);
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out.value().values[0], 2.0f);  // +Inf skipped
  EXPECT_TRUE(IsMissing(out.value().values[1]));  // none finite
  EXPECT_FALSE(WindowIsComplete(s.values, 0, 2));
}

TEST(ResampleTest, AveragesBuckets) {
  TimeSeries s;
  s.interval_seconds = 60.0;
  s.values = {1, 3, 5, 7, 9, 11};
  auto out = ResampleAverage(s, 120.0);
  ASSERT_TRUE(out.ok());
  const TimeSeries& r = out.value();
  EXPECT_EQ(r.interval_seconds, 120.0);
  ASSERT_EQ(r.size(), 3);
  EXPECT_FLOAT_EQ(r.values[0], 2.0f);
  EXPECT_FLOAT_EQ(r.values[1], 6.0f);
  EXPECT_FLOAT_EQ(r.values[2], 10.0f);
}

TEST(ResampleTest, SkipsMissingInAverage) {
  TimeSeries s;
  s.interval_seconds = 60.0;
  s.values = {2.0f, kMissingValue, kMissingValue, kMissingValue};
  auto out = ResampleAverage(s, 120.0);
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out.value().values[0], 2.0f);      // one valid reading
  EXPECT_TRUE(IsMissing(out.value().values[1]));     // none valid
}

TEST(ResampleTest, RejectsNonIntegerRatio) {
  TimeSeries s;
  s.interval_seconds = 60.0;
  s.values = {1, 2, 3};
  EXPECT_FALSE(ResampleAverage(s, 90.0).ok());
  EXPECT_FALSE(ResampleAverage(s, -60.0).ok());
}

TEST(ForwardFillTest, FillsWithinMaxGap) {
  TimeSeries s;
  s.interval_seconds = 60.0;
  s.values = {1.0f, kMissingValue, kMissingValue, 4.0f};
  TimeSeries filled = ForwardFill(s, 120.0);  // max 2 samples
  EXPECT_FLOAT_EQ(filled.values[1], 1.0f);
  EXPECT_FLOAT_EQ(filled.values[2], 1.0f);
  EXPECT_FLOAT_EQ(filled.values[3], 4.0f);
}

TEST(ForwardFillTest, LeavesLongGapsMissing) {
  TimeSeries s;
  s.interval_seconds = 60.0;
  s.values = {1.0f, kMissingValue, kMissingValue, kMissingValue, 5.0f};
  TimeSeries filled = ForwardFill(s, 120.0);
  EXPECT_FLOAT_EQ(filled.values[1], 1.0f);
  EXPECT_FLOAT_EQ(filled.values[2], 1.0f);
  EXPECT_TRUE(IsMissing(filled.values[3]));  // third consecutive gap sample
}

TEST(ForwardFillTest, NeverFillsLeadingMissing) {
  TimeSeries s;
  s.interval_seconds = 60.0;
  s.values = {kMissingValue, 2.0f};
  TimeSeries filled = ForwardFill(s, 600.0);
  EXPECT_TRUE(IsMissing(filled.values[0]));
}

TEST(WindowTest, TumblingOffsets) {
  auto offsets = TumblingWindowOffsets(10, 3);
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_EQ(offsets[0], 0);
  EXPECT_EQ(offsets[1], 3);
  EXPECT_EQ(offsets[2], 6);  // remainder [9,10) dropped
}

TEST(WindowTest, CompletenessCheck) {
  std::vector<float> v{1, 2, kMissingValue, 4};
  EXPECT_TRUE(WindowIsComplete(v, 0, 2));
  EXPECT_FALSE(WindowIsComplete(v, 1, 2));
  EXPECT_FALSE(WindowIsComplete(v, 2, 2));
}

// ---- Dataset building ----

HouseRecord MakeHouse(int id, int64_t n, float appliance_power_at,
                      int64_t on_start, int64_t on_len) {
  HouseRecord h;
  h.house_id = id;
  h.interval_seconds = 60.0;
  h.aggregate.assign(static_cast<size_t>(n), 100.0f);
  ApplianceTrace trace;
  trace.name = "dishwasher";
  trace.power.assign(static_cast<size_t>(n), 0.0f);
  for (int64_t t = on_start; t < on_start + on_len && t < n; ++t) {
    trace.power[static_cast<size_t>(t)] = appliance_power_at;
    h.aggregate[static_cast<size_t>(t)] += appliance_power_at;
  }
  h.appliances.push_back(trace);
  h.owned_appliances.push_back("dishwasher");
  return h;
}

TEST(DatasetTest, BuildsWindowsWithWeakLabels) {
  // 2 windows of 8; appliance ON inside the second window only.
  HouseRecord house = MakeHouse(1, 16, 900.0f, 10, 3);
  BuildOptions opt;
  opt.window_length = 8;
  ApplianceSpec spec{"dishwasher", 300.0f, 800.0f};
  auto result = BuildWindowDataset({house}, spec, opt);
  ASSERT_TRUE(result.ok());
  const WindowDataset& ds = result.value();
  ASSERT_EQ(ds.size(), 2);
  EXPECT_EQ(ds.weak_labels[0], 0);
  EXPECT_EQ(ds.weak_labels[1], 1);
  EXPECT_EQ(ds.PositiveCount(), 1);
  // Status thresholded at ON power.
  EXPECT_EQ(ds.status.at2(1, 2), 1.0f);  // t=10 -> window 1, offset 2
  EXPECT_EQ(ds.status.at2(1, 1), 0.0f);
  // Inputs scaled by 1/1000.
  EXPECT_NEAR(ds.inputs.at3(0, 0, 0), 0.1f, 1e-5);
  EXPECT_NEAR(ds.inputs.at3(1, 0, 2), 1.0f, 1e-5);
}

TEST(DatasetTest, LabelCountStrongVsWeak) {
  HouseRecord house = MakeHouse(1, 32, 900.0f, 4, 2);
  BuildOptions opt;
  opt.window_length = 8;
  ApplianceSpec spec{"dishwasher", 300.0f, 800.0f};
  auto ds = BuildWindowDataset({house}, spec, opt).value();
  EXPECT_EQ(ds.LabelCount(false), 4);       // one weak label per window
  EXPECT_EQ(ds.LabelCount(true), 4 * 8);    // one strong label per timestamp
}

TEST(DatasetTest, DropsIncompleteWindows) {
  HouseRecord house = MakeHouse(1, 16, 900.0f, 10, 3);
  house.aggregate[2] = kMissingValue;
  BuildOptions opt;
  opt.window_length = 8;
  ApplianceSpec spec{"dishwasher", 300.0f, 800.0f};
  auto ds = BuildWindowDataset({house}, spec, opt).value();
  EXPECT_EQ(ds.size(), 1);  // first window dropped
  EXPECT_EQ(ds.weak_labels[0], 1);
}

TEST(DatasetTest, PossessionLabelsReplicateOwnership) {
  HouseRecord owner;
  owner.house_id = 1;
  owner.aggregate.assign(16, 500.0f);
  owner.owned_appliances.push_back("dishwasher");
  HouseRecord non_owner;
  non_owner.house_id = 2;
  non_owner.aggregate.assign(16, 500.0f);

  BuildOptions opt;
  opt.window_length = 8;
  opt.possession_labels = true;
  ApplianceSpec spec{"dishwasher", 300.0f, 800.0f};
  auto ds = BuildWindowDataset({owner, non_owner}, spec, opt).value();
  ASSERT_EQ(ds.size(), 4);
  for (int64_t i = 0; i < ds.size(); ++i) {
    const bool from_owner = ds.house_ids[static_cast<size_t>(i)] == 1;
    EXPECT_EQ(ds.weak_labels[static_cast<size_t>(i)], from_owner ? 1 : 0);
  }
}

TEST(DatasetTest, SkipsNonSubmeteredHousesWithoutPossessionMode) {
  HouseRecord no_trace;
  no_trace.house_id = 3;
  no_trace.aggregate.assign(16, 500.0f);
  BuildOptions opt;
  opt.window_length = 8;
  ApplianceSpec spec{"dishwasher", 300.0f, 800.0f};
  EXPECT_FALSE(BuildWindowDataset({no_trace}, spec, opt).ok());
}

TEST(DatasetTest, RejectsBadOptions) {
  HouseRecord house = MakeHouse(1, 16, 900.0f, 10, 3);
  ApplianceSpec spec{"dishwasher", 300.0f, 800.0f};
  BuildOptions bad;
  bad.window_length = 0;
  EXPECT_FALSE(BuildWindowDataset({house}, spec, bad).ok());
}

TEST(DatasetTest, SubsetPreservesContent) {
  HouseRecord house = MakeHouse(1, 32, 900.0f, 4, 2);
  BuildOptions opt;
  opt.window_length = 8;
  ApplianceSpec spec{"dishwasher", 300.0f, 800.0f};
  auto ds = BuildWindowDataset({house}, spec, opt).value();
  auto sub = ds.Subset({2, 0});
  ASSERT_EQ(sub.size(), 2);
  EXPECT_EQ(sub.weak_labels[0], ds.weak_labels[2]);
  EXPECT_EQ(sub.inputs.at3(1, 0, 3), ds.inputs.at3(0, 0, 3));
}

TEST(DatasetTest, ConcatMergesAndValidates) {
  HouseRecord h1 = MakeHouse(1, 16, 900.0f, 10, 3);
  HouseRecord h2 = MakeHouse(2, 16, 900.0f, 2, 3);
  BuildOptions opt;
  opt.window_length = 8;
  ApplianceSpec spec{"dishwasher", 300.0f, 800.0f};
  auto a = BuildWindowDataset({h1}, spec, opt).value();
  auto b = BuildWindowDataset({h2}, spec, opt).value();
  auto cat = ConcatDatasets({a, b});
  ASSERT_TRUE(cat.ok());
  EXPECT_EQ(cat.value().size(), a.size() + b.size());

  auto bad = b;
  bad.window_length = 4;
  EXPECT_FALSE(ConcatDatasets({a, bad}).ok());
}

TEST(BalanceTest, EqualizesClasses) {
  HouseRecord house = MakeHouse(1, 80, 900.0f, 4, 2);  // 1 pos, 9 neg windows
  BuildOptions opt;
  opt.window_length = 8;
  ApplianceSpec spec{"dishwasher", 300.0f, 800.0f};
  auto ds = BuildWindowDataset({house}, spec, opt).value();
  ASSERT_TRUE(IsBalanceable(ds));
  Rng rng(1);
  auto balanced = BalanceByWeakLabel(ds, &rng);
  EXPECT_EQ(balanced.size(), 2);
  EXPECT_EQ(balanced.PositiveCount(), 1);
}

TEST(BalanceTest, SingleClassReturnsUnchanged) {
  HouseRecord house = MakeHouse(1, 16, 0.0f, 0, 0);  // never ON
  BuildOptions opt;
  opt.window_length = 8;
  ApplianceSpec spec{"dishwasher", 300.0f, 800.0f};
  auto ds = BuildWindowDataset({house}, spec, opt).value();
  EXPECT_FALSE(IsBalanceable(ds));
  Rng rng(1);
  auto balanced = BalanceByWeakLabel(ds, &rng);
  EXPECT_EQ(balanced.size(), ds.size());
}

TEST(ShuffleTest, PreservesMultiset) {
  HouseRecord house = MakeHouse(1, 80, 900.0f, 4, 2);
  BuildOptions opt;
  opt.window_length = 8;
  ApplianceSpec spec{"dishwasher", 300.0f, 800.0f};
  auto ds = BuildWindowDataset({house}, spec, opt).value();
  Rng rng(7);
  auto shuffled = ShuffleDataset(ds, &rng);
  EXPECT_EQ(shuffled.size(), ds.size());
  EXPECT_EQ(shuffled.PositiveCount(), ds.PositiveCount());
}

TEST(SplitTest, HouseLevelSplitIsDisjoint) {
  std::vector<HouseRecord> houses;
  for (int i = 0; i < 10; ++i) houses.push_back(MakeHouse(i, 16, 900.0f, 4, 2));
  Rng rng(5);
  auto split = SplitHouses(houses, 2, 3, &rng);
  ASSERT_TRUE(split.ok());
  const HouseSplit& s = split.value();
  EXPECT_EQ(s.valid.size(), 2u);
  EXPECT_EQ(s.test.size(), 3u);
  EXPECT_EQ(s.train.size(), 5u);
  std::set<int> ids;
  for (const auto& h : s.train) ids.insert(h.house_id);
  for (const auto& h : s.valid) ids.insert(h.house_id);
  for (const auto& h : s.test) ids.insert(h.house_id);
  EXPECT_EQ(ids.size(), 10u);
}

TEST(SplitTest, RejectsImpossibleCounts) {
  std::vector<HouseRecord> houses{MakeHouse(1, 16, 900.0f, 4, 2)};
  Rng rng(1);
  EXPECT_FALSE(SplitHouses(houses, 1, 1, &rng).ok());
  EXPECT_FALSE(SplitHouses(houses, -1, 0, &rng).ok());
}

TEST(SplitTest, FractionalSplit) {
  std::vector<HouseRecord> houses;
  for (int i = 0; i < 20; ++i) houses.push_back(MakeHouse(i, 16, 900.0f, 4, 2));
  Rng rng(5);
  auto split = SplitHousesFraction(houses, 0.1, 0.2, &rng);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split.value().valid.size(), 2u);
  EXPECT_EQ(split.value().test.size(), 4u);
  EXPECT_EQ(split.value().train.size(), 14u);
  EXPECT_FALSE(SplitHousesFraction(houses, 0.6, 0.5, &rng).ok());
}

}  // namespace
}  // namespace camal::data
