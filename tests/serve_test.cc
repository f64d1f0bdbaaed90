#include <gtest/gtest.h>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/ensemble.h"
#include "core/inception.h"
#include "core/localizer.h"
#include "core/resnet.h"
#include "data/csv_loader.h"
#include "data/time_series.h"
#include "data/window.h"
#include "serve/batch_runner.h"
#include "serve/request_queue.h"
#include "serve/service.h"
#include "serve/window_stream.h"
#include "session_timeline.h"

namespace camal {
namespace {

// Force a multi-thread pool even on single-core machines so default-sized
// services run several workers concurrently; an explicit CAMAL_THREADS
// (e.g. from CI) wins.
const bool kThreadsForced = [] {
  setenv("CAMAL_THREADS", "4", /*overwrite=*/0);
  return true;
}();

serve::WindowStreamOptions SmallStream(int64_t window, int64_t stride,
                                       int64_t batch) {
  serve::WindowStreamOptions opt;
  opt.window_length = window;
  opt.stride = stride;
  opt.batch_size = batch;
  return opt;
}

// Window offsets a one-series stream emits, in emission order.
std::vector<int64_t> StreamOffsets(const std::vector<float>& series,
                                   const serve::WindowStreamOptions& opt) {
  serve::MultiWindowStream stream({data::SeriesView(series)}, opt);
  nn::Tensor batch;
  std::vector<serve::WindowRef> refs;
  std::vector<int64_t> offsets;
  while (stream.NextBatch(&batch, &refs) > 0) {
    for (const serve::WindowRef& ref : refs) offsets.push_back(ref.offset);
  }
  return offsets;
}

TEST(MultiWindowStreamTest, CoversEveryTimestamp) {
  std::vector<float> series(100, 1.0f);
  std::vector<int> covered(series.size(), 0);
  for (int64_t off : StreamOffsets(series, SmallStream(16, 8, 4))) {
    ASSERT_GE(off, 0);
    ASSERT_LE(off + 16, static_cast<int64_t>(series.size()));
    for (int64_t t = off; t < off + 16; ++t) ++covered[static_cast<size_t>(t)];
  }
  for (size_t t = 0; t < series.size(); ++t) {
    EXPECT_GT(covered[t], 0) << "timestamp " << t << " uncovered";
  }
}

TEST(MultiWindowStreamTest, TailWindowAlignsToSeriesEnd) {
  // 20 samples, window 8, stride 8: grid covers [0,8) and [8,16); the tail
  // window [12,20) must be added for the last 4 samples.
  std::vector<float> series(20, 1.0f);
  const std::vector<int64_t> offsets =
      StreamOffsets(series, SmallStream(8, 8, 4));
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_EQ(offsets.back(), 12);
}

TEST(MultiWindowStreamTest, TailWindowExactFitIsNotDuplicated) {
  // 32 samples, window 16, stride 8: offsets {0, 8, 16}; the last grid
  // window already ends at the series end (offsets.back() + L == len), so
  // no extra tail window may be added.
  std::vector<float> series(32, 1.0f);
  const std::vector<int64_t> offsets =
      StreamOffsets(series, SmallStream(16, 8, 4));
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_EQ(offsets.back() + 16, static_cast<int64_t>(series.size()));
}

TEST(MultiWindowStreamTest, AllMissingWindowsAreZeroFilled) {
  std::vector<float> series(24, std::nanf(""));
  serve::MultiWindowStream stream({data::SeriesView(series)},
                                  SmallStream(16, 8, 4));
  nn::Tensor batch;
  std::vector<serve::WindowRef> refs;
  ASSERT_EQ(stream.NextBatch(&batch, &refs), 2);
  for (int64_t i = 0; i < batch.numel(); ++i) {
    EXPECT_EQ(batch.at(i), 0.0f) << "element " << i;
  }
}

TEST(MultiWindowStreamTest, NextBatchReusesCallerTensor) {
  std::vector<float> series(80, 1.0f);  // 5 windows of 16 at stride 16
  serve::MultiWindowStream stream({data::SeriesView(series)},
                                  SmallStream(16, 16, 2));
  nn::Tensor batch;
  std::vector<serve::WindowRef> refs;
  ASSERT_EQ(stream.NextBatch(&batch, &refs), 2);
  const float* storage = batch.data();
  ASSERT_EQ(stream.NextBatch(&batch, &refs), 2);
  EXPECT_EQ(batch.data(), storage);  // same shape: storage reused in place
  ASSERT_EQ(stream.NextBatch(&batch, &refs), 1);
  EXPECT_EQ(batch.ShapeString(), "(1, 1, 16)");  // short batch reshapes
}

TEST(MultiWindowStreamTest, ShortSeriesYieldsNothing) {
  std::vector<float> series(5, 1.0f);
  serve::MultiWindowStream stream({data::SeriesView(series)},
                                  SmallStream(8, 4, 2));
  EXPECT_EQ(stream.NumWindows(), 0);
  nn::Tensor batch;
  std::vector<serve::WindowRef> refs;
  EXPECT_EQ(stream.NextBatch(&batch, &refs), 0);
}

TEST(MultiWindowStreamTest, BatchesScaleAndZeroFillMissing) {
  std::vector<float> series(32, 2000.0f);
  series[3] = std::nanf("");
  serve::WindowStreamOptions opt = SmallStream(16, 16, 8);
  opt.input_scale = 1000.0f;
  serve::MultiWindowStream stream({data::SeriesView(series)}, opt);
  nn::Tensor batch;
  std::vector<serve::WindowRef> refs;
  ASSERT_EQ(stream.NextBatch(&batch, &refs), 2);
  EXPECT_EQ(batch.ShapeString(), "(2, 1, 16)");
  EXPECT_EQ(refs[0].offset, 0);
  EXPECT_EQ(refs[1].offset, 16);
  EXPECT_FLOAT_EQ(batch.at3(0, 0, 0), 2.0f);   // 2000 W / 1000
  EXPECT_FLOAT_EQ(batch.at3(0, 0, 3), 0.0f);   // missing reading
  EXPECT_EQ(stream.NextBatch(&batch, &refs), 0);
}

TEST(MultiWindowStreamTest, SmallFinalBatchIsEmitted) {
  std::vector<float> series(80, 1.0f);
  serve::MultiWindowStream stream({data::SeriesView(series)},
                                  SmallStream(16, 16, 4));
  nn::Tensor batch;
  std::vector<serve::WindowRef> refs;
  ASSERT_EQ(stream.NumWindows(), 5);
  EXPECT_EQ(stream.NextBatch(&batch, &refs), 4);
  EXPECT_EQ(stream.NextBatch(&batch, &refs), 1);
  EXPECT_EQ(stream.NextBatch(&batch, &refs), 0);
}

TEST(MultiWindowStreamTest, ComputeWindowOffsetsGridAndTail) {
  serve::WindowStreamOptions opt = SmallStream(16, 8, 4);
  // Exact grid fit, (len - L) % stride == 0: no duplicate tail offset.
  EXPECT_EQ(serve::ComputeWindowOffsets(32, opt),
            (std::vector<int64_t>{0, 8, 16}));
  // Trailing samples: tail window aligned to the series end is appended.
  EXPECT_EQ(serve::ComputeWindowOffsets(35, opt),
            (std::vector<int64_t>{0, 8, 16, 19}));
  // Shorter than one window: nothing.
  EXPECT_TRUE(serve::ComputeWindowOffsets(15, opt).empty());
  // Exactly one window.
  EXPECT_EQ(serve::ComputeWindowOffsets(16, opt),
            (std::vector<int64_t>{0}));
}

TEST(MultiWindowStreamTest, MergesSeriesWindowsAcrossBatchBoundaries) {
  // Series 0 has 3 windows (len 32, window 16, stride 8), series 1 has 5
  // (len 48): one shared stream of 8 windows. With batch_size 4 the second
  // batch spans the series boundary.
  Rng rng(43);
  std::vector<float> a(32), c(48);
  for (auto& v : a) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
  for (auto& v : c) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
  a[5] = std::nanf("");
  serve::WindowStreamOptions opt = SmallStream(16, 8, 4);
  const std::vector<const std::vector<float>*> series = {&a, &c};
  serve::MultiWindowStream stream({data::SeriesView(a), data::SeriesView(c)},
                                  opt);
  ASSERT_EQ(stream.NumWindows(), 8);

  // Series-major order: series 0's offsets first, then series 1's.
  const std::vector<std::pair<int32_t, int64_t>> want = {
      {0, 0}, {0, 8}, {0, 16}, {1, 0}, {1, 8}, {1, 16}, {1, 24}, {1, 32}};
  nn::Tensor batch;
  std::vector<serve::WindowRef> refs;
  size_t row = 0;
  int64_t b = 0;
  while ((b = stream.NextBatch(&batch, &refs)) > 0) {
    for (int64_t i = 0; i < b; ++i, ++row) {
      ASSERT_LT(row, want.size());
      EXPECT_EQ(refs[static_cast<size_t>(i)].series, want[row].first)
          << "ref " << row;
      EXPECT_EQ(refs[static_cast<size_t>(i)].offset, want[row].second)
          << "ref " << row;
      const std::vector<float>& src =
          *series[static_cast<size_t>(want[row].first)];
      for (int64_t t = 0; t < 16; ++t) {
        // The stream's exact arithmetic: zero-fill, then scale.
        const float v = src[static_cast<size_t>(want[row].second + t)];
        const float expected =
            data::IsMissing(v) ? 0.0f : v * (1.0f / opt.input_scale);
        EXPECT_EQ(batch.at(i * 16 + t), expected) << "row " << row;
      }
    }
  }
  EXPECT_EQ(row, want.size());
}

core::CamalEnsemble RandomEnsemble(uint64_t seed) {
  Rng rng(seed);
  std::vector<core::EnsembleMember> members;
  for (int64_t k : {5, 9}) {
    core::ResNetConfig config;
    config.base_filters = 4;
    config.kernel_size = k;
    core::EnsembleMember member;
    member.model = std::make_unique<core::ResNetClassifier>(config, &rng);
    member.kernel_size = k;
    members.push_back(std::move(member));
  }
  return core::CamalEnsemble::FromMembers(std::move(members));
}

TEST(BatchRunnerTest, ScanShapesAndRanges) {
  core::CamalEnsemble ensemble = RandomEnsemble(3);
  serve::BatchRunnerOptions opt;
  opt.stream = SmallStream(16, 8, 4);
  opt.appliance_avg_power_w = 700.0f;
  serve::BatchRunner runner(&ensemble, opt);

  Rng rng(4);
  std::vector<float> series(120);
  for (auto& v : series) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
  serve::ScanResult result = runner.Scan(series);

  ASSERT_EQ(result.detection.numel(), static_cast<int64_t>(series.size()));
  ASSERT_EQ(result.status.numel(), static_cast<int64_t>(series.size()));
  ASSERT_EQ(result.power.numel(), static_cast<int64_t>(series.size()));
  EXPECT_GT(result.windows, 0);
  for (int64_t t = 0; t < result.detection.numel(); ++t) {
    EXPECT_GE(result.detection.at(t), 0.0f);
    EXPECT_LE(result.detection.at(t), 1.0f);
    EXPECT_TRUE(result.status.at(t) == 0.0f || result.status.at(t) == 1.0f);
    // §IV-C: estimated power never exceeds P_a or the aggregate.
    EXPECT_LE(result.power.at(t), 700.0f);
    EXPECT_LE(result.power.at(t),
              std::max(0.0f, series[static_cast<size_t>(t)]));
  }
}

TEST(BatchRunnerTest, BatchSizeDoesNotChangeResults) {
  core::CamalEnsemble ensemble = RandomEnsemble(5);
  Rng rng(6);
  std::vector<float> series(96);
  for (auto& v : series) v = static_cast<float>(rng.Uniform(0.0, 2500.0));

  serve::BatchRunnerOptions small;
  small.stream = SmallStream(16, 8, 1);
  small.appliance_avg_power_w = 500.0f;
  serve::BatchRunnerOptions large = small;
  large.stream.batch_size = 32;

  serve::BatchRunner runner_small(&ensemble, small);
  serve::BatchRunner runner_large(&ensemble, large);
  serve::ScanResult a = runner_small.Scan(series);
  serve::ScanResult b = runner_large.Scan(series);
  ASSERT_EQ(a.windows, b.windows);
  for (int64_t t = 0; t < a.detection.numel(); ++t) {
    EXPECT_NEAR(a.detection.at(t), b.detection.at(t), 1e-4);
    EXPECT_EQ(a.status.at(t), b.status.at(t));
    EXPECT_NEAR(a.power.at(t), b.power.at(t), 1e-2);
  }
}

TEST(BatchRunnerTest, EmptySeriesReturnsZeros) {
  core::CamalEnsemble ensemble = RandomEnsemble(7);
  serve::BatchRunnerOptions opt;
  opt.stream = SmallStream(32, 16, 4);
  serve::BatchRunner runner(&ensemble, opt);
  serve::ScanResult result = runner.Scan(std::vector<float>());
  EXPECT_EQ(result.windows, 0);
  EXPECT_EQ(result.detection.numel(), 0);
  EXPECT_EQ(result.status.numel(), 0);
  EXPECT_EQ(result.power.numel(), 0);
}

TEST(BatchRunnerTest, ShortSeriesIsLeftPaddedAndScanned) {
  // Regression: series shorter than one window used to return all-zero
  // detection/status/power without ever consulting the model. They are now
  // left-padded with zeros to a single window and scanned for real.
  core::CamalEnsemble ensemble = RandomEnsemble(7);
  serve::BatchRunnerOptions opt;
  opt.stream = SmallStream(32, 16, 4);
  opt.appliance_avg_power_w = 700.0f;
  serve::BatchRunner runner(&ensemble, opt);

  Rng rng(9);
  std::vector<float> series(10);
  for (auto& v : series) v = static_cast<float>(rng.Uniform(500.0, 3000.0));
  serve::ScanResult result = runner.Scan(series);
  ASSERT_EQ(result.detection.numel(), 10);
  EXPECT_EQ(result.windows, 1);  // exactly one left-padded window
  // The ensemble's softmax probability is strictly positive, so a scan
  // that actually consulted the model cannot report zero detection.
  EXPECT_GT(result.detection.at(0), 0.0f);

  // The same window, padded by hand, must produce identical predictions
  // on the real samples (the pad occupies the first 22 positions).
  std::vector<float> padded(32, 0.0f);
  std::copy(series.begin(), series.end(), padded.begin() + 22);
  serve::ScanResult reference = runner.Scan(padded);
  ASSERT_EQ(reference.windows, 1);
  for (int64_t t = 0; t < 10; ++t) {
    EXPECT_EQ(result.detection.at(t), reference.detection.at(t + 22));
    EXPECT_EQ(result.status.at(t), reference.status.at(t + 22));
    EXPECT_EQ(result.power.at(t), reference.power.at(t + 22));
  }
}

TEST(BatchRunnerTest, ExactFitTailStitchesWithoutDuplicateWindows) {
  // (len - L) % stride == 0: the last grid window already touches the
  // series end, so no tail window may be added — a duplicate offset would
  // double the last window's stitch votes (and its weight in the
  // detection mean).
  core::CamalEnsemble ensemble = RandomEnsemble(45);
  serve::BatchRunnerOptions opt;
  opt.stream = SmallStream(16, 8, 4);
  opt.appliance_avg_power_w = 700.0f;
  serve::BatchRunner runner(&ensemble, opt);

  Rng rng(46);
  std::vector<float> series(32);
  for (auto& v : series) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
  serve::ScanResult result = runner.Scan(series);
  EXPECT_EQ(result.windows, 3);  // offsets {0, 8, 16}, no tail duplicate

  // One extra sample breaks the exact fit; the tail window appears.
  series.push_back(1500.0f);
  serve::ScanResult longer = runner.Scan(series);
  EXPECT_EQ(longer.windows, 4);  // offsets {0, 8, 16, 17}
}

TEST(BatchRunnerTest, EntirelyMissingSeriesReportsZeroPower) {
  // A series that is all NaN still scans (zero-filled windows are real
  // model input), but whatever the ensemble votes, no timestamp may
  // report appliance power: there is no observed aggregate to assign.
  core::CamalEnsemble ensemble = RandomEnsemble(47);
  serve::BatchRunnerOptions opt;
  opt.stream = SmallStream(16, 8, 4);
  opt.appliance_avg_power_w = 900.0f;
  serve::BatchRunner runner(&ensemble, opt);

  std::vector<float> series(40, std::nanf(""));
  serve::ScanResult result = runner.Scan(series);
  ASSERT_EQ(result.detection.numel(), 40);
  EXPECT_GT(result.windows, 0);
  for (int64_t t = 0; t < 40; ++t) {
    EXPECT_GE(result.detection.at(t), 0.0f);
    EXPECT_LE(result.detection.at(t), 1.0f);
    EXPECT_TRUE(result.status.at(t) == 0.0f || result.status.at(t) == 1.0f);
    EXPECT_EQ(result.power.at(t), 0.0f) << "phantom power at " << t;
  }
}

TEST(BatchRunnerTest, MissingTimestampsNeverReportPower) {
  // Mixed series: NaN readings scattered through a strong activation.
  // Even when overlapping-window votes turn a missing timestamp ON, its
  // estimated power must be exactly 0 — the §IV-C estimate needs an
  // observed aggregate to price the activation.
  core::CamalEnsemble ensemble = RandomEnsemble(49);
  serve::BatchRunnerOptions opt;
  opt.stream = SmallStream(16, 8, 4);
  opt.appliance_avg_power_w = 700.0f;
  serve::BatchRunner runner(&ensemble, opt);

  Rng rng(50);
  std::vector<float> series(96);
  for (auto& v : series) v = static_cast<float>(rng.Uniform(1000.0, 3000.0));
  for (size_t t = 7; t < series.size(); t += 9) series[t] = std::nanf("");
  serve::ScanResult result = runner.Scan(series);
  int64_t on_count = 0;
  for (int64_t t = 0; t < result.status.numel(); ++t) {
    on_count += result.status.at(t) > 0.5f ? 1 : 0;
    if (std::isnan(series[static_cast<size_t>(t)])) {
      EXPECT_EQ(result.power.at(t), 0.0f) << "phantom power at " << t;
    }
  }
  // The high-power series should produce some activations, so the
  // assertion above is not vacuous for every seed drift.
  EXPECT_GT(on_count, 0);
}

TEST(BatchRunnerTest, ScanManyMatchesLoneScansBitwise) {
  // The coalescing contract: one shared feed phase over several series —
  // batches filling across series boundaries — must reproduce every lone
  // Scan bit for bit. Covers regular, short (left-padded), empty, and
  // all-NaN series in one group.
  core::CamalEnsemble ensemble = RandomEnsemble(51);
  serve::BatchRunnerOptions opt;
  opt.stream = SmallStream(16, 8, 4);
  opt.appliance_avg_power_w = 650.0f;
  serve::BatchRunner coalesced(&ensemble, opt);
  serve::BatchRunner sequential(&ensemble, opt);

  Rng rng(52);
  std::vector<std::vector<float>> cohort;
  for (int64_t len : {70, 9, 0, 41, 33, 120}) {
    std::vector<float> series(static_cast<size_t>(len));
    for (auto& v : series) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
    if (len == 41) series.assign(series.size(), std::nanf(""));
    cohort.push_back(std::move(series));
  }
  std::vector<data::SeriesView> views(cohort.begin(), cohort.end());
  views.push_back(views[1]);  // entries may repeat: one view, twice

  std::vector<serve::ScanResult> group = coalesced.ScanMany(views);
  ASSERT_EQ(group.size(), views.size());
  for (size_t i = 0; i < views.size(); ++i) {
    serve::ScanResult expected = sequential.Scan(views[i]);
    ASSERT_EQ(group[i].windows, expected.windows) << "series " << i;
    ASSERT_EQ(group[i].detection.numel(), expected.detection.numel());
    for (int64_t t = 0; t < expected.detection.numel(); ++t) {
      EXPECT_EQ(group[i].detection.at(t), expected.detection.at(t))
          << "series " << i << " t " << t;
      EXPECT_EQ(group[i].status.at(t), expected.status.at(t));
      EXPECT_EQ(group[i].power.at(t), expected.power.at(t));
    }
  }

  // Scratch reuse across calls must not leak one group's votes into the
  // next: a second ScanMany over a permuted group stays bitwise-equal.
  std::vector<data::SeriesView> reversed(views.rbegin(), views.rend());
  std::vector<serve::ScanResult> second = coalesced.ScanMany(reversed);
  for (size_t i = 0; i < reversed.size(); ++i) {
    serve::ScanResult expected = sequential.Scan(reversed[i]);
    ASSERT_EQ(second[i].windows, expected.windows) << "series " << i;
    for (int64_t t = 0; t < expected.detection.numel(); ++t) {
      EXPECT_EQ(second[i].detection.at(t), expected.detection.at(t));
      EXPECT_EQ(second[i].status.at(t), expected.status.at(t));
      EXPECT_EQ(second[i].power.at(t), expected.power.at(t));
    }
  }
}

TEST(BatchRunnerTest, StitchMatchesPerWindowOracleBitwise) {
  // The vote itself, pinned by an oracle that shares no code with the
  // runner: every window is localized alone on a (1, 1, L) tensor, its
  // offsets listed here (stride grid, then the end tail when the grid
  // leaves one), and its votes summed in that order. Lone scans and
  // sessions fed in uneven chunks (their suffixes overlaid into one
  // timeline) must both land on the oracle's bits.
  core::CamalEnsemble ensemble = RandomEnsemble(56);
  core::CamalLocalizer localizer(&ensemble);
  const int64_t l = 16, stride = 8;
  Rng rng(57);
  std::vector<std::vector<float>> cohort;
  for (int64_t len : {9, 32, 70, 121}) {
    std::vector<float> series(static_cast<size_t>(len));
    for (auto& v : series) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
    if (len == 70) {
      for (size_t t = 0; t < series.size(); t += 7) series[t] = std::nanf("");
    }
    cohort.push_back(std::move(series));
  }

  int64_t split_votes = 0;  // timestamps where 2 * on == cover > 0
  for (int64_t batch : {1, 4, 32}) {
    serve::BatchRunnerOptions opt;
    opt.stream = SmallStream(l, stride, batch);
    opt.appliance_avg_power_w = 650.0f;
    serve::BatchRunner runner(&ensemble, opt);
    for (const std::vector<float>& series : cohort) {
      const int64_t len = static_cast<int64_t>(series.size());
      // A short series is scanned as one left-zero-padded window.
      const int64_t pad = std::max<int64_t>(l - len, 0);
      std::vector<float> padded(static_cast<size_t>(pad), 0.0f);
      padded.insert(padded.end(), series.begin(), series.end());
      const int64_t n = len + pad;
      std::vector<int64_t> offsets;
      for (int64_t off = 0; off + l <= n; off += stride) offsets.push_back(off);
      if ((n - l) % stride != 0) offsets.push_back(n - l);

      std::vector<float> sum(static_cast<size_t>(n), 0.0f);
      std::vector<int32_t> cover(static_cast<size_t>(n), 0);
      std::vector<int32_t> on(static_cast<size_t>(n), 0);
      for (int64_t off : offsets) {
        nn::Tensor window({1, 1, l});
        for (int64_t t = 0; t < l; ++t) {
          const float v = padded[static_cast<size_t>(off + t)];
          window.at(t) =
              data::IsMissing(v) ? 0.0f : v * (1.0f / opt.stream.input_scale);
        }
        core::LocalizationResult loc = localizer.Localize(window);
        for (int64_t t = 0; t < l; ++t) {
          const size_t s = static_cast<size_t>(off + t);
          sum[s] += loc.probabilities.at(0);
          ++cover[s];
          if (loc.status.at2(0, t) > 0.5f) ++on[s];
        }
      }

      serve::ScanResult lone = runner.Scan(series);
      EXPECT_EQ(lone.windows, static_cast<int64_t>(offsets.size()));
      ASSERT_EQ(lone.windows_full, static_cast<int64_t>(offsets.size()));
      ASSERT_EQ(lone.from, 0);
      SessionTimeline lone_timeline;
      lone_timeline.Overlay(lone);
      serve::SessionScanState state;
      SessionTimeline streamed;
      int64_t windows_full = 0;
      for (int64_t begin = 0; begin < len; begin += 11) {
        const int64_t count = std::min<int64_t>(11, len - begin);
        serve::ScanResult suffix = runner.AppendScan(
            &state, data::SeriesView(series.data() + begin, count));
        ASSERT_EQ(suffix.from + suffix.detection.numel(), state.readings());
        windows_full = suffix.windows_full;
        streamed.Overlay(suffix);
      }
      ASSERT_EQ(windows_full, static_cast<int64_t>(offsets.size()));
      for (const SessionTimeline* result : {&lone_timeline, &streamed}) {
        ASSERT_EQ(static_cast<int64_t>(result->detection.size()), len)
            << "len " << len << " batch " << batch;
        for (int64_t t = 0; t < len; ++t) {
          const size_t s = static_cast<size_t>(t + pad);
          ASSERT_GT(cover[s], 0);
          if (on[s] > 0 && 2 * on[s] == cover[s]) ++split_votes;
          EXPECT_EQ(result->detection[static_cast<size_t>(t)],
                    sum[s] / static_cast<float>(cover[s]))
              << "len " << len << " batch " << batch << " t " << t;
          EXPECT_EQ(result->status[static_cast<size_t>(t)],
                    2 * on[s] > cover[s] ? 1.0f : 0.0f)
              << "len " << len << " batch " << batch << " t " << t;
        }
      }
    }
  }
  // Split votes must occur, or the majority rule goes unchecked.
  EXPECT_GT(split_votes, 0);
}

std::vector<std::vector<float>> SyntheticCohort(int households,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> cohort;
  cohort.reserve(static_cast<size_t>(households));
  for (int h = 0; h < households; ++h) {
    // Mixed lengths, including one shorter than the 16-sample window so
    // the padding path runs inside a service worker too.
    const int64_t len = h == 4 ? 9 : 80 + 13 * h;
    std::vector<float> series(static_cast<size_t>(len));
    for (auto& v : series) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
    cohort.push_back(std::move(series));
  }
  return cohort;
}

// ---------------------------------------------------------------------
// RequestQueue: the bounded MPMC admission queue under the service.
// ---------------------------------------------------------------------

serve::QueuedScan MakeTask(const std::vector<float>* series) {
  serve::QueuedScan task;
  task.request.appliance = "appliance";
  task.request.series = data::SeriesView(*series);
  task.admitted = std::chrono::steady_clock::now();
  return task;
}

// Pops the head task alone: PopGroup with no drain budget.
bool PopOne(serve::RequestQueue* queue, serve::QueuedScan* out) {
  std::vector<serve::QueuedScan> extras;
  return queue->PopGroup(out, &extras, 0);
}

TEST(RequestQueueTest, PushPopIsFifo) {
  std::vector<float> series(4, 1.0f);
  serve::RequestQueue queue(/*capacity=*/4);
  for (int i = 0; i < 3; ++i) {
    serve::QueuedScan task = MakeTask(&series);
    task.request.household_id = std::to_string(i);
    ASSERT_TRUE(queue.Push(&task).ok());
  }
  EXPECT_EQ(queue.size(), 3);
  serve::QueuedScan out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(PopOne(&queue, &out));
    EXPECT_EQ(out.request.household_id, std::to_string(i));
  }
  EXPECT_EQ(queue.size(), 0);
}

TEST(RequestQueueTest, RejectsWhenFullAndLeavesTaskIntact) {
  std::vector<float> series(4, 1.0f);
  serve::RequestQueue queue(/*capacity=*/2);
  serve::QueuedScan a = MakeTask(&series);
  serve::QueuedScan b = MakeTask(&series);
  ASSERT_TRUE(queue.Push(&a).ok());
  ASSERT_TRUE(queue.Push(&b).ok());

  serve::QueuedScan c = MakeTask(&series);
  std::future<Result<serve::ScanResult>> future = c.promise.get_future();
  Status rejected = queue.Push(&c);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  // The rejected task still owns its promise: the caller can fail it.
  c.promise.set_value(Result<serve::ScanResult>(rejected));
  EXPECT_FALSE(future.get().ok());

  // Popping one admits one again.
  serve::QueuedScan out;
  ASSERT_TRUE(PopOne(&queue, &out));
  serve::QueuedScan d = MakeTask(&series);
  EXPECT_TRUE(queue.Push(&d).ok());
}

TEST(RequestQueueTest, CloseStopsAdmissionButDrainsBacklog) {
  std::vector<float> series(4, 1.0f);
  serve::RequestQueue queue(/*capacity=*/4);
  serve::QueuedScan a = MakeTask(&series);
  serve::QueuedScan b = MakeTask(&series);
  ASSERT_TRUE(queue.Push(&a).ok());
  ASSERT_TRUE(queue.Push(&b).ok());
  queue.Close();
  EXPECT_TRUE(queue.closed());

  serve::QueuedScan late = MakeTask(&series);
  EXPECT_EQ(queue.Push(&late).code(), StatusCode::kFailedPrecondition);

  // Graceful shutdown contract: admitted tasks are still poppable, then
  // PopGroup reports exhaustion.
  serve::QueuedScan out;
  EXPECT_TRUE(PopOne(&queue, &out));
  EXPECT_TRUE(PopOne(&queue, &out));
  EXPECT_FALSE(PopOne(&queue, &out));
  EXPECT_FALSE(PopOne(&queue, &out));  // stays drained
}

TEST(RequestQueueTest, PopBlocksUntilPushOrClose) {
  std::vector<float> series(4, 1.0f);
  serve::RequestQueue queue(/*capacity=*/0);  // unbounded
  std::atomic<int> popped{0};
  std::thread consumer([&] {
    serve::QueuedScan out;
    while (PopOne(&queue, &out)) popped.fetch_add(1);
  });
  for (int i = 0; i < 5; ++i) {
    serve::QueuedScan task = MakeTask(&series);
    ASSERT_TRUE(queue.Push(&task).ok());
  }
  queue.Close();
  consumer.join();
  EXPECT_EQ(popped.load(), 5);
}

serve::QueuedScan MakeApplianceTask(const std::vector<float>* series,
                                    const std::string& appliance,
                                    const std::string& id) {
  serve::QueuedScan task = MakeTask(series);
  task.request.appliance = appliance;
  task.request.household_id = id;
  return task;
}

TEST(RequestQueueTest, PopGroupDrainsSameApplianceKeepingOthersInOrder) {
  std::vector<float> series(4, 1.0f);
  serve::RequestQueue queue(/*capacity=*/0);
  for (const auto& [appliance, id] :
       std::vector<std::pair<std::string, std::string>>{{"a", "a1"},
                                                        {"b", "b1"},
                                                        {"a", "a2"},
                                                        {"c", "c1"},
                                                        {"a", "a3"},
                                                        {"a", "a4"}}) {
    serve::QueuedScan task = MakeApplianceTask(&series, appliance, id);
    ASSERT_TRUE(queue.Push(&task).ok());
  }

  // Head is a1; budget 2 drains a2 and a3 (admission order), skipping b1
  // and c1; a4 is beyond the budget and stays queued behind them.
  serve::QueuedScan first;
  std::vector<serve::QueuedScan> extras;
  ASSERT_TRUE(queue.PopGroup(&first, &extras, 2));
  EXPECT_EQ(first.request.household_id, "a1");
  ASSERT_EQ(extras.size(), 2u);
  EXPECT_EQ(extras[0].request.household_id, "a2");
  EXPECT_EQ(extras[1].request.household_id, "a3");
  EXPECT_EQ(queue.size(), 3);

  // The bypassed appliances kept their relative order: b1, c1, then a4.
  serve::QueuedScan out;
  ASSERT_TRUE(PopOne(&queue, &out));
  EXPECT_EQ(out.request.household_id, "b1");
  ASSERT_TRUE(queue.PopGroup(&first, &extras, 4));
  EXPECT_EQ(first.request.household_id, "c1");
  EXPECT_TRUE(extras.empty());  // no other 'c' request waits
  ASSERT_TRUE(queue.PopGroup(&first, &extras, 4));
  EXPECT_EQ(first.request.household_id, "a4");
  EXPECT_TRUE(extras.empty());
  EXPECT_EQ(queue.size(), 0);
}

TEST(RequestQueueTest, PopGroupWithZeroBudgetTakesOnlyTheHead) {
  std::vector<float> series(4, 1.0f);
  serve::RequestQueue queue(/*capacity=*/0);
  serve::QueuedScan a = MakeApplianceTask(&series, "a", "a1");
  serve::QueuedScan b = MakeApplianceTask(&series, "a", "a2");
  ASSERT_TRUE(queue.Push(&a).ok());
  ASSERT_TRUE(queue.Push(&b).ok());

  serve::QueuedScan first;
  std::vector<serve::QueuedScan> extras;
  ASSERT_TRUE(queue.PopGroup(&first, &extras, 0));
  EXPECT_EQ(first.request.household_id, "a1");
  EXPECT_TRUE(extras.empty());
  EXPECT_EQ(queue.size(), 1);

  // Closed-and-drained reports exhaustion.
  ASSERT_TRUE(queue.PopGroup(&first, &extras, 8));
  EXPECT_EQ(first.request.household_id, "a2");
  queue.Close();
  EXPECT_FALSE(queue.PopGroup(&first, &extras, 8));
}

TEST(RequestQueueTest, PushReportsBackpressureDistinctFromShutdown) {
  std::vector<float> series(4, 1.0f);
  serve::RequestQueue queue(/*capacity=*/1);
  serve::QueuedScan a = MakeTask(&series);
  ASSERT_TRUE(queue.Push(&a).ok());

  // Full queue: rejection flagged as backpressure.
  serve::QueuedScan b = MakeTask(&series);
  bool rejected_full = false;
  EXPECT_EQ(queue.Push(&b, &rejected_full).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(rejected_full);

  // Closed queue: same code, but not backpressure.
  queue.Close();
  serve::QueuedScan c = MakeTask(&series);
  rejected_full = true;
  EXPECT_EQ(queue.Push(&c, &rejected_full).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(rejected_full);
}

TEST(RequestQueueTest, AnnotatedLockPathKeepsAllNormalTrafficBitwiseFifo) {
  // PR 9 moved RequestQueue onto the annotated camal::Mutex/CondVar so
  // clang's thread-safety analysis proves the locking discipline at
  // compile time; the migration must be behavior-neutral. All-kNormal
  // traffic is the PR 8 degenerate case in which the priority scheduler
  // must reproduce plain FIFO bit for bit — asserted here as exact
  // admission-order service across PopGroup with and without a drain
  // budget (MutexLock scopes plus the CondVar wait loop) while a
  // concurrent producer races the consumer in and out of waits.
  std::vector<float> series(4, 1.0f);
  serve::RequestQueue queue(/*capacity=*/0);
  constexpr int kTasks = 96;
  std::vector<std::string> served;  // written by consumer, read after join
  std::thread consumer([&] {
    serve::QueuedScan first;
    std::vector<serve::QueuedScan> extras;
    bool use_group = false;
    for (;;) {
      if (use_group) {
        if (!queue.PopGroup(&first, &extras, /*budget=*/4)) break;
        served.push_back(first.request.household_id);
        for (const auto& extra : extras) {
          served.push_back(extra.request.household_id);
        }
      } else {
        if (!PopOne(&queue, &first)) break;
        served.push_back(first.request.household_id);
      }
      use_group = !use_group;
    }
  });
  for (int i = 0; i < kTasks; ++i) {
    // One appliance, one (default) priority: every PopGroup drain is
    // eligible for every queued task, so any reordering the new lock
    // path introduced would surface as an out-of-place id below.
    serve::QueuedScan task =
        MakeApplianceTask(&series, "fridge", std::to_string(i));
    ASSERT_TRUE(queue.Push(&task).ok());
    if (i % 7 == 0) {
      // Let the consumer drain dry periodically so it re-enters the
      // CondVar wait path instead of always finding a backlog.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  queue.Close();
  consumer.join();
  ASSERT_EQ(served.size(), static_cast<size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(served[i], std::to_string(i)) << "position " << i;
  }
}

serve::QueuedScan MakePriorityTask(const std::vector<float>* series,
                                   serve::RequestPriority priority,
                                   const std::string& id) {
  serve::QueuedScan task = MakeTask(series);
  task.request.priority = priority;
  task.request.household_id = id;
  return task;
}

TEST(RequestQueueTest, PopPrefersHigherPriorityKeepingFifoWithinClass) {
  std::vector<float> series(4, 1.0f);
  serve::RequestQueue queue(/*capacity=*/0);
  using serve::RequestPriority;
  for (const auto& [priority, id] :
       std::vector<std::pair<RequestPriority, std::string>>{
           {RequestPriority::kNormal, "n1"},
           {RequestPriority::kLow, "l1"},
           {RequestPriority::kHigh, "h1"},
           {RequestPriority::kNormal, "n2"},
           {RequestPriority::kHigh, "h2"}}) {
    serve::QueuedScan task = MakePriorityTask(&series, priority, id);
    ASSERT_TRUE(queue.Push(&task).ok());
  }

  // Most-urgent class first; admission (FIFO) order within each class.
  serve::QueuedScan out;
  for (const char* expected : {"h1", "h2", "n1", "n2", "l1"}) {
    ASSERT_TRUE(PopOne(&queue, &out));
    EXPECT_EQ(out.request.household_id, expected);
  }
  EXPECT_EQ(queue.size(), 0);
}

TEST(RequestQueueTest, PopGroupGroupsOnlySamePriority) {
  std::vector<float> series(4, 1.0f);
  serve::RequestQueue queue(/*capacity=*/0);
  using serve::RequestPriority;
  serve::QueuedScan n1 = MakePriorityTask(&series, RequestPriority::kNormal,
                                          "n1");
  serve::QueuedScan h1 = MakePriorityTask(&series, RequestPriority::kHigh,
                                          "h1");
  serve::QueuedScan n2 = MakePriorityTask(&series, RequestPriority::kNormal,
                                          "n2");
  serve::QueuedScan h2 = MakePriorityTask(&series, RequestPriority::kHigh,
                                          "h2");
  serve::QueuedScan hb = MakePriorityTask(&series, RequestPriority::kHigh,
                                          "hb");
  hb.request.appliance = "boiler";
  for (serve::QueuedScan* task : {&n1, &h1, &n2, &h2, &hb}) {
    ASSERT_TRUE(queue.Push(task).ok());
  }

  // The head jumps to h1 (highest class). Extras may only be same
  // appliance AND same priority: h2 joins, but n1/n2 (lower class, same
  // appliance) and hb (same class, other appliance) must not ride along
  // in a group whose batching order ignores their own class boundaries.
  serve::QueuedScan first;
  std::vector<serve::QueuedScan> extras;
  ASSERT_TRUE(queue.PopGroup(&first, &extras, 8));
  EXPECT_EQ(first.request.household_id, "h1");
  ASSERT_EQ(extras.size(), 1u);
  EXPECT_EQ(extras[0].request.household_id, "h2");

  // hb is now the most urgent; the normals follow in admission order.
  serve::QueuedScan out;
  for (const char* expected : {"hb", "n1", "n2"}) {
    ASSERT_TRUE(PopOne(&queue, &out));
    EXPECT_EQ(out.request.household_id, expected);
  }
}

TEST(RequestQueueTest, AdaptiveDrainBudgetPolicy) {
  using serve::RequestQueue;
  // Deep backlog, no idle siblings: coalesce at full configured budget.
  EXPECT_EQ(RequestQueue::AdaptiveDrainBudget(8, 100, 0), 8);
  // Backlog smaller than the budget: never drain more than is waiting.
  EXPECT_EQ(RequestQueue::AdaptiveDrainBudget(8, 4, 0), 4);
  // Idle siblings carve their share out of the backlog first.
  EXPECT_EQ(RequestQueue::AdaptiveDrainBudget(8, 4, 3), 1);
  EXPECT_EQ(RequestQueue::AdaptiveDrainBudget(8, 4, 4), 0);
  // More idle workers than backlog: no coalescing at all, floor at 0.
  EXPECT_EQ(RequestQueue::AdaptiveDrainBudget(8, 2, 100), 0);
  // Degenerate inputs stay sane.
  EXPECT_EQ(RequestQueue::AdaptiveDrainBudget(0, 100, 0), 0);
  EXPECT_EQ(RequestQueue::AdaptiveDrainBudget(8, 0, 0), 0);
  EXPECT_EQ(RequestQueue::AdaptiveDrainBudget(8, 100, -3), 8);
}

TEST(RequestQueueTest, SpareConsumersPolicy) {
  using serve::RequestQueue;
  // A blocked consumer is spare when the backlog left after a pop holds
  // no task for it: waiting - backlog, floored at 0. One row per waiting
  // count 0-3, one digit per backlog 0-5.
  const char* const want[] = {"000000", "100000", "210000", "321000"};
  for (int64_t waiting = 0; waiting < 4; ++waiting) {
    for (int64_t backlog = 0; backlog < 6; ++backlog) {
      EXPECT_EQ(RequestQueue::SpareConsumers(waiting, backlog),
                want[waiting][backlog] - '0')
          << "waiting " << waiting << " backlog " << backlog;
    }
  }
}

TEST(RequestQueueTest, PopGroupReportsSpareConsumers) {
  // Three consumers park on an empty queue; tasks then arrive one at a
  // time, each popped before the next is pushed. Whoever pops a task
  // sees the consumers still parked, with no backlog to wake them:
  // 2, then 1, then 0 spare. A lone consumer over a backlog has none.
  std::vector<float> series(4, 1.0f);
  serve::RequestQueue queue(/*capacity=*/0);
  std::vector<int> spare(3, -1);
  std::vector<std::thread> consumers;
  for (size_t c = 0; c < spare.size(); ++c) {
    consumers.emplace_back([&queue, &spare, c] {
      serve::QueuedScan task;
      std::vector<serve::QueuedScan> extras;
      EXPECT_TRUE(queue.PopGroup(&task, &extras, 8, &spare[c]));
    });
  }
  for (int64_t parked = 3; parked > 0; --parked) {
    while (queue.waiting_consumers() != parked) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    serve::QueuedScan task = MakeApplianceTask(&series, "a", "t");
    ASSERT_TRUE(queue.Push(&task).ok());
  }
  for (std::thread& consumer : consumers) consumer.join();
  std::sort(spare.begin(), spare.end());
  EXPECT_EQ(spare, (std::vector<int>{0, 1, 2}));

  for (int t = 0; t < 3; ++t) {
    serve::QueuedScan task = MakeApplianceTask(&series, "b", "u");
    ASSERT_TRUE(queue.Push(&task).ok());
  }
  serve::QueuedScan first;
  std::vector<serve::QueuedScan> extras;
  int lone = -1;
  ASSERT_TRUE(queue.PopGroup(&first, &extras, 0, &lone));
  EXPECT_EQ(lone, 0);
  queue.Close();
}

TEST(RequestQueueTest, PopGroupLeavesWorkForIdleSiblings) {
  std::vector<float> series(4, 1.0f);
  serve::RequestQueue queue(/*capacity=*/0);

  // Control: with no idle sibling, a 2-deep same-appliance backlog
  // coalesces into one group under a generous budget.
  serve::QueuedScan a1 = MakeApplianceTask(&series, "a", "a1");
  serve::QueuedScan a2 = MakeApplianceTask(&series, "a", "a2");
  ASSERT_TRUE(queue.Push(&a1).ok());
  ASSERT_TRUE(queue.Push(&a2).ok());
  serve::QueuedScan first;
  std::vector<serve::QueuedScan> extras;
  ASSERT_TRUE(queue.PopGroup(&first, &extras, 8));
  EXPECT_EQ(extras.size(), 1u);
  EXPECT_EQ(queue.size(), 0);

  // Now park a sibling consumer in PopGroup on the empty queue...
  std::atomic<int> sibling_popped{0};
  std::thread sibling([&] {
    serve::QueuedScan out;
    if (PopOne(&queue, &out)) sibling_popped.fetch_add(1);
  });
  while (queue.waiting_consumers() != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // ...and replay the same 2-deep backlog. Whatever the wakeup race, the
  // adaptive budget must keep this PopGroup from draining the sibling's
  // share: either the sibling grabs one first (backlog 1 when we pop), or
  // we pop first and see one idle consumer against a backlog of one
  // remaining task — budget 0 both ways. Each consumer serves exactly one.
  serve::QueuedScan b1 = MakeApplianceTask(&series, "a", "b1");
  serve::QueuedScan b2 = MakeApplianceTask(&series, "a", "b2");
  ASSERT_TRUE(queue.Push(&b1).ok());
  ASSERT_TRUE(queue.Push(&b2).ok());
  ASSERT_TRUE(queue.PopGroup(&first, &extras, 8));
  EXPECT_TRUE(extras.empty());
  sibling.join();
  EXPECT_EQ(sibling_popped.load(), 1);
  EXPECT_EQ(queue.size(), 0);
  queue.Close();
}

// ---------------------------------------------------------------------
// serve::Service: the asynchronous multi-appliance facade.
// ---------------------------------------------------------------------

serve::BatchRunnerOptions SmallRunner(int64_t window, int64_t stride,
                                      int64_t batch, float avg_power_w) {
  serve::BatchRunnerOptions opt;
  opt.stream = SmallStream(window, stride, batch);
  opt.appliance_avg_power_w = avg_power_w;
  return opt;
}

TEST(ServiceTest, LifecycleAndRegistrationAreValidated) {
  core::CamalEnsemble ensemble = RandomEnsemble(19);
  const serve::BatchRunnerOptions runner = SmallRunner(16, 8, 4, 500.0f);
  serve::Service service;

  // Registration errors are Status, not aborts.
  EXPECT_EQ(service.RegisterAppliance("", &ensemble, runner).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.RegisterAppliance("fridge", nullptr, runner).code(),
            StatusCode::kInvalidArgument);
  // Starting with no appliances is refused.
  EXPECT_EQ(service.Start().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(service.RegisterAppliance("fridge", &ensemble, runner).ok());
  EXPECT_EQ(service.RegisterAppliance("fridge", &ensemble, runner).code(),
            StatusCode::kInvalidArgument);  // duplicate

  // Submitting before Start is refused through the future.
  std::vector<float> series(40, 1.0f);
  serve::ScanRequest request;
  request.appliance = "fridge";
  request.series = data::SeriesView(series);
  EXPECT_EQ(service.Submit(request).get().status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(service.Start().ok());
  EXPECT_TRUE(service.running());
  EXPECT_GE(service.workers(), 1);
  // Post-Start registration and double Start are refused.
  EXPECT_EQ(service.RegisterAppliance("kettle", &ensemble, runner).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Start().code(), StatusCode::kFailedPrecondition);
  service.Shutdown();
  EXPECT_FALSE(service.running());
}

TEST(ServiceTest, MalformedRequestsResolveWithStatusNotAborts) {
  core::CamalEnsemble ensemble = RandomEnsemble(21);
  serve::Service service;
  ASSERT_TRUE(service
                  .RegisterAppliance("dishwasher", &ensemble,
                                     SmallRunner(16, 8, 4, 700.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  std::vector<float> series(48, 1.0f);

  serve::ScanRequest empty_name;
  empty_name.series = data::SeriesView(series);
  EXPECT_EQ(service.Submit(empty_name).get().status().code(),
            StatusCode::kInvalidArgument);

  serve::ScanRequest null_series;
  null_series.appliance = "dishwasher";
  EXPECT_EQ(service.Submit(null_series).get().status().code(),
            StatusCode::kInvalidArgument);

  serve::ScanRequest unknown;
  unknown.appliance = "toaster";
  unknown.series = data::SeriesView(series);
  Result<serve::ScanResult> unknown_result = service.Submit(unknown).get();
  EXPECT_EQ(unknown_result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown_result.status().message().find("toaster"),
            std::string::npos);

  // All three rejections are validation failures, not backpressure — the
  // split telemetry must file them under rejected_invalid.
  EXPECT_EQ(service.stats().rejected_invalid, 3);
  EXPECT_EQ(service.stats().rejected_backpressure, 0);
  EXPECT_EQ(service.stats().rejected_total(), 3);
  EXPECT_EQ(service.stats().accepted, 0);

  // The service still serves valid requests after rejecting garbage.
  serve::ScanRequest valid;
  valid.appliance = "dishwasher";
  valid.series = data::SeriesView(series);
  EXPECT_TRUE(service.Submit(valid).get().ok());
}

TEST(ServiceTest, SeriesPastTheReadingBoundIsRejectedUnread) {
#if !defined(__linux__)
  GTEST_SKIP() << "needs Linux mmap(MAP_NORESERVE)";
#else
  // A series longer than data::kMaxHouseReadings is kInvalidArgument at
  // admission, before anything copies or reads it. The view sits over a
  // PROT_NONE mapping one reading past the bound, so any read faults, and
  // MAP_NORESERVE commits no memory.
  const int64_t count = data::kMaxHouseReadings + 1;
  const size_t bytes = static_cast<size_t>(count) * sizeof(float);
  void* mapping = mmap(nullptr, bytes, PROT_NONE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(mapping, MAP_FAILED);
  const auto* readings = static_cast<const float*>(mapping);
  const data::SeriesView view(readings, count);

  core::CamalEnsemble ensemble = RandomEnsemble(23);
  serve::Service service;
  ASSERT_TRUE(service
                  .RegisterAppliance("dishwasher", &ensemble,
                                     SmallRunner(16, 8, 4, 700.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  serve::ScanRequest request;
  request.appliance = "dishwasher";
  request.series = view;
  Result<serve::ScanResult> submitted = service.Submit(request).get();
  EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(submitted.status().message().find("kMaxHouseReadings"),
            std::string::npos);
  auto session = service.CreateSession("dishwasher");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.value()->AppendReadings(view).get().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      session.value()->AppendReadings(readings, count).get().status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(service.stats().rejected_invalid, 3);
  EXPECT_EQ(service.stats().accepted, 0);
  EXPECT_EQ(session.value()->readings(), 0);

  // Nothing was admitted, and the session still takes appends.
  const std::vector<float> delta(24, 500.0f);
  EXPECT_TRUE(session.value()->AppendReadings(delta).get().ok());
  EXPECT_EQ(session.value()->readings(), 24);
  service.Shutdown();
  ASSERT_EQ(munmap(mapping, bytes), 0);
#endif
}

TEST(ServiceTest, EmptySeriesReturnsEmptyResultThroughAsyncPath) {
  core::CamalEnsemble ensemble = RandomEnsemble(23);
  serve::Service service;
  ASSERT_TRUE(service
                  .RegisterAppliance("kettle", &ensemble,
                                     SmallRunner(16, 8, 4, 900.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  const std::vector<float> empty;
  serve::ScanRequest request;
  request.appliance = "kettle";
  request.series = data::SeriesView(empty);
  Result<serve::ScanResult> result = service.Submit(request).get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().windows, 0);
  EXPECT_EQ(result.value().detection.numel(), 0);
  EXPECT_EQ(result.value().status.numel(), 0);
  EXPECT_EQ(result.value().power.numel(), 0);
}

TEST(ServiceTest, ShortSeriesLeftPadMatchesSequentialThroughAsyncPath) {
  // The PR 2 left-pad path, exercised through the async route: a series
  // shorter than one window must come back identical to a direct
  // BatchRunner scan (which pads to a single window internally).
  core::CamalEnsemble ensemble = RandomEnsemble(25);
  const serve::BatchRunnerOptions runner = SmallRunner(32, 16, 4, 700.0f);
  serve::Service service;
  ASSERT_TRUE(service.RegisterAppliance("oven", &ensemble, runner).ok());
  ASSERT_TRUE(service.Start().ok());

  Rng rng(26);
  std::vector<float> series(11);
  for (auto& v : series) v = static_cast<float>(rng.Uniform(500.0, 3000.0));
  serve::ScanRequest request;
  request.appliance = "oven";
  request.series = data::SeriesView(series);
  Result<serve::ScanResult> result = service.Submit(request).get();
  ASSERT_TRUE(result.ok());
  const serve::ScanResult& async_scan = result.value();
  EXPECT_EQ(async_scan.windows, 1);  // one left-padded window
  EXPECT_GT(async_scan.latency_seconds, 0.0);

  serve::BatchRunner sequential(&ensemble, runner);
  serve::ScanResult expected = sequential.Scan(series);
  ASSERT_EQ(async_scan.detection.numel(), expected.detection.numel());
  for (int64_t t = 0; t < expected.detection.numel(); ++t) {
    EXPECT_EQ(async_scan.detection.at(t), expected.detection.at(t));
    EXPECT_EQ(async_scan.status.at(t), expected.status.at(t));
    EXPECT_EQ(async_scan.power.at(t), expected.power.at(t));
  }
}

TEST(ServiceTest, AsyncResultsMatchSequentialBitwiseAcrossAppliances) {
  // Two appliances with different scan options, interleaved submissions,
  // several workers: whatever worker serves a request, its runner over the
  // shared ensemble must produce bit-for-bit the result of a sequential
  // BatchRunner::Scan.
  core::CamalEnsemble dishwasher = RandomEnsemble(27);
  core::CamalEnsemble kettle = RandomEnsemble(28);
  const serve::BatchRunnerOptions dish_opt = SmallRunner(16, 8, 4, 600.0f);
  const serve::BatchRunnerOptions kettle_opt = SmallRunner(16, 4, 8, 900.0f);

  serve::ServiceOptions service_opt;
  service_opt.workers = 3;
  serve::Service service(service_opt);
  ASSERT_TRUE(
      service.RegisterAppliance("dishwasher", &dishwasher, dish_opt).ok());
  ASSERT_TRUE(service.RegisterAppliance("kettle", &kettle, kettle_opt).ok());
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(service.workers(), 3);

  const std::vector<std::vector<float>> cohort = SyntheticCohort(6, 29);
  std::vector<std::future<Result<serve::ScanResult>>> dish_futures;
  std::vector<std::future<Result<serve::ScanResult>>> kettle_futures;
  for (const auto& series : cohort) {
    serve::ScanRequest dish_request;
    dish_request.appliance = "dishwasher";
    dish_request.series = data::SeriesView(series);
    dish_futures.push_back(service.Submit(std::move(dish_request)));
    serve::ScanRequest kettle_request;
    kettle_request.appliance = "kettle";
    kettle_request.series = data::SeriesView(series);
    kettle_futures.push_back(service.Submit(std::move(kettle_request)));
  }

  std::vector<serve::ScanResult> dish_async, kettle_async;
  for (size_t h = 0; h < cohort.size(); ++h) {
    Result<serve::ScanResult> dish_result = dish_futures[h].get();
    ASSERT_TRUE(dish_result.ok()) << dish_result.status().ToString();
    dish_async.push_back(std::move(dish_result).value());
    Result<serve::ScanResult> kettle_result = kettle_futures[h].get();
    ASSERT_TRUE(kettle_result.ok()) << kettle_result.status().ToString();
    kettle_async.push_back(std::move(kettle_result).value());
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, 12);
  EXPECT_EQ(stats.rejected_total(), 0);
  service.Shutdown();

  serve::BatchRunner dish_sequential(&dishwasher, dish_opt);
  serve::BatchRunner kettle_sequential(&kettle, kettle_opt);
  for (size_t h = 0; h < cohort.size(); ++h) {
    for (bool dish : {true, false}) {
      const serve::ScanResult& async_scan =
          dish ? dish_async[h] : kettle_async[h];
      serve::ScanResult expected = dish ? dish_sequential.Scan(cohort[h])
                                        : kettle_sequential.Scan(cohort[h]);
      ASSERT_EQ(async_scan.windows, expected.windows) << "household " << h;
      for (int64_t t = 0; t < expected.detection.numel(); ++t) {
        EXPECT_EQ(async_scan.detection.at(t), expected.detection.at(t));
        EXPECT_EQ(async_scan.status.at(t), expected.status.at(t));
        EXPECT_EQ(async_scan.power.at(t), expected.power.at(t));
      }
    }
  }
}

TEST(ServiceTest, ClonesNonDefaultBackboneConfigs) {
  // Pins the Inception member every worker serves: a depth-2 member (the
  // default is 3) runs its const inference forward on two workers at once
  // and must match a lone runner bit for bit. (Start once deep-copied each
  // member per worker, and this depth used to abort that copy on a
  // parameter-count mismatch.)
  Rng rng(17);
  core::InceptionConfig config;
  config.kernel_size = 5;
  config.base_filters = 4;
  config.depth = 2;  // non-default (default is 3)
  std::vector<core::EnsembleMember> members;
  core::EnsembleMember member;
  member.model = std::make_unique<core::InceptionClassifier>(config, &rng);
  member.kernel_size = config.kernel_size;
  members.push_back(std::move(member));
  core::CamalEnsemble ensemble =
      core::CamalEnsemble::FromMembers(std::move(members));

  const serve::BatchRunnerOptions runner = SmallRunner(16, 8, 4, 500.0f);
  serve::ServiceOptions service_opt;
  service_opt.workers = 2;
  serve::Service service(service_opt);
  ASSERT_TRUE(service.RegisterAppliance("oven", &ensemble, runner).ok());
  ASSERT_TRUE(service.Start().ok());

  const std::vector<std::vector<float>> cohort = SyntheticCohort(8, 23);
  std::vector<std::future<Result<serve::ScanResult>>> futures;
  for (const auto& series : cohort) {
    futures.push_back(service.Submit("oven", series));
  }
  std::vector<serve::ScanResult> scans;
  for (auto& future : futures) {
    Result<serve::ScanResult> result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    scans.push_back(std::move(result).value());
  }
  service.Shutdown();

  serve::BatchRunner sequential(&ensemble, runner);
  for (size_t h = 0; h < cohort.size(); ++h) {
    serve::ScanResult expected = sequential.Scan(cohort[h]);
    ASSERT_EQ(scans[h].windows, expected.windows) << "household " << h;
    for (int64_t t = 0; t < expected.detection.numel(); ++t) {
      EXPECT_EQ(scans[h].detection.at(t), expected.detection.at(t));
      EXPECT_EQ(scans[h].status.at(t), expected.status.at(t));
      EXPECT_EQ(scans[h].power.at(t), expected.power.at(t));
    }
  }
}

TEST(ServiceTest, ShutdownDrainsAdmittedThenRejectsSubmissions) {
  core::CamalEnsemble ensemble = RandomEnsemble(33);
  serve::ServiceOptions service_opt;
  service_opt.workers = 2;
  serve::Service service(service_opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("heater", &ensemble,
                                     SmallRunner(16, 8, 4, 1200.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  const std::vector<std::vector<float>> cohort = SyntheticCohort(6, 34);
  std::vector<std::future<Result<serve::ScanResult>>> futures;
  for (const auto& series : cohort) {
    serve::ScanRequest request;
    request.appliance = "heater";
    request.series = data::SeriesView(series);
    futures.push_back(service.Submit(std::move(request)));
  }
  // Graceful: every admitted request is served before workers exit.
  service.Shutdown();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }
  EXPECT_EQ(service.stats().completed, 6);

  // Post-shutdown submissions resolve with kFailedPrecondition.
  serve::ScanRequest late;
  late.appliance = "heater";
  late.series = data::SeriesView(cohort.front());
  Result<serve::ScanResult> rejected = service.Submit(late).get();
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  // Shutdown stays idempotent.
  service.Shutdown();
}

TEST(ServiceTest, FullQueueRejectsWithBackpressure) {
  core::CamalEnsemble ensemble = RandomEnsemble(35);
  serve::ServiceOptions service_opt;
  service_opt.workers = 1;
  service_opt.queue_capacity = 1;
  serve::Service service(service_opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("ev", &ensemble,
                                     SmallRunner(16, 8, 4, 7000.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  // A long series keeps the single worker busy while quick submissions
  // pile into the capacity-1 queue: at most one can wait, the rest must
  // be rejected with kFailedPrecondition instead of queuing unboundedly.
  std::vector<float> long_series(60000, 100.0f);
  std::vector<float> short_series(64, 100.0f);
  std::vector<std::future<Result<serve::ScanResult>>> futures;
  serve::ScanRequest slow;
  slow.appliance = "ev";
  slow.series = data::SeriesView(long_series);
  futures.push_back(service.Submit(std::move(slow)));
  // Wait for the worker to pick the slow scan up, so the queue slot is
  // free and the burst below races only against a busy worker.
  while (service.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 8; ++i) {
    serve::ScanRequest request;
    request.appliance = "ev";
    request.series = data::SeriesView(short_series);
    futures.push_back(service.Submit(std::move(request)));
  }

  int64_t ok_count = 0, backpressure = 0;
  for (auto& future : futures) {
    Result<serve::ScanResult> result = future.get();
    if (result.ok()) {
      ++ok_count;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
      ++backpressure;
    }
  }
  // The slow request and at least the one queued behind it succeed; with
  // 8 rapid submissions against a busy worker and one slot, at least one
  // must bounce.
  EXPECT_GE(ok_count, 2);
  EXPECT_GE(backpressure, 1);
  EXPECT_EQ(ok_count + backpressure, 9);
  const serve::ServiceStats stats = service.stats();
  // Queue-full rejections are backpressure, not invalid requests — the
  // split that makes overload visible in telemetry.
  EXPECT_EQ(stats.rejected_backpressure, backpressure);
  EXPECT_EQ(stats.rejected_invalid, 0);
  EXPECT_EQ(stats.accepted, ok_count);
}

TEST(ServiceTest, CoalescedScansMatchSequentialBitwise) {
  // Deep queue, one worker: while the worker chews a long scan, a burst
  // of small same-appliance requests piles up; the worker then drains
  // them in coalesced groups (budget 4) through shared GEMM batches.
  // Every result — however it was grouped — must equal a lone sequential
  // BatchRunner scan bit for bit.
  core::CamalEnsemble ensemble = RandomEnsemble(53);
  const serve::BatchRunnerOptions runner = SmallRunner(16, 8, 8, 600.0f);
  serve::ServiceOptions service_opt;
  service_opt.workers = 1;
  service_opt.queue_capacity = 0;
  service_opt.coalesce_budget = 4;
  serve::Service service(service_opt);
  ASSERT_TRUE(service.RegisterAppliance("fridge", &ensemble, runner).ok());
  ASSERT_TRUE(service.Start().ok());

  Rng rng(54);
  std::vector<float> slow_series(60000);
  for (auto& v : slow_series) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
  std::vector<std::vector<float>> small = SyntheticCohort(8, 55);

  std::vector<std::future<Result<serve::ScanResult>>> futures;
  serve::ScanRequest slow;
  slow.household_id = "slow";
  slow.appliance = "fridge";
  slow.series = data::SeriesView(slow_series);
  futures.push_back(service.Submit(std::move(slow)));
  // Wait until the worker has the slow scan in flight, so the burst below
  // queues up behind it and coalesced groups actually form.
  while (service.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (size_t i = 0; i < small.size(); ++i) {
    serve::ScanRequest request;
    request.household_id = "small_" + std::to_string(i);
    request.appliance = "fridge";
    request.series = data::SeriesView(small[i]);
    futures.push_back(service.Submit(std::move(request)));
  }

  std::vector<serve::ScanResult> async_results;
  for (auto& future : futures) {
    Result<serve::ScanResult> result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    async_results.push_back(std::move(result).value());
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 9);
  // The burst was fully queued while the worker scanned the slow series,
  // so at least the first drained group must have coalesced.
  EXPECT_GE(stats.coalesced_groups, 1);
  EXPECT_GE(stats.coalesced_requests, 2);
  service.Shutdown();

  serve::BatchRunner sequential(&ensemble, runner);
  serve::ScanResult expected_slow = sequential.Scan(slow_series);
  ASSERT_EQ(async_results[0].windows, expected_slow.windows);
  for (int64_t t = 0; t < expected_slow.detection.numel(); ++t) {
    ASSERT_EQ(async_results[0].detection.at(t), expected_slow.detection.at(t));
    ASSERT_EQ(async_results[0].status.at(t), expected_slow.status.at(t));
    ASSERT_EQ(async_results[0].power.at(t), expected_slow.power.at(t));
  }
  for (size_t i = 0; i < small.size(); ++i) {
    const serve::ScanResult& got = async_results[i + 1];
    serve::ScanResult expected = sequential.Scan(small[i]);
    ASSERT_EQ(got.windows, expected.windows) << "household " << i;
    ASSERT_EQ(got.detection.numel(), expected.detection.numel());
    for (int64_t t = 0; t < expected.detection.numel(); ++t) {
      EXPECT_EQ(got.detection.at(t), expected.detection.at(t))
          << "household " << i << " t " << t;
      EXPECT_EQ(got.status.at(t), expected.status.at(t));
      EXPECT_EQ(got.power.at(t), expected.power.at(t));
    }
  }
}

TEST(ServiceTest, HighPriorityOvertakesQueuedBacklog) {
  // One worker, busy with a long scan; behind it queue three kLow
  // requests and then one kHigh. The worker must serve the late kHigh
  // before any of the earlier kLow ones — observed through the fault
  // injector's scan hook, which fires in serving order.
  core::CamalEnsemble ensemble = RandomEnsemble(61);
  std::mutex served_mu;
  std::vector<std::string> served;
  FaultInjector injector;
  injector.set_scan_hook([&](const std::string& household) {
    std::lock_guard<std::mutex> lock(served_mu);
    served.push_back(household);
  });
  serve::ServiceOptions service_opt;
  service_opt.workers = 1;
  service_opt.queue_capacity = 0;
  service_opt.coalesce_budget = 1;
  service_opt.fault_injector = &injector;
  serve::Service service(service_opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("oven", &ensemble,
                                     SmallRunner(16, 8, 4, 2000.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  std::vector<float> slow_series(60000, 800.0f);
  std::vector<float> short_series(64, 800.0f);
  std::vector<std::future<Result<serve::ScanResult>>> futures;
  serve::ScanRequest slow;
  slow.household_id = "slow";
  slow.appliance = "oven";
  slow.series = data::SeriesView(slow_series);
  futures.push_back(service.Submit(std::move(slow)));
  while (service.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 3; ++i) {
    serve::ScanRequest low;
    low.household_id = "low_" + std::to_string(i);
    low.appliance = "oven";
    low.series = data::SeriesView(short_series);
    low.priority = serve::RequestPriority::kLow;
    futures.push_back(service.Submit(std::move(low)));
  }
  serve::ScanRequest high;
  high.household_id = "high";
  high.appliance = "oven";
  high.series = data::SeriesView(short_series);
  high.priority = serve::RequestPriority::kHigh;
  futures.push_back(service.Submit(std::move(high)));

  for (auto& future : futures) {
    ASSERT_TRUE(future.get().ok());
  }
  service.Shutdown();
  ASSERT_EQ(served.size(), 5u);
  EXPECT_EQ(served[0], "slow");
  // The kHigh submission was last in but first out of the backlog.
  EXPECT_EQ(served[1], "high");
  EXPECT_EQ(served[2], "low_0");
  EXPECT_EQ(served[3], "low_1");
  EXPECT_EQ(served[4], "low_2");
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed_high, 1);
  EXPECT_EQ(stats.completed_normal, 1);
  EXPECT_EQ(stats.completed_low, 3);
  EXPECT_EQ(stats.completed_high + stats.completed_normal +
                stats.completed_low,
            stats.completed);
}

TEST(ServiceTest, ExpiredRequestsAreShedBeforeScanning) {
  // While the worker is held inside a gate request, one queued request's
  // deadline lapses. On release, the worker must shed it — distinct
  // kDeadlineExceeded status, no scan (the scan hook never sees it) —
  // and still serve its unexpired neighbor.
  core::CamalEnsemble ensemble = RandomEnsemble(63);
  std::atomic<bool> release{false};
  std::mutex served_mu;
  std::vector<std::string> served;
  FaultInjector injector;
  injector.set_scan_hook([&](const std::string& household) {
    {
      std::lock_guard<std::mutex> lock(served_mu);
      served.push_back(household);
    }
    if (household == "gate") {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  serve::ServiceOptions service_opt;
  service_opt.workers = 1;
  service_opt.queue_capacity = 0;
  service_opt.coalesce_budget = 1;
  service_opt.fault_injector = &injector;
  serve::Service service(service_opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("kettle", &ensemble,
                                     SmallRunner(16, 8, 4, 900.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  std::vector<float> series(64, 500.0f);
  serve::ScanRequest gate;
  gate.household_id = "gate";
  gate.appliance = "kettle";
  gate.series = data::SeriesView(series);
  std::future<Result<serve::ScanResult>> gate_future =
      service.Submit(std::move(gate));
  while (service.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  serve::ScanRequest doomed;
  doomed.household_id = "doomed";
  doomed.appliance = "kettle";
  doomed.series = data::SeriesView(series);
  doomed.deadline_seconds = 0.02;
  std::future<Result<serve::ScanResult>> doomed_future =
      service.Submit(std::move(doomed));
  serve::ScanRequest patient;
  patient.household_id = "patient";
  patient.appliance = "kettle";
  patient.series = data::SeriesView(series);
  std::future<Result<serve::ScanResult>> patient_future =
      service.Submit(std::move(patient));

  // Let the 20ms deadline lapse while the worker is still gated, then
  // release it onto the backlog.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  release.store(true);

  ASSERT_TRUE(gate_future.get().ok());
  Result<serve::ScanResult> shed = doomed_future.get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(shed.status().message().find("shed without scanning"),
            std::string::npos);
  ASSERT_TRUE(patient_future.get().ok());
  service.Shutdown();

  // The shed request never reached the scan path: the hook saw only the
  // gate and the patient request.
  ASSERT_EQ(served.size(), 2u);
  EXPECT_EQ(served[0], "gate");
  EXPECT_EQ(served[1], "patient");
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_deadline, 1);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.accepted, 3);
}

TEST(ServiceTest, NegativeDeadlineIsRejectedAsInvalid) {
  core::CamalEnsemble ensemble = RandomEnsemble(65);
  serve::Service service;
  ASSERT_TRUE(service
                  .RegisterAppliance("fridge", &ensemble,
                                     SmallRunner(16, 8, 4, 150.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  std::vector<float> series(32, 100.0f);
  serve::ScanRequest request;
  request.appliance = "fridge";
  request.series = data::SeriesView(series);
  request.deadline_seconds = -0.5;
  Result<serve::ScanResult> rejected = service.Submit(std::move(request)).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.stats().rejected_invalid, 1);
}

// Outcome of one 32-reading scan with \p deadline_seconds on a one-worker
// service.
Result<serve::ScanResult> ScanWithDeadline(double deadline_seconds) {
  core::CamalEnsemble ensemble = RandomEnsemble(66);
  serve::ServiceOptions opt;
  opt.workers = 1;
  serve::Service service(opt);
  EXPECT_TRUE(service
                  .RegisterAppliance("fridge", &ensemble,
                                     SmallRunner(16, 8, 4, 150.0f))
                  .ok());
  EXPECT_TRUE(service.Start().ok());
  std::vector<float> series(32, 100.0f);
  serve::ScanRequest request;
  request.appliance = "fridge";
  request.series = data::SeriesView(series);
  request.deadline_seconds = deadline_seconds;
  return service.Submit(std::move(request)).get();
}

// Deadlines past steady_clock's range used to convert to INT64_MIN ticks,
// an instant long past, so the worker shed them at once.
TEST(ServiceTest, DeadlinePastClockRangeIsServed) {
  Result<serve::ScanResult> served = ScanWithDeadline(1e10);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served.value().windows, 3);
}

TEST(ServiceTest, InfiniteDeadlineIsServed) {
  Result<serve::ScanResult> served =
      ScanWithDeadline(std::numeric_limits<double>::infinity());
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served.value().windows, 3);
}

TEST(ServiceTest, NanDeadlineIsRejectedAsInvalid) {
  Result<serve::ScanResult> rejected = ScanWithDeadline(std::nan(""));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceTest, MixedPrioritiesWithSlackDeadlinesStayBitwiseIdentical) {
  // The QoS knobs reorder and (under load) shed, but for requests that DO
  // get served the results policy is untouched: a burst with mixed
  // priorities and generous deadlines must reproduce lone sequential
  // BatchRunner scans bit for bit, exactly like the plain coalescing test.
  core::CamalEnsemble ensemble = RandomEnsemble(67);
  const serve::BatchRunnerOptions runner = SmallRunner(16, 8, 8, 600.0f);
  serve::ServiceOptions service_opt;
  service_opt.workers = 1;
  service_opt.queue_capacity = 0;
  service_opt.coalesce_budget = 4;
  serve::Service service(service_opt);
  ASSERT_TRUE(service.RegisterAppliance("fridge", &ensemble, runner).ok());
  ASSERT_TRUE(service.Start().ok());

  std::vector<float> slow_series(60000, 350.0f);
  std::vector<std::vector<float>> small = SyntheticCohort(8, 69);
  const serve::RequestPriority priorities[] = {serve::RequestPriority::kHigh,
                                               serve::RequestPriority::kNormal,
                                               serve::RequestPriority::kLow};

  serve::ScanRequest slow;
  slow.household_id = "slow";
  slow.appliance = "fridge";
  slow.series = data::SeriesView(slow_series);
  std::future<Result<serve::ScanResult>> slow_future =
      service.Submit(std::move(slow));
  while (service.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::future<Result<serve::ScanResult>>> futures;
  for (size_t i = 0; i < small.size(); ++i) {
    serve::ScanRequest request;
    request.household_id = "small_" + std::to_string(i);
    request.appliance = "fridge";
    request.series = data::SeriesView(small[i]);
    request.priority = priorities[i % 3];
    request.deadline_seconds = 30.0;  // generous: never sheds in-test
    futures.push_back(service.Submit(std::move(request)));
  }

  ASSERT_TRUE(slow_future.get().ok());
  std::vector<serve::ScanResult> async_results;
  for (auto& future : futures) {
    Result<serve::ScanResult> result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    async_results.push_back(std::move(result).value());
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 9);
  EXPECT_EQ(stats.shed_deadline, 0);
  EXPECT_EQ(stats.completed_high + stats.completed_normal +
                stats.completed_low,
            stats.completed);
  service.Shutdown();

  // futures[i] corresponds to small[i] regardless of the order the
  // scheduler served them in — reordering moves time, never bits.
  serve::BatchRunner sequential(&ensemble, runner);
  for (size_t i = 0; i < small.size(); ++i) {
    const serve::ScanResult& got = async_results[i];
    serve::ScanResult expected = sequential.Scan(small[i]);
    ASSERT_EQ(got.windows, expected.windows) << "household " << i;
    ASSERT_EQ(got.detection.numel(), expected.detection.numel());
    for (int64_t t = 0; t < expected.detection.numel(); ++t) {
      ASSERT_EQ(got.detection.at(t), expected.detection.at(t))
          << "household " << i << " t " << t;
      ASSERT_EQ(got.status.at(t), expected.status.at(t));
      ASSERT_EQ(got.power.at(t), expected.power.at(t));
    }
  }
}

TEST(ServiceTest, ThrowingScanResolvesFutureWithInternal) {
  // Regression: a scan that threw used to leave the request's promise
  // unfulfilled — the submitter blocked forever on the future — and
  // unwound the worker thread. It must resolve the future with kInternal
  // and keep the worker alive for the next request.
  core::CamalEnsemble ensemble = RandomEnsemble(57);
  FaultPlan plan;
  plan.scan_label = "poison";  // every scan of this household throws
  FaultInjector injector(plan);
  serve::ServiceOptions service_opt;
  service_opt.workers = 1;
  service_opt.coalesce_budget = 1;
  service_opt.fault_injector = &injector;
  serve::Service service(service_opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("kettle", &ensemble,
                                     SmallRunner(16, 8, 4, 900.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  std::vector<float> series(48, 500.0f);
  serve::ScanRequest poison;
  poison.household_id = "poison";
  poison.appliance = "kettle";
  poison.series = data::SeriesView(series);
  Result<serve::ScanResult> poisoned = service.Submit(std::move(poison)).get();
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kInternal);
  EXPECT_NE(poisoned.status().message().find("injected scan fault"),
            std::string::npos);

  // The worker survived: the next request is served normally.
  serve::ScanRequest healthy;
  healthy.household_id = "healthy";
  healthy.appliance = "kettle";
  healthy.series = data::SeriesView(series);
  EXPECT_TRUE(service.Submit(std::move(healthy)).get().ok());
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.accepted, 2);
}

TEST(ServiceTest, ThrowingCoalescedGroupFailsEveryMemberOnce) {
  // When a coalesced group's shared scan throws, every request of the
  // group resolves with kInternal (exactly once — no hung futures), and
  // the worker lives on to serve later requests.
  core::CamalEnsemble ensemble = RandomEnsemble(59);
  FaultPlan plan;
  plan.scan_label = "poison";
  FaultInjector injector(plan);
  serve::ServiceOptions service_opt;
  service_opt.workers = 1;
  service_opt.queue_capacity = 0;
  service_opt.coalesce_budget = 8;
  service_opt.fault_injector = &injector;
  serve::Service service(service_opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("oven", &ensemble,
                                     SmallRunner(16, 8, 4, 1100.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  Rng rng(60);
  std::vector<float> slow_series(60000);
  for (auto& v : slow_series) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
  std::vector<float> series(48, 800.0f);

  serve::ScanRequest slow;
  slow.household_id = "slow";
  slow.appliance = "oven";
  slow.series = data::SeriesView(slow_series);
  std::future<Result<serve::ScanResult>> slow_future =
      service.Submit(std::move(slow));
  while (service.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Both queue behind the slow scan, so they drain as one group whose
  // head throws.
  serve::ScanRequest poison;
  poison.household_id = "poison";
  poison.appliance = "oven";
  poison.series = data::SeriesView(series);
  std::future<Result<serve::ScanResult>> poison_future =
      service.Submit(std::move(poison));
  serve::ScanRequest bystander;
  bystander.household_id = "bystander";
  bystander.appliance = "oven";
  bystander.series = data::SeriesView(series);
  std::future<Result<serve::ScanResult>> bystander_future =
      service.Submit(std::move(bystander));

  EXPECT_TRUE(slow_future.get().ok());
  Result<serve::ScanResult> poisoned = poison_future.get();
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kInternal);
  Result<serve::ScanResult> bystood = bystander_future.get();
  ASSERT_FALSE(bystood.ok());
  EXPECT_EQ(bystood.status().code(), StatusCode::kInternal);

  // A fresh request is still served: the worker outlived the fault.
  serve::ScanRequest after;
  after.household_id = "after";
  after.appliance = "oven";
  after.series = data::SeriesView(series);
  EXPECT_TRUE(service.Submit(std::move(after)).get().ok());
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 2);
  EXPECT_EQ(stats.completed, 2);
}

// ---------------------------------------------------------------------
// Streaming sessions: incremental append-and-rescan (tentpole PR 6).
// ---------------------------------------------------------------------

void ExpectBitwiseEqual(const serve::ScanResult& got,
                        const serve::ScanResult& want,
                        const std::string& label) {
  ASSERT_EQ(got.detection.numel(), want.detection.numel()) << label;
  for (int64_t t = 0; t < want.detection.numel(); ++t) {
    // Bitwise equality: the incremental path must reproduce the exact
    // float accumulation order of a from-scratch stitch, so not a single
    // ULP may move.
    ASSERT_EQ(got.detection.at(t), want.detection.at(t))
        << label << " detection t=" << t;
    ASSERT_EQ(got.status.at(t), want.status.at(t))
        << label << " status t=" << t;
    ASSERT_EQ(got.power.at(t), want.power.at(t))
        << label << " power t=" << t;
  }
}

// Every parameter, gradient and buffer byte of \p ensemble's members, each
// member's training() flag closing its run.
std::string EnsembleBytes(core::CamalEnsemble* ensemble) {
  std::string bytes;
  const auto append = [&bytes](const nn::Tensor& t) {
    if (t.numel() == 0) return;
    bytes.append(reinterpret_cast<const char*>(t.data()),
                 sizeof(float) * static_cast<size_t>(t.numel()));
  };
  for (core::EnsembleMember& member : ensemble->members()) {
    for (nn::Parameter* p : member.model->Parameters()) {
      append(p->value);
      append(p->grad);
    }
    for (nn::Tensor* buffer : member.model->Buffers()) append(*buffer);
    bytes.push_back(member.model->training() ? 't' : 'e');
  }
  return bytes;
}

bool SameBits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

TEST(ServiceTest, SharedEnsemblesStayReadOnlyWhileServing) {
  // Four workers serve coalesced one-shot scans and session appends on
  // one ResNet and one depth-2 Inception ensemble while this thread runs
  // DetectProbabilityBatched on the same two. Nothing may write a weight,
  // a BatchNorm statistic or a training flag, and this thread's forwards
  // must equal a lone call's bit for bit.
  core::CamalEnsemble resnet = RandomEnsemble(71);
  Rng rng(72);
  core::InceptionConfig config;
  config.kernel_size = 5;
  config.base_filters = 4;
  config.depth = 2;
  std::vector<core::EnsembleMember> members;
  for (int m = 0; m < 2; ++m) {
    core::EnsembleMember member;
    member.model = std::make_unique<core::InceptionClassifier>(config, &rng);
    member.kernel_size = config.kernel_size;
    members.push_back(std::move(member));
  }
  core::CamalEnsemble inception =
      core::CamalEnsemble::FromMembers(std::move(members));
  const std::vector<std::string> names = {"resnet", "inception"};
  const std::vector<core::CamalEnsemble*> ensembles = {&resnet, &inception};
  std::vector<std::string> before;
  for (core::CamalEnsemble* ensemble : ensembles) {
    before.push_back(EnsembleBytes(ensemble));
  }

  const serve::BatchRunnerOptions runner = SmallRunner(16, 8, 4, 500.0f);
  serve::ServiceOptions opt;
  opt.workers = 4;
  serve::Service service(opt);
  for (size_t a = 0; a < names.size(); ++a) {
    ASSERT_TRUE(
        service.RegisterAppliance(names[a], ensembles[a], runner).ok());
  }
  ASSERT_TRUE(service.Start().ok());

  const std::vector<std::vector<float>> cohort = SyntheticCohort(8, 73);
  std::vector<std::vector<std::future<Result<serve::ScanResult>>>> scans(
      names.size());
  std::vector<std::future<Result<serve::ScanResult>>> appends;
  for (size_t a = 0; a < names.size(); ++a) {
    for (const auto& series : cohort) {
      scans[a].push_back(service.Submit(names[a], series));
    }
    for (int s = 0; s < 3; ++s) {
      auto session = service.CreateSession(names[a]);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      for (int i = 0; i < 4; ++i) {
        appends.push_back(service.AppendReadings(
            session.value(), cohort[static_cast<size_t>(s + i)]));
      }
    }
  }

  // The same ensembles, from this thread, while the workers serve.
  nn::Tensor x({6, 1, 16});
  for (int64_t i = 0; i < x.numel(); ++i) {
    x.at(i) = static_cast<float>(rng.Uniform(-1.0, 2.0));
  }
  std::vector<std::vector<nn::Tensor>> probs(names.size());
  std::vector<std::vector<std::vector<nn::Tensor>>> maps(names.size());
  for (int round = 0; round < 4; ++round) {
    for (size_t a = 0; a < names.size(); ++a) {
      maps[a].emplace_back();
      probs[a].push_back(
          ensembles[a]->DetectProbabilityBatched(x, &maps[a].back()));
    }
  }

  std::vector<std::vector<serve::ScanResult>> served(names.size());
  for (size_t a = 0; a < names.size(); ++a) {
    for (auto& future : scans[a]) {
      Result<serve::ScanResult> result = future.get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      served[a].push_back(std::move(result).value());
    }
  }
  for (auto& future : appends) {
    Result<serve::ScanResult> result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  service.Shutdown();

  for (size_t a = 0; a < names.size(); ++a) {
    EXPECT_EQ(EnsembleBytes(ensembles[a]), before[a]) << names[a];
    std::vector<nn::Tensor> lone_maps;
    const nn::Tensor lone =
        ensembles[a]->DetectProbabilityBatched(x, &lone_maps);
    for (size_t r = 0; r < probs[a].size(); ++r) {
      EXPECT_TRUE(SameBits(probs[a][r], lone)) << names[a] << " round " << r;
      ASSERT_EQ(maps[a][r].size(), lone_maps.size());
      for (size_t m = 0; m < lone_maps.size(); ++m) {
        EXPECT_TRUE(SameBits(maps[a][r][m], lone_maps[m]))
            << names[a] << " round " << r << " member " << m;
      }
    }
    serve::BatchRunner sequential(ensembles[a], runner);
    for (size_t h = 0; h < cohort.size(); ++h) {
      ExpectBitwiseEqual(served[a][h], sequential.Scan(cohort[h]),
                         names[a] + " household " + std::to_string(h));
    }
  }
}

TEST(WindowMathTest, GridHelpersAgreeWithComputedOffsets) {
  // The session math and the one-shot window plan must share one source
  // of truth: grid count + tail predicate fully determine the offsets.
  for (int64_t len = 0; len <= 70; ++len) {
    for (int64_t stride : {3, 8, 16}) {
      const serve::WindowStreamOptions opt = SmallStream(16, stride, 4);
      const std::vector<int64_t> offsets =
          serve::ComputeWindowOffsets(len, opt);
      const int64_t grid = data::GridWindowCount(len, 16, stride);
      const bool tail = data::GridLeavesTail(len, 16, stride);
      ASSERT_EQ(static_cast<int64_t>(offsets.size()), grid + (tail ? 1 : 0))
          << "len=" << len << " stride=" << stride;
      if (tail) {
        ASSERT_EQ(offsets.back(), len - 16);
        ASSERT_NE((len - 16) % stride, 0);  // never collides with the grid
      }
      for (int64_t k = 0; k < grid; ++k) {
        ASSERT_EQ(offsets[static_cast<size_t>(k)], k * stride);
      }
    }
  }
}

TEST(BatchRunnerTest, AppendScanMatchesFromScratchBitwise) {
  // The tentpole gate at the runner level: after every append, the
  // suffixes returned so far, each written at its `from`, must be
  // bitwise-identical to a from-scratch scan of the concatenated series.
  // Chunks cross every edge on purpose: a start shorter than one window
  // (pad overlay), growth past the window boundary, a zero-length delta,
  // an all-NaN delta, and tail-sized nibbles that leave/remove an
  // end-aligned tail window.
  core::CamalEnsemble ensemble = RandomEnsemble(61);
  const serve::BatchRunnerOptions opt = SmallRunner(16, 8, 4, 650.0f);
  serve::BatchRunner incremental(&ensemble, opt);
  serve::BatchRunner reference(&ensemble, opt);

  Rng rng(62);
  serve::SessionScanState state;
  SessionTimeline timeline;
  std::vector<float> concatenated;
  int64_t step = 0;
  for (int64_t chunk_len : {5, 7, 10, 0, 13, 40, 3, 8}) {
    std::vector<float> chunk(static_cast<size_t>(chunk_len));
    for (auto& v : chunk) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
    if (step == 4) {  // the 13-sample chunk arrives all-missing
      for (auto& v : chunk) v = std::nanf("");
    }
    concatenated.insert(concatenated.end(), chunk.begin(), chunk.end());

    serve::ScanResult got = incremental.AppendScan(&state, chunk);
    serve::ScanResult want = reference.Scan(concatenated);
    ASSERT_EQ(state.readings(),
              static_cast<int64_t>(concatenated.size()));
    ASSERT_EQ(got.from + got.detection.numel(), state.readings());
    // windows_full mirrors what the from-scratch scan really fed.
    ASSERT_EQ(got.windows_full, want.windows)
        << "step " << step << " len " << concatenated.size();
    ASSERT_LE(got.windows, got.windows_full);
    timeline.Overlay(got);
    ExpectTimelineBitwiseEqual(timeline, want, "step " + std::to_string(step));
    ++step;
  }
  // By the end the series is long enough that persistence must have paid:
  // the last append fed strictly fewer windows than a full rescan, and
  // returned less than the whole series.
  ASSERT_GT(state.readings(), 64);
  serve::ScanResult last =
      incremental.AppendScan(&state, std::vector<float>{1200.0f});
  concatenated.push_back(1200.0f);
  EXPECT_LT(last.windows, last.windows_full);
  EXPECT_GT(last.from, 0);
  ASSERT_EQ(last.from + last.detection.numel(), state.readings());
  timeline.Overlay(last);
  ExpectTimelineBitwiseEqual(timeline, reference.Scan(concatenated), "final");
}

TEST(BatchRunnerTest, AppendScanManyCoalescesDistinctSessionsBitwise) {
  // Distinct sessions' appends share one feed phase (the GEMM batches the
  // service coalesces across households); each session's overlaid
  // suffixes must still equal the exact from-scratch result, whatever its
  // neighbors contributed.
  core::CamalEnsemble ensemble = RandomEnsemble(63);
  const serve::BatchRunnerOptions opt = SmallRunner(16, 8, 4, 800.0f);
  serve::BatchRunner incremental(&ensemble, opt);
  serve::BatchRunner reference(&ensemble, opt);

  Rng rng(64);
  constexpr int kSessions = 3;
  serve::SessionScanState states[kSessions];
  SessionTimeline timelines[kSessions];
  std::vector<float> concatenated[kSessions];
  const int64_t chunk_lens[kSessions] = {21, 9, 33};
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<float>> chunks(kSessions);
    std::vector<serve::SessionScanState*> state_ptrs;
    std::vector<data::SeriesView> deltas;
    for (int s = 0; s < kSessions; ++s) {
      chunks[s].resize(static_cast<size_t>(chunk_lens[s] + 2 * round));
      for (auto& v : chunks[s]) {
        v = static_cast<float>(rng.Uniform(0.0, 2500.0));
      }
      concatenated[s].insert(concatenated[s].end(), chunks[s].begin(),
                             chunks[s].end());
      state_ptrs.push_back(&states[s]);
      deltas.push_back(data::SeriesView(chunks[s]));
    }
    std::vector<serve::ScanResult> got =
        incremental.AppendScanMany(state_ptrs, deltas);
    ASSERT_EQ(got.size(), static_cast<size_t>(kSessions));
    for (int s = 0; s < kSessions; ++s) {
      SCOPED_TRACE("session " + std::to_string(s));
      serve::ScanResult want = reference.Scan(concatenated[s]);
      ASSERT_EQ(got[s].windows_full, want.windows);
      ASSERT_EQ(got[s].from + got[s].detection.numel(), states[s].readings());
      timelines[s].Overlay(got[s]);
      ExpectTimelineBitwiseEqual(timelines[s], want,
                                 "round " + std::to_string(round));
    }
  }
}

TEST(BatchRunnerTest, SessionKeepsOneWindowAndOverlaysToScanAtEveryStride) {
  // The trim, pinned: after every append a session holds exactly
  // min(len, l) readings and accumulator slots — no more (memory would
  // grow with history), no fewer (a later window would vote on a dropped
  // timestamp) — and its overlaid suffixes still equal Scan. Strides
  // cover 1, one that does not divide l, l itself and one past l (gaps
  // between grid windows); chunks cover 0, 1, l - 1, l, l + 1 and
  // multiples of the stride, some of them all-missing.
  core::CamalEnsemble ensemble = RandomEnsemble(71);
  const int64_t l = 16;
  for (int64_t stride : {int64_t{1}, int64_t{5}, l, int64_t{23}}) {
    SCOPED_TRACE("stride " + std::to_string(stride));
    const serve::BatchRunnerOptions opt = SmallRunner(l, stride, 4, 700.0f);
    serve::BatchRunner incremental(&ensemble, opt);
    serve::BatchRunner reference(&ensemble, opt);
    Rng rng(72 + static_cast<uint64_t>(stride));
    const int64_t s = stride;
    const int64_t sizes[] = {0, 1, l - 1, l, l + 1, s, 2 * s, 3 * s};
    serve::SessionScanState state;
    SessionTimeline timeline;
    std::vector<float> concatenated;
    for (int step = 0; step < 24; ++step) {
      const int64_t count = sizes[rng.UniformInt(0, 7)];
      const bool missing = rng.Uniform(0.0, 1.0) < 0.2;
      std::vector<float> chunk(static_cast<size_t>(count));
      for (auto& v : chunk) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
      if (missing) std::fill(chunk.begin(), chunk.end(), std::nanf(""));
      concatenated.insert(concatenated.end(), chunk.begin(), chunk.end());
      const std::string label = "step " + std::to_string(step);

      serve::ScanResult suffix = incremental.AppendScan(&state, chunk);
      const auto len = static_cast<int64_t>(concatenated.size());
      ASSERT_EQ(state.readings(), len) << label;
      ASSERT_EQ(suffix.from + suffix.detection.numel(), len) << label;
      const auto live = static_cast<size_t>(std::min(len, l));
      ASSERT_EQ(state.series.size(), live) << label;
      ASSERT_EQ(state.prob_sum.size(), live) << label;
      ASSERT_EQ(state.cover.size(), live) << label;
      ASSERT_EQ(state.on_votes.size(), live) << label;
      timeline.Overlay(suffix);
      ExpectTimelineBitwiseEqual(timeline, reference.Scan(concatenated), label);
    }
  }
}

// Three members whose costliest (k = 15) is registered in the middle, so
// member lanes start them out of member order.
core::CamalEnsemble ThreeMemberEnsemble(bool resnet, uint64_t seed) {
  Rng rng(seed);
  std::vector<core::EnsembleMember> members;
  for (int64_t k : {5, 15, 9}) {
    core::EnsembleMember member;
    if (resnet) {
      core::ResNetConfig config;
      config.base_filters = 4;
      config.kernel_size = k;
      member.model = std::make_unique<core::ResNetClassifier>(config, &rng);
    } else {
      core::InceptionConfig config;
      config.kernel_size = k;
      config.base_filters = 4;
      config.depth = 2;
      member.model = std::make_unique<core::InceptionClassifier>(config, &rng);
    }
    member.kernel_size = k;
    members.push_back(std::move(member));
  }
  return core::CamalEnsemble::FromMembers(std::move(members));
}

TEST(ServiceTest, SpareWorkersRunMemberLanesBitwise) {
  // Four workers fed one request at a time: the three idle siblings are
  // spare, so every one-batch pass runs its members as lanes on the
  // pool. One-shot scans of one to three batches and a session's appends
  // (a multi-batch prefill, then one-window appends) must equal a lone
  // BatchRunner, whose members run in turn, bit for bit.
  const std::vector<std::string> names = {"resnet", "inception"};
  std::vector<core::CamalEnsemble> ensembles;
  ensembles.push_back(ThreeMemberEnsemble(/*resnet=*/true, 81));
  ensembles.push_back(ThreeMemberEnsemble(/*resnet=*/false, 82));
  const serve::BatchRunnerOptions runner = SmallRunner(16, 8, 4, 500.0f);
  serve::ServiceOptions opt;
  opt.workers = 4;
  serve::Service service(opt);
  for (size_t a = 0; a < names.size(); ++a) {
    ASSERT_TRUE(
        service.RegisterAppliance(names[a], &ensembles[a], runner).ok());
  }
  ASSERT_TRUE(service.Start().ok());

  Rng rng(83);
  const auto readings = [&rng](int64_t n) {
    std::vector<float> series(static_cast<size_t>(n));
    for (auto& v : series) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
    return series;
  };
  for (size_t a = 0; a < names.size(); ++a) {
    const std::string& name = names[a];
    serve::BatchRunner lone(&ensembles[a], runner);
    // 9 readings ride one padded window; 16-40 fill one batch of up to
    // four windows; 80 spans three batches.
    for (int64_t len : {9, 16, 33, 40, 80}) {
      const std::vector<float> series = readings(len);
      Result<serve::ScanResult> served = service.Submit(name, series).get();
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ExpectBitwiseEqual(served.value(), lone.Scan(series),
                         name + " scan of " + std::to_string(len));
    }
    Result<std::shared_ptr<serve::Session>> session =
        service.CreateSession(name);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    serve::SessionScanState state;
    for (int64_t len : {80, 8, 8, 3, 5, 8, 0}) {
      const std::vector<float> delta = readings(len);
      Result<serve::ScanResult> served =
          service.AppendReadings(session.value(), delta).get();
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      const serve::ScanResult want = lone.AppendScan(&state, delta);
      EXPECT_EQ(served.value().from, want.from);
      EXPECT_EQ(served.value().windows, want.windows);
      ExpectBitwiseEqual(served.value(), want,
                         name + " append of " + std::to_string(len));
    }
  }
  service.Shutdown();
}

// Byte equality of two tensors (NaN included).
void ExpectSameBytes(const nn::Tensor& got, const nn::Tensor& want,
                     const std::string& label) {
  ASSERT_TRUE(got.SameShape(want)) << label;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(want.numel())),
            0)
      << label;
}

// Byte equality of two scan results, positions included.
void ExpectSameBytes(const serve::ScanResult& got,
                     const serve::ScanResult& want, const std::string& label) {
  EXPECT_EQ(got.from, want.from) << label;
  EXPECT_EQ(got.windows, want.windows) << label;
  ExpectSameBytes(got.detection, want.detection, label + " detection");
  ExpectSameBytes(got.status, want.status, label + " status");
  ExpectSameBytes(got.power, want.power, label + " power");
}

TEST(BatchRunnerTest, SpareLanesKeepScanBytesOnHostileSeries) {
  // Scans must not move with spare, whatever the readings: seeded series
  // with NaN runs, +-Inf, 1e38 and negative readings, one window short,
  // exact, one reading over, and 2-7 windows (with and without a tail).
  // Batch 8 makes every lone pass one batch, so spare 1-3 really fans its
  // (member, window) items out; one-shot, coalesced and session passes
  // must all return spare 0's bytes, for ResNet and Inception members.
  constexpr int64_t kWindow = 16, kStride = 8;
  const serve::BatchRunnerOptions options =
      SmallRunner(kWindow, kStride, 8, 600.0f);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Rng rng(93);
  const auto hostile = [&rng](int64_t len) {
    std::vector<float> series(static_cast<size_t>(len));
    for (auto& v : series) v = static_cast<float>(rng.Uniform(-200.0, 3000.0));
    const int64_t run = rng.UniformInt(1, 6);
    const int64_t at = rng.UniformInt(0, len - 1);
    for (int64_t t = at; t < std::min(len, at + run); ++t) {
      series[static_cast<size_t>(t)] = std::nanf("");
    }
    for (float special : {kInf, -kInf, 1e38f}) {
      series[static_cast<size_t>(rng.UniformInt(0, len - 1))] = special;
    }
    return series;
  };
  std::vector<std::vector<float>> all;
  for (int64_t len : {kWindow - 1, kWindow, kWindow + 1}) {
    all.push_back(hostile(len));
  }
  for (int64_t windows = 2; windows <= 7; ++windows) {
    const int64_t exact = kWindow + (windows - 1) * kStride;
    all.push_back(hostile(exact));
    all.push_back(hostile(exact + 3));  // a tail window after the grid
  }
  for (const bool resnet : {true, false}) {
    SCOPED_TRACE(resnet ? "resnet" : "inception");
    const core::CamalEnsemble ensemble = ThreeMemberEnsemble(resnet, 94);
    serve::BatchRunner runner(&ensemble, options);
    for (size_t i = 0; i < all.size(); ++i) {
      const data::SeriesView lone(all[i]);
      const data::SeriesView pair[] = {lone, all[i / 2]};
      const std::string label = "series " + std::to_string(i);
      const serve::ScanResult want = runner.ScanMany({lone}, 0).front();
      const std::vector<serve::ScanResult> want_pair =
          runner.ScanMany({pair[0], pair[1]}, 0);
      // Detection and power stay finite whatever the readings: +-Inf is
      // missing (data::IsMissing), so windows zero-fill it.
      for (int64_t t = 0; t < want.detection.numel(); ++t) {
        ASSERT_TRUE(std::isfinite(want.detection.at(t))) << label;
        ASSERT_TRUE(std::isfinite(want.power.at(t))) << label;
      }
      for (int spare = 1; spare <= 3; ++spare) {
        const std::string with = label + " spare " + std::to_string(spare);
        ExpectSameBytes(runner.ScanMany({lone}, spare).front(), want, with);
        const std::vector<serve::ScanResult> got_pair =
            runner.ScanMany({pair[0], pair[1]}, spare);
        ExpectSameBytes(got_pair[0], want_pair[0], with + " coalesced");
        ExpectSameBytes(got_pair[1], want_pair[1], with + " coalesced");
      }
    }
    // Two sessions per spare value take the same random chunks, appended
    // together, and must return spare 0's suffixes byte for byte.
    serve::SessionScanState states[4][2];
    for (int step = 0; step < 12; ++step) {
      const std::vector<float> a = hostile(rng.UniformInt(1, 3 * kWindow));
      const std::vector<float> b = hostile(rng.UniformInt(1, kWindow));
      const std::vector<data::SeriesView> deltas = {a, b};
      SCOPED_TRACE("step " + std::to_string(step));
      std::vector<serve::ScanResult> want;
      for (int spare = 0; spare <= 3; ++spare) {
        SCOPED_TRACE("spare " + std::to_string(spare));
        serve::SessionScanState* s = states[spare];
        const std::vector<serve::ScanResult> got =
            runner.AppendScanMany({&s[0], &s[1]}, deltas, spare);
        if (spare == 0) {
          want = got;
          continue;
        }
        ExpectSameBytes(got[0], want[0], "session a");
        ExpectSameBytes(got[1], want[1], "session b");
      }
    }
  }
}

TEST(ServiceTest, SessionAppendsMatchFromScratchSubmitsBitwise) {
  // The tentpole gate at the service level: appends served through the
  // queue/worker/coalescing machinery, their suffixes overlaid, must
  // equal one-shot Submits of the concatenated series, bit for bit.
  // Futures are harvested before the reference Submits — worker 0
  // borrows the original ensemble.
  core::CamalEnsemble ensemble = RandomEnsemble(65);
  serve::ServiceOptions service_opt;
  service_opt.workers = 2;
  serve::Service service(service_opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("fridge", &ensemble,
                                     SmallRunner(16, 8, 4, 550.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  serve::SessionOptions session_opt;
  session_opt.household_id = "house-7";
  Result<std::shared_ptr<serve::Session>> created =
      service.CreateSession("fridge", session_opt);
  ASSERT_TRUE(created.ok());
  std::shared_ptr<serve::Session> session = created.value();
  EXPECT_EQ(session->id(), "house-7");
  EXPECT_EQ(session->appliance(), "fridge");

  Rng rng(66);
  std::vector<float> concatenated;
  SessionTimeline incremental;
  for (int64_t chunk_len : {11, 30, 0, 8, 26}) {
    std::vector<float> chunk(static_cast<size_t>(chunk_len));
    for (auto& v : chunk) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
    concatenated.insert(concatenated.end(), chunk.begin(), chunk.end());
    Result<serve::ScanResult> result =
        session->AppendReadings(std::move(chunk)).get();
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result.value().latency_seconds, 0.0);
    EXPECT_EQ(session->readings(),
              static_cast<int64_t>(concatenated.size()));
    ASSERT_EQ(result.value().from + result.value().detection.numel(),
              session->readings());
    incremental.Overlay(result.value());

    // Every prefix gets its reference one-shot scan via the owning
    // Submit overload (the request carries the buffer).
    Result<serve::ScanResult> reference =
        service.Submit("fridge", concatenated).get();
    ASSERT_TRUE(reference.ok());
    ExpectTimelineBitwiseEqual(incremental, reference.value(),
                               "prefix " + std::to_string(concatenated.size()));
  }

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions_created, 1);
  EXPECT_EQ(stats.live_sessions, 1);
  EXPECT_EQ(stats.session_appends, 5);
  EXPECT_EQ(stats.appended_readings,
            static_cast<int64_t>(concatenated.size()));
  // The series outgrew one window several appends ago, so persistence
  // must have saved real feed work.
  EXPECT_GT(stats.incremental_windows_saved, 0);

  EXPECT_TRUE(session->Close().ok());
  EXPECT_TRUE(session->closed());
  EXPECT_EQ(service.stats().live_sessions, 0);
  EXPECT_EQ(service.stats().sessions_closed, 1);
}

TEST(ServiceTest, ConcurrentSessionAppendsSerializePerSession) {
  // Appends to one session must serialize in submission order even when
  // fired without waiting, while distinct sessions proceed concurrently.
  // Result ends prove the order: the k-th append of a session resolves to
  // a suffix ending at the k-th cumulative prefix length.
  core::CamalEnsemble ensemble = RandomEnsemble(67);
  serve::ServiceOptions service_opt;
  service_opt.workers = 2;
  serve::Service service(service_opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("washer", &ensemble,
                                     SmallRunner(16, 8, 4, 420.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  constexpr int kSessions = 3;
  constexpr int kAppends = 6;
  const int64_t chunk_len = 12;
  std::vector<std::shared_ptr<serve::Session>> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(service.CreateSession("washer").value());
  }
  Rng rng(68);
  std::vector<std::vector<float>> concatenated(kSessions);
  std::vector<std::vector<std::future<Result<serve::ScanResult>>>> futures(
      kSessions);
  for (int k = 0; k < kAppends; ++k) {
    for (int s = 0; s < kSessions; ++s) {
      std::vector<float> chunk(static_cast<size_t>(chunk_len));
      for (auto& v : chunk) v = static_cast<float>(rng.Uniform(0.0, 2000.0));
      concatenated[static_cast<size_t>(s)].insert(
          concatenated[static_cast<size_t>(s)].end(), chunk.begin(),
          chunk.end());
      futures[static_cast<size_t>(s)].push_back(
          sessions[static_cast<size_t>(s)]->AppendReadings(
              std::move(chunk)));
    }
  }
  // Harvest everything before the reference Submits (worker 0 borrows the
  // original ensemble). The k-th future's end proves in-order serving;
  // the k-th timeline is the k-th prefix's.
  std::vector<std::vector<SessionTimeline>> timelines(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    SessionTimeline timeline;
    for (int k = 0; k < kAppends; ++k) {
      Result<serve::ScanResult> result =
          futures[static_cast<size_t>(s)][static_cast<size_t>(k)].get();
      ASSERT_TRUE(result.ok()) << "session " << s << " append " << k;
      ASSERT_EQ(result.value().from + result.value().detection.numel(),
                (k + 1) * chunk_len)
          << "session " << s << " append " << k << " served out of order";
      timeline.Overlay(result.value());
      timelines[static_cast<size_t>(s)].push_back(timeline);
    }
  }
  for (size_t s = 0; s < timelines.size(); ++s) {
    SCOPED_TRACE("session " + std::to_string(s));
    for (size_t k = 0; k < timelines[s].size(); ++k) {
      std::vector<float> prefix = concatenated[s];
      prefix.resize((k + 1) * static_cast<size_t>(chunk_len));
      Result<serve::ScanResult> reference =
          service.Submit("washer", prefix).get();
      ASSERT_TRUE(reference.ok());
      ExpectTimelineBitwiseEqual(timelines[s][k], reference.value(),
                                 "append " + std::to_string(k));
    }
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.session_appends, kSessions * kAppends);
  EXPECT_EQ(stats.failed, 0);
}

TEST(ServiceTest, DistinctSessionAppendsCoalesceIntoSharedBatches) {
  // One worker, deep queue: appends of distinct sessions drained together
  // must serve through one shared AppendScanMany pass (coalescing
  // telemetry ticks) and still match from-scratch Submits bitwise.
  core::CamalEnsemble ensemble = RandomEnsemble(69);
  serve::ServiceOptions service_opt;
  service_opt.workers = 1;
  service_opt.coalesce_budget = 8;
  serve::Service service(service_opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("heater", &ensemble,
                                     SmallRunner(16, 8, 4, 1200.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  // Park the lone worker on a long one-shot scan so the session appends
  // pile up behind it and dequeue as one group.
  Rng rng(70);
  std::vector<float> long_series(4096);
  for (auto& v : long_series) {
    v = static_cast<float>(rng.Uniform(0.0, 3000.0));
  }
  std::future<Result<serve::ScanResult>> plug =
      service.Submit("heater", long_series);

  constexpr int kSessions = 5;
  std::vector<std::shared_ptr<serve::Session>> sessions;
  std::vector<std::vector<float>> chunks(kSessions);
  std::vector<std::future<Result<serve::ScanResult>>> futures;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(service.CreateSession("heater").value());
    chunks[static_cast<size_t>(s)].resize(20 + 3 * static_cast<size_t>(s));
    for (auto& v : chunks[static_cast<size_t>(s)]) {
      v = static_cast<float>(rng.Uniform(0.0, 2500.0));
    }
    futures.push_back(sessions[static_cast<size_t>(s)]->AppendReadings(
        chunks[static_cast<size_t>(s)]));
  }

  ASSERT_TRUE(plug.get().ok());
  std::vector<serve::ScanResult> results;
  for (auto& future : futures) {
    Result<serve::ScanResult> result = future.get();
    ASSERT_TRUE(result.ok());
    results.push_back(std::move(result).value());
  }
  // The appends piled up behind the plug, so at least one group formed.
  const serve::ServiceStats stats = service.stats();
  EXPECT_GE(stats.coalesced_groups, 1);
  for (int s = 0; s < kSessions; ++s) {
    Result<serve::ScanResult> reference =
        service.Submit("heater", chunks[static_cast<size_t>(s)]).get();
    ASSERT_TRUE(reference.ok());
    ExpectBitwiseEqual(results[static_cast<size_t>(s)], reference.value(),
                       "session " + std::to_string(s));
  }
}

TEST(ServiceTest, AppendAfterCloseFailsWithFailedPrecondition) {
  core::CamalEnsemble ensemble = RandomEnsemble(71);
  serve::Service service;
  ASSERT_TRUE(service
                  .RegisterAppliance("dryer", &ensemble,
                                     SmallRunner(16, 8, 4, 2000.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  std::shared_ptr<serve::Session> session =
      service.CreateSession("dryer").value();
  ASSERT_TRUE(
      session->AppendReadings(std::vector<float>(24, 900.0f)).get().ok());

  ASSERT_TRUE(session->Close().ok());
  EXPECT_TRUE(session->closed());
  Result<serve::ScanResult> late =
      session->AppendReadings(std::vector<float>(8, 100.0f)).get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(late.status().message().find("closed"), std::string::npos);

  // Close is idempotent, and closing doesn't disturb the gauges twice.
  EXPECT_TRUE(session->Close().ok());
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions_closed, 1);
  EXPECT_EQ(stats.live_sessions, 0);
  // Committed readings survive close for observability.
  EXPECT_EQ(session->readings(), 24);
}

TEST(ServiceTest, ShutdownWithLiveSessionsResolvesEveryFuture) {
  // ASan doubles as the leak gate here: every parked append's promise
  // must resolve (kFailedPrecondition), every session close, no worker
  // left joined-less, no QueuedScan leaked.
  core::CamalEnsemble ensemble = RandomEnsemble(73);
  serve::ServiceOptions service_opt;
  service_opt.workers = 1;
  serve::Service service(service_opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("pump", &ensemble,
                                     SmallRunner(16, 8, 4, 300.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  std::vector<std::shared_ptr<serve::Session>> sessions;
  std::vector<std::future<Result<serve::ScanResult>>> futures;
  for (int s = 0; s < 3; ++s) {
    sessions.push_back(service.CreateSession("pump").value());
    // Several appends per session: the first goes in flight, the rest
    // park on the session and meet Shutdown there.
    for (int k = 0; k < 4; ++k) {
      futures.push_back(sessions.back()->AppendReadings(
          std::vector<float>(40, static_cast<float>(100 * (k + 1)))));
    }
  }
  service.Shutdown();

  int ok = 0;
  int failed_precondition = 0;
  for (auto& future : futures) {
    Result<serve::ScanResult> result = future.get();  // must not hang
    if (result.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
      ++failed_precondition;
    }
  }
  EXPECT_EQ(ok + failed_precondition, 12);
  EXPECT_EQ(service.stats().live_sessions, 0);
  for (const auto& session : sessions) EXPECT_TRUE(session->closed());
  // Appends after shutdown reject immediately.
  EXPECT_EQ(sessions[0]
                ->AppendReadings(std::vector<float>(4, 1.0f))
                .get()
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(ServiceTest, SessionBackpressureBoundsParkedAppends) {
  // A session's park is bounded by max_pending_appends; the overflow
  // append rejects as backpressure without touching the global queue.
  core::CamalEnsemble ensemble = RandomEnsemble(75);
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  std::atomic<bool> gate_armed{true};
  FaultInjector injector;
  injector.set_scan_hook([&](const std::string& household) {
    if (gate_armed.load() && household == "slow-house") {
      gate_future.wait();
    }
  });
  serve::ServiceOptions service_opt;
  service_opt.workers = 1;
  service_opt.fault_injector = &injector;
  serve::Service service(service_opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("boiler", &ensemble,
                                     SmallRunner(16, 8, 4, 800.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  serve::SessionOptions session_opt;
  session_opt.household_id = "slow-house";
  session_opt.max_pending_appends = 2;
  std::shared_ptr<serve::Session> session =
      service.CreateSession("boiler", session_opt).value();

  // First append blocks on the gate; two park; the fourth overflows.
  std::vector<std::future<Result<serve::ScanResult>>> futures;
  for (int k = 0; k < 3; ++k) {
    futures.push_back(
        session->AppendReadings(std::vector<float>(10, 500.0f)));
  }
  Result<serve::ScanResult> overflow =
      session->AppendReadings(std::vector<float>(10, 500.0f)).get();
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(overflow.status().message().find("backpressure"),
            std::string::npos);
  EXPECT_GE(service.stats().rejected_backpressure, 1);

  gate_armed.store(false);
  gate.set_value();
  for (auto& future : futures) ASSERT_TRUE(future.get().ok());
  EXPECT_EQ(session->readings(), 30);
}

TEST(ServiceTest, EvictIdleSessionsSkipsBusyAndReclaimsQuiescent) {
  // Eviction takes only truly idle sessions: one session is held busy by
  // a gated append while the sweep runs, so it must survive; the idle one
  // goes. The busy session keeps working afterwards.
  core::CamalEnsemble ensemble = RandomEnsemble(77);
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  std::atomic<bool> gate_armed{true};
  FaultInjector injector;
  injector.set_scan_hook([&](const std::string& household) {
    if (gate_armed.load() && household == "busy-house") {
      gate_future.wait();
    }
  });
  serve::ServiceOptions service_opt;
  service_opt.workers = 1;
  service_opt.fault_injector = &injector;
  serve::Service service(service_opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("fan", &ensemble,
                                     SmallRunner(16, 8, 4, 60.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  serve::SessionOptions idle_opt;
  idle_opt.household_id = "idle-house";
  std::shared_ptr<serve::Session> idle =
      service.CreateSession("fan", idle_opt).value();
  ASSERT_TRUE(idle->AppendReadings(std::vector<float>(20, 40.0f)).get().ok());

  serve::SessionOptions busy_opt;
  busy_opt.household_id = "busy-house";
  std::shared_ptr<serve::Session> busy =
      service.CreateSession("fan", busy_opt).value();
  std::future<Result<serve::ScanResult>> in_flight =
      busy->AppendReadings(std::vector<float>(20, 50.0f));

  // Idle threshold 0: anything quiescent goes, anything busy stays.
  EXPECT_EQ(service.EvictIdleSessions(0.0), 1);
  EXPECT_TRUE(idle->closed());
  EXPECT_FALSE(busy->closed());
  EXPECT_EQ(service.stats().sessions_evicted, 1);
  EXPECT_EQ(service.stats().live_sessions, 1);

  gate_armed.store(false);
  gate.set_value();
  ASSERT_TRUE(in_flight.get().ok());
  // The survivor still serves appends after the sweep.
  ASSERT_TRUE(busy->AppendReadings(std::vector<float>(12, 55.0f)).get().ok());
  EXPECT_EQ(busy->readings(), 32);
  // The evicted handle rejects like a closed one.
  EXPECT_EQ(idle->AppendReadings(std::vector<float>(4, 1.0f))
                .get()
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(ServiceTest, EvictionRacesAppendsWithoutCorruption) {
  // TSan gate: appends and eviction sweeps hammer the same small session
  // fleet from two threads. Every future must resolve, every reading
  // either commits or fails cleanly, and the bookkeeping must balance.
  core::CamalEnsemble ensemble = RandomEnsemble(79);
  serve::ServiceOptions service_opt;
  service_opt.workers = 2;
  serve::Service service(service_opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("ac", &ensemble,
                                     SmallRunner(16, 8, 4, 1500.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  constexpr int kRounds = 40;
  std::atomic<bool> stop{false};
  std::thread evictor([&] {
    while (!stop.load()) service.EvictIdleSessions(0.0);
  });

  int64_t appends_ok = 0;
  int64_t appends_rejected = 0;
  for (int round = 0; round < kRounds; ++round) {
    Result<std::shared_ptr<serve::Session>> created =
        service.CreateSession("ac");
    ASSERT_TRUE(created.ok());
    std::shared_ptr<serve::Session> session = created.value();
    std::vector<std::future<Result<serve::ScanResult>>> futures;
    for (int k = 0; k < 3; ++k) {
      futures.push_back(
          session->AppendReadings(std::vector<float>(18, 700.0f)));
    }
    for (auto& future : futures) {
      Result<serve::ScanResult> result = future.get();
      if (result.ok()) {
        ++appends_ok;
      } else {
        // The sweep got between two appends: a clean closed-session
        // rejection, never a crash or a corrupt result.
        ASSERT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
        ++appends_rejected;
      }
    }
  }
  stop.store(true);
  evictor.join();

  EXPECT_EQ(appends_ok + appends_rejected, kRounds * 3);
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions_created, kRounds);
  EXPECT_EQ(stats.sessions_created,
            stats.sessions_closed + stats.sessions_evicted +
                stats.live_sessions);
}

TEST(ServiceTest, ZeroLengthAndNaNTailAppendsStayBitwiseExact) {
  // Session lifecycle edges: an empty delta must re-finalize without
  // feeding anything, and an all-NaN tail must zero-fill its windows and
  // clamp power to 0 at the missing readings — both, overlaid on the
  // earlier suffixes, bitwise-equal to the from-scratch scan.
  core::CamalEnsemble ensemble = RandomEnsemble(81);
  serve::ServiceOptions service_opt;
  service_opt.workers = 2;
  serve::Service service(service_opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("tv", &ensemble,
                                     SmallRunner(16, 8, 4, 150.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  std::shared_ptr<serve::Session> session =
      service.CreateSession("tv").value();

  Rng rng(82);
  std::vector<float> concatenated;
  SessionTimeline timeline;
  std::vector<float> normal(30);
  for (auto& v : normal) v = static_cast<float>(rng.Uniform(0.0, 1000.0));
  concatenated.insert(concatenated.end(), normal.begin(), normal.end());
  Result<serve::ScanResult> first = session->AppendReadings(normal).get();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().from, 0);
  timeline.Overlay(first.value());
  Result<serve::ScanResult> reference =
      service.Submit("tv", concatenated).get();
  ASSERT_TRUE(reference.ok());
  ExpectTimelineBitwiseEqual(timeline, reference.value(), "first");

  // Zero-length append: its suffix ends at the unchanged series end.
  Result<serve::ScanResult> empty_append =
      session->AppendReadings(std::vector<float>()).get();
  ASSERT_TRUE(empty_append.ok());
  ASSERT_EQ(empty_append.value().from + empty_append.value().detection.numel(),
            30);
  timeline.Overlay(empty_append.value());
  reference = service.Submit("tv", concatenated).get();
  ASSERT_TRUE(reference.ok());
  ExpectTimelineBitwiseEqual(timeline, reference.value(), "empty");

  // NaN tail: missing readings vote through zero-filled windows and the
  // power estimate is forced to 0 there.
  std::vector<float> nan_tail(12, std::nanf(""));
  concatenated.insert(concatenated.end(), nan_tail.begin(), nan_tail.end());
  Result<serve::ScanResult> nan_append =
      session->AppendReadings(nan_tail).get();
  ASSERT_TRUE(nan_append.ok());
  ASSERT_EQ(nan_append.value().from + nan_append.value().detection.numel(), 42);
  timeline.Overlay(nan_append.value());
  for (size_t t = 30; t < 42; ++t) {
    EXPECT_EQ(timeline.power[t], 0.0f) << "t=" << t;
  }
  reference = service.Submit("tv", concatenated).get();
  ASSERT_TRUE(reference.ok());
  ExpectTimelineBitwiseEqual(timeline, reference.value(), "nan-tail");
}

TEST(ServiceTest, SessionAndSubmitValidationShareOneErrorContract) {
  core::CamalEnsemble ensemble = RandomEnsemble(83);
  serve::Service service;

  // CreateSession before Start is a lifecycle error, like Submit.
  EXPECT_EQ(service.CreateSession("fridge").status().code(),
            StatusCode::kFailedPrecondition);

  // Bad runner options are rejected at registration through Status — the
  // old path aborted inside the worker's BatchRunner constructor.
  serve::BatchRunnerOptions bad = SmallRunner(0, 8, 4, 500.0f);
  EXPECT_EQ(service.RegisterAppliance("fridge", &ensemble, bad).code(),
            StatusCode::kInvalidArgument);
  bad = SmallRunner(16, 0, 4, 500.0f);
  EXPECT_EQ(service.RegisterAppliance("fridge", &ensemble, bad).code(),
            StatusCode::kInvalidArgument);
  bad = SmallRunner(16, 8, 4, -1.0f);
  EXPECT_EQ(service.RegisterAppliance("fridge", &ensemble, bad).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(service
                  .RegisterAppliance("fridge", &ensemble,
                                     SmallRunner(16, 8, 4, 500.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  // Unknown appliance and duplicate ids surface as Status.
  EXPECT_EQ(service.CreateSession("toaster").status().code(),
            StatusCode::kNotFound);
  serve::SessionOptions opt;
  opt.household_id = "dup";
  ASSERT_TRUE(service.CreateSession("fridge", opt).ok());
  EXPECT_EQ(service.CreateSession("fridge", opt).status().code(),
            StatusCode::kInvalidArgument);
  opt.household_id.clear();
  opt.max_pending_appends = -1;
  EXPECT_EQ(service.CreateSession("fridge", opt).status().code(),
            StatusCode::kInvalidArgument);

  // A request that sets both series forms is ambiguous and rejected.
  std::vector<float> series(20, 1.0f);
  serve::ScanRequest both;
  both.appliance = "fridge";
  both.series = data::SeriesView(series);
  both.owned_series = series;
  EXPECT_EQ(service.Submit(std::move(both)).get().status().code(),
            StatusCode::kInvalidArgument);

  // The owning Submit overload serves from a buffer the caller dropped.
  std::future<Result<serve::ScanResult>> owned;
  {
    std::vector<float> ephemeral(40);
    Rng rng(84);
    for (auto& v : ephemeral) {
      v = static_cast<float>(rng.Uniform(0.0, 2000.0));
    }
    series = ephemeral;  // keep a copy for the reference scan
    owned = service.Submit("fridge", std::move(ephemeral));
  }
  Result<serve::ScanResult> owned_result = owned.get();
  ASSERT_TRUE(owned_result.ok());
  Result<serve::ScanResult> borrowed_result =
      service.Submit("fridge", series).get();
  ASSERT_TRUE(borrowed_result.ok());
  ExpectBitwiseEqual(owned_result.value(), borrowed_result.value(),
                     "owned-vs-copy");
}

}  // namespace
}  // namespace camal
