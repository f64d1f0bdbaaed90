#ifndef CAMAL_TESTS_SESSION_TIMELINE_H_
#define CAMAL_TESTS_SESSION_TIMELINE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "serve/batch_runner.h"

namespace camal {

/// A session's whole per-timestamp result, rebuilt from its appends. An
/// append returns the suffix [from, len) its readings changed; every
/// earlier timestamp keeps the value an earlier append returned. Writing
/// each suffix at its `from` over the previous ones must reproduce a
/// from-scratch Scan of the concatenated series, bit for bit.
struct SessionTimeline {
  std::vector<float> detection;
  std::vector<float> status;
  std::vector<float> power;

  /// Writes \p suffix at its `from`. A suffix starting past the timeline's
  /// end would leave timestamps that no append ever returned.
  void Overlay(const serve::ScanResult& suffix) {
    ASSERT_GE(suffix.from, 0);
    const auto from = static_cast<size_t>(suffix.from);
    ASSERT_LE(from, detection.size()) << "suffix leaves a gap";
    const auto n = static_cast<size_t>(suffix.detection.numel());
    detection.resize(from + n);
    status.resize(from + n);
    power.resize(from + n);
    for (size_t t = 0; t < n; ++t) {
      const auto i = static_cast<int64_t>(t);
      detection[from + t] = suffix.detection.at(i);
      status[from + t] = suffix.status.at(i);
      power[from + t] = suffix.power.at(i);
    }
  }
};

/// Every timestamp of \p got equals \p want: the incremental path must
/// reproduce the exact float accumulation order of a from-scratch
/// stitch, so not a single ULP may move.
inline void ExpectTimelineBitwiseEqual(const SessionTimeline& got,
                                       const serve::ScanResult& want,
                                       const std::string& label) {
  ASSERT_EQ(static_cast<int64_t>(got.detection.size()), want.detection.numel())
      << label;
  for (int64_t t = 0; t < want.detection.numel(); ++t) {
    const auto s = static_cast<size_t>(t);
    ASSERT_EQ(got.detection[s], want.detection.at(t))
        << label << " detection t=" << t;
    ASSERT_EQ(got.status[s], want.status.at(t)) << label << " status t=" << t;
    ASSERT_EQ(got.power[s], want.power.at(t)) << label << " power t=" << t;
  }
}

}  // namespace camal

#endif  // CAMAL_TESTS_SESSION_TIMELINE_H_
