#include "core/power_estimation.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/parallel_for.h"

namespace camal::core {

nn::Tensor EstimatePower(const nn::Tensor& status,
                         const nn::Tensor& aggregate_watts,
                         float avg_power_w) {
  CAMAL_CHECK_EQ(status.ndim(), 2);
  const int64_t n = status.dim(0), l = status.dim(1);
  CAMAL_CHECK_EQ(aggregate_watts.numel(), n * l);
  nn::Tensor power = nn::Tensor::Uninitialized({n, l});
  EstimatePower(status.data(), aggregate_watts.data(), n * l, avg_power_w,
                power.data());
  return power;
}

void EstimatePower(const float* status, const float* aggregate_watts,
                   int64_t count, float avg_power_w, float* power) {
  CAMAL_CHECK_GE(avg_power_w, 0.0f);
  ParallelForChunked(0, count, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const float initial = status[i] >= 0.5f ? avg_power_w : 0.0f;
      power[i] = std::min(initial, std::max(0.0f, aggregate_watts[i]));
    }
  });
}

nn::Tensor EstimatePowerRefined(const nn::Tensor& status,
                                const nn::Tensor& aggregate_watts,
                                float avg_power_w, int64_t context) {
  CAMAL_CHECK_EQ(status.ndim(), 2);
  CAMAL_CHECK_GT(context, 0);
  const int64_t n = status.dim(0), l = status.dim(1);
  CAMAL_CHECK_EQ(aggregate_watts.numel(), n * l);
  nn::Tensor power({n, l});
  const nn::Tensor watts = aggregate_watts.Reshape({n, l});

  ParallelFor(0, n, [&](int64_t i) {
    int64_t t = 0;
    while (t < l) {
      if (status.at2(i, t) < 0.5f) {
        ++t;
        continue;
      }
      // Contiguous ON segment [seg_begin, seg_end).
      const int64_t seg_begin = t;
      while (t < l && status.at2(i, t) >= 0.5f) ++t;
      const int64_t seg_end = t;
      // Local OFF baseline: median of OFF samples in the context around
      // the segment.
      std::vector<float> off_samples;
      for (int64_t u = std::max<int64_t>(0, seg_begin - context);
           u < std::min(l, seg_end + context); ++u) {
        if (status.at2(i, u) < 0.5f) off_samples.push_back(watts.at2(i, u));
      }
      for (int64_t u = seg_begin; u < seg_end; ++u) {
        const float x = std::max(0.0f, watts.at2(i, u));
        float estimate = 0.0f;
        if (off_samples.empty()) {
          estimate = std::min(avg_power_w, x);  // constant-model fallback
        } else {
          std::nth_element(off_samples.begin(),
                           off_samples.begin() +
                               static_cast<long>(off_samples.size() / 2),
                           off_samples.end());
          const float baseline = off_samples[off_samples.size() / 2];
          estimate = std::clamp(x - baseline, 0.0f,
                                std::min(2.0f * avg_power_w, x));
        }
        power.at2(i, u) = estimate;
      }
    }
  });
  return power;
}

}  // namespace camal::core
