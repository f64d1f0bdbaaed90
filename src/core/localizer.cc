#include "core/localizer.h"

#include <cmath>

#include "common/parallel_for.h"
#include "core/cam.h"
#include "nn/activations.h"

namespace camal::core {

CamalLocalizer::CamalLocalizer(const CamalEnsemble* ensemble,
                               LocalizerOptions options)
    : ensemble_(ensemble), options_(options) {
  CAMAL_CHECK(ensemble != nullptr);
}

LocalizationResult CamalLocalizer::Localize(const nn::Tensor& inputs,
                                            int spare) {
  CAMAL_CHECK_EQ(inputs.ndim(), 3);
  const int64_t n = inputs.dim(0), l = inputs.dim(2);

  LocalizationResult result;
  // Steps 1-3: ensemble probability through the batched inference
  // runtime, whose member forwards write their class-1 CAMs to this
  // localizer's scratch.
  result.probabilities =
      ensemble_->DetectProbabilityBatched(inputs, nullptr, spare, &cams_);

  // Step 4: max-normalized, averaged.
  for (nn::Tensor& cam : cams_) NormalizeCamByMaxInPlace(&cam);
  result.ensemble_cam = AverageCams(cams_);

  // Steps 5-6: attention-sigmoid and rounding, gated by detection. The
  // attention mask multiplies the CAM with the *standardized* window (the
  // paper's "considering the shape of the aggregate signal"): a timestamp
  // is ON when positive CAM evidence coincides with above-average power.
  // Without standardization the sigmoid rounding would degenerate to
  // sign(CAM) because raw power is always positive.
  result.status = nn::Tensor({n, l});
  ParallelFor(0, n, [&](int64_t i) {
    if (result.probabilities.at(i) <= options_.detection_threshold) {
      return;  // undetected: all timestamps stay 0 (step 2).
    }
    // Per-window standardization of the aggregate.
    double mean = 0.0, sq = 0.0;
    for (int64_t t = 0; t < l; ++t) {
      const double v = inputs.at3(i, 0, t);
      mean += v;
      sq += v * v;
    }
    mean /= static_cast<double>(l);
    double var = sq / static_cast<double>(l) - mean * mean;
    if (var < 0.0) var = 0.0;
    const float inv_std =
        var > 1e-12 ? static_cast<float>(1.0 / std::sqrt(var)) : 0.0f;

    for (int64_t t = 0; t < l; ++t) {
      const float cam = result.ensemble_cam.at2(i, t);
      float s = 0.0f;
      if (options_.use_attention) {
        const float x_std =
            (inputs.at3(i, 0, t) - static_cast<float>(mean)) * inv_std -
            options_.activation_z_gate;
        s = nn::SigmoidScalar(cam * x_std);
        // Rounding at >= 0.5 would mark zero-evidence timestamps ON;
        // require positive CAM evidence coinciding with gated power
        // (cam > 0 and x_std > 0 <=> s > 0.5 with cam > 0).
        result.status.at2(i, t) = (cam > 0.0f && s > 0.5f) ? 1.0f : 0.0f;
      } else {
        // Ablation: no input gating; sigmoid(CAM) >= 0.5 <=> CAM >= 0.
        s = nn::SigmoidScalar(cam);
        result.status.at2(i, t) = s >= 0.5f ? 1.0f : 0.0f;
      }
    }
  });
  return result;
}

}  // namespace camal::core
