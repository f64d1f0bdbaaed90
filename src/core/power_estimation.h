#ifndef CAMAL_CORE_POWER_ESTIMATION_H_
#define CAMAL_CORE_POWER_ESTIMATION_H_

#include "nn/tensor.h"

namespace camal::core {

/// §IV-C: converts a binary status signal into estimated per-appliance
/// power:  p_hat(t) = min(s_hat(t) * P_a, x(t)).
///
/// \p status is (N, L) in {0,1}; \p aggregate_watts is (N, 1, L) or (N, L)
/// in Watts (unscaled); \p avg_power_w is the appliance's P_a (Table I).
/// Returns (N, L) estimated Watts. Applied to every baseline before energy
/// metrics are computed (§V-B).
nn::Tensor EstimatePower(const nn::Tensor& status,
                         const nn::Tensor& aggregate_watts,
                         float avg_power_w);

/// The same rule over \p count readings in caller buffers: writes
/// \p power, which may alias \p aggregate_watts.
void EstimatePower(const float* status, const float* aggregate_watts,
                   int64_t count, float avg_power_w, float* power);

/// Refined segment-wise power estimation — the post-processing the paper's
/// §V-I names as future work ("more advanced post-processing methods are
/// needed to refine the estimated consumption").
///
/// Instead of assigning the constant P_a to every ON timestamp, each
/// contiguous ON segment is priced at the *observed step* over the local
/// baseline: baseline = median of the aggregate over nearby OFF timestamps
/// (context of \p context samples on each side of the segment), and
///   p_hat(t) = clamp(x(t) - baseline, 0, min(P_a * 2, x(t))).
/// Falls back to EstimatePower's constant model when a segment has no OFF
/// context. Compared against the simple model in bench_ablation_power.
nn::Tensor EstimatePowerRefined(const nn::Tensor& status,
                                const nn::Tensor& aggregate_watts,
                                float avg_power_w, int64_t context = 16);

}  // namespace camal::core

#endif  // CAMAL_CORE_POWER_ESTIMATION_H_
