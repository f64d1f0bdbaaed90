#ifndef CAMAL_CORE_LOCALIZER_H_
#define CAMAL_CORE_LOCALIZER_H_

#include "core/ensemble.h"

namespace camal::core {

/// Output of the CamAL localization pipeline for a batch of windows.
struct LocalizationResult {
  nn::Tensor probabilities;  ///< (N) ensemble detection probability.
  nn::Tensor ensemble_cam;   ///< (N, L) averaged normalized CAM.
  nn::Tensor status;         ///< (N, L) predicted activation s-hat in {0,1}.
};

/// Knobs for §IV-B step 5/6 and the Table IV ablations.
struct LocalizerOptions {
  /// Detection threshold of step 2 (paper: 0.5).
  float detection_threshold = 0.5f;
  /// When false, the attention-sigmoid module is ablated ("w/o Attention
  /// module" in Table IV): the averaged CAM is rounded directly through the
  /// sigmoid, without gating by the input signal.
  bool use_attention = true;
  /// Power gate of the attention mask, in per-window z-score units: a
  /// timestamp can only be ON when the aggregate is more than this many
  /// standard deviations above the window mean. 0 reduces to plain
  /// above-average gating; ~1 rejects base-load oscillation (fridge
  /// cycling) while keeping genuine appliance activations, which sit far
  /// above the window mean.
  float activation_z_gate = 1.0f;
};

/// The appliance-pattern localization module of §IV-B.
///
/// Steps: (1) ensemble prediction, (2) detection gate at the threshold,
/// (3) per-member class-1 CAM extraction, (4) max-normalization and
/// averaging, (5) attention: s(t) = sigmoid(CAM_ens(t) * x(t)), (6)
/// rounding to a binary status. Windows whose detection probability is
/// below the threshold output all-zero status.
///
/// Interpretation note: the CAM is kept signed after max-normalization and
/// the attention mask multiplies it with the per-window *standardized*
/// aggregate, so rounding sigmoid(CAM * x_std) at 0.5 marks a timestamp ON
/// exactly when positive CAM evidence coincides with above-average power —
/// this is how "the shape of the aggregate signal" sharpens localization
/// (§IV-B step 5). The ablated variant rounds sigmoid(CAM) instead, which
/// floods zero/positive-CAM timestamps regardless of the signal —
/// reproducing the precision collapse the paper reports for "w/o Attention
/// module" (Table IV).
class CamalLocalizer {
 public:
  /// \p ensemble is borrowed read-only and must outlive the localizer.
  explicit CamalLocalizer(const CamalEnsemble* ensemble,
                          LocalizerOptions options = {});

  /// Runs the full pipeline on (N, 1, L) scaled inputs. \p spare idle
  /// cores let the ensemble's (member, window) forwards run as parallel
  /// lanes (see CamalEnsemble::DetectProbabilityBatched); the result is
  /// bitwise the same for every value, and the default 0 runs each member
  /// over the whole batch in turn.
  LocalizationResult Localize(const nn::Tensor& inputs, int spare = 0);

 private:
  const CamalEnsemble* ensemble_;
  LocalizerOptions options_;
  /// Per-member class-1 CAMs (N, L), reused across Localize calls (a
  /// household scan localizes hundreds of equally-shaped batches). Each
  /// member's forward forms its CAM rows from the maps it just produced
  /// (CamBackbone::InferRows), so the maps never leave the forwarding
  /// thread's activations and the localizer holds O(N · L) per member.
  /// One localizer instance is therefore single-threaded state —
  /// serve::Service gives each worker its own localizer, all over the one
  /// shared ensemble.
  std::vector<nn::Tensor> cams_;
};

}  // namespace camal::core

#endif  // CAMAL_CORE_LOCALIZER_H_
