#ifndef CAMAL_SERVE_BATCH_RUNNER_H_
#define CAMAL_SERVE_BATCH_RUNNER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/localizer.h"
#include "data/series_view.h"
#include "serve/window_stream.h"

namespace camal::serve {

/// Configuration of a BatchRunner scan.
struct BatchRunnerOptions {
  WindowStreamOptions stream;
  core::LocalizerOptions localizer;
  /// Appliance average power P_a (Watts) for §IV-C power estimation.
  float appliance_avg_power_w = 0.0f;
};

/// Per-timestamp result of scanning one household series.
struct ScanResult {
  nn::Tensor detection;  ///< (T) mean detection prob of covering windows.
  nn::Tensor status;     ///< (T) 0/1 activation by majority vote of windows.
  nn::Tensor power;      ///< (T) estimated appliance Watts (§IV-C).
  int64_t windows = 0;   ///< windows processed.
  /// Windows a from-scratch scan of the full series would process. Equal
  /// to `windows` for one-shot scans; for incremental session appends the
  /// gap windows_full - windows is the feed work the persisted stitch
  /// state saved.
  int64_t windows_full = 0;
  /// Wall-clock inference time of the scan. For a series served inside a
  /// coalesced ScanMany group this is the shared pass's time (the group
  /// was inferred together, so its members are not separable).
  double seconds = 0.0;
  /// End-to-end request latency when served through serve::Service:
  /// admission-queue wait plus the scan itself. 0 for direct
  /// BatchRunner::Scan calls, which never queue.
  double latency_seconds = 0.0;

  /// Windows per second of the scan (0 when timing was too fast to resolve).
  double WindowsPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(windows) / seconds : 0.0;
  }
};

/// Persisted stitch state of one streaming household: everything an
/// incremental rescan needs to extend the household's result without
/// re-feeding committed windows. Owned by serve::Session (or any caller
/// driving AppendScan directly); BatchRunner only reads and extends it,
/// so state created by one runner can be appended to by another — the
/// per-window forward results it caches votes from are replica- and
/// batch-composition-invariant.
///
/// The accumulators hold STRIDE-GRID window votes only. Grid windows
/// never move once committed (growing a series only appends offsets),
/// while the end-aligned tail window — and the zero-padded window of a
/// series still shorter than one window — depends on the current series
/// end, so every append recomputes it into a transient overlay that is
/// summed after the grid votes. That reproduces a from-scratch stitch's
/// accumulation order (grid windows ascending, tail last) bit for bit,
/// which is what makes incremental results bitwise-identical to a full
/// rescan of the concatenated series.
struct SessionScanState {
  std::vector<float> series;      ///< committed aggregate readings (owned).
  int64_t grid_windows = 0;       ///< grid windows already accumulated.
  std::vector<float> prob_sum;    ///< per-timestamp grid probability sum.
  std::vector<int32_t> cover;     ///< grid windows covering each timestamp.
  std::vector<int32_t> on_votes;  ///< grid ON votes per timestamp.

  /// Readings committed so far.
  int64_t readings() const { return static_cast<int64_t>(series.size()); }
};

/// End-to-end batched serving for one appliance: slices a household
/// aggregate into overlapping windows (MultiWindowStream), pushes them through
/// the CamAL localization pipeline batch by batch via the inference-only
/// forward path, and stitches per-window detections and activation masks
/// back into per-timestamp series. Overlapping windows vote: detection is
/// the mean window probability covering a timestamp, status the majority
/// of window masks, and power the §IV-C estimate over the voted status
/// (forced to 0 at missing readings, which have no observed aggregate).
///
/// The scan is two phases. Feed: windows stream through the model in
/// shared GEMM batches (MultiWindowStream). Stitch: each window's votes
/// accumulate into its own series' per-timestamp buffers, which finalize
/// independently. Because per-window forward results do not depend on
/// which other windows share a batch, ScanMany can coalesce windows from
/// several series into one forward pass and still return, for every
/// series, bitwise-identical results to a lone Scan of it.
class BatchRunner {
 public:
  /// \p ensemble is borrowed and must outlive the runner.
  BatchRunner(core::CamalEnsemble* ensemble, BatchRunnerOptions options);

  /// Scans \p aggregate_watts (unscaled Watts; NaN = missing reading).
  /// The view is borrowed for the duration of the call only — it can sit
  /// over a vector or straight over a mapped ColumnStore channel; nothing
  /// is copied either way. Series shorter than one window are left-padded
  /// with zeros (the stream's missing-value fill) to a single window and
  /// scanned, so even short households get real predictions; empty series
  /// return all-zero results. Not thread-safe: a runner owns reusable scan
  /// scratch, so concurrent scans need one runner each (serve::Service
  /// gives every worker its own).
  ScanResult Scan(data::SeriesView aggregate_watts);

  /// Coalesced scan of several series through shared GEMM batches: one
  /// feed phase carries every series' windows (batches fill across series
  /// boundaries, so small households no longer mean underfilled batches),
  /// then each series stitches and finalizes on its own. results[i] is
  /// bitwise-identical to Scan(series[i]); entries may repeat or be
  /// empty. Not thread-safe, like Scan.
  std::vector<ScanResult> ScanMany(const std::vector<data::SeriesView>& series);

  /// Incremental rescan: appends \p delta to \p state's committed series
  /// and feeds ONLY the windows the new tail touches — grid windows not
  /// yet committed plus the end-aligned tail (or short-series pad) window
  /// — reusing the persisted votes for everything else. Returns the
  /// full-series result, bitwise-identical to Scan(state->series) after
  /// the append; its `windows` counts only the windows actually fed.
  /// Empty deltas are fine (they re-finalize without feeding anything).
  /// \p delta must not view \p state's own committed series (it is copied
  /// into it). Not thread-safe, like Scan; concurrent appends to one
  /// state are the caller's bug (serve::Service serializes per session).
  ScanResult AppendScan(SessionScanState* state, data::SeriesView delta);

  /// Coalesced incremental rescan of several sessions: one feed phase
  /// carries every session's new windows, so distinct households' appends
  /// share GEMM batches exactly like ScanMany coalesces one-shot scans.
  /// states[i] / deltas[i] pair up; states must not be null and must be
  /// distinct, and no delta may view its own state's committed series.
  /// results[i] is bitwise-identical to Scan(states[i]->series) after its
  /// append. Not thread-safe.
  std::vector<ScanResult> AppendScanMany(
      const std::vector<SessionScanState*>& states,
      const std::vector<data::SeriesView>& deltas);

  /// Validates scan options without constructing a runner — the Status
  /// mirror of the constructor's programmer-error CHECKs, for callers
  /// (serve::Service::RegisterAppliance) that take options from
  /// configuration and must reject bad ones instead of aborting.
  static Status ValidateOptions(const BatchRunnerOptions& options);

  const BatchRunnerOptions& options() const { return options_; }

 private:
  /// Per-series stitch state of one scan (phase 2 accumulators).
  struct SeriesState {
    int64_t len = 0;  ///< original series length.
    int64_t pad = 0;  ///< synthetic left-pad of a short series.
    /// Left-padded copy of a short series; unused when len >= window.
    std::vector<float> padded;
    std::vector<float> prob_sum;     ///< per-timestamp probability sum.
    std::vector<int32_t> cover;      ///< windows covering each timestamp.
    std::vector<int32_t> on_votes;   ///< ON votes per timestamp.
  };

  /// Prepares states_[i] for \p series: result tensors, short-series pad,
  /// zeroed vote buffers. Returns the view the feed phase should window
  /// (over the padded copy for short series, over the caller's backing
  /// otherwise), or an empty view when the series is empty and
  /// contributes no windows.
  data::SeriesView PrepareSeries(data::SeriesView series, SeriesState* state,
                                 ScanResult* result);

  /// Folds one localized batch into the owning series' vote buffers.
  /// \p feed_to_state maps MultiWindowStream series indices to states_.
  void StitchBatch(const core::LocalizationResult& loc,
                   const std::vector<WindowRef>& refs, int64_t batch,
                   const std::vector<int32_t>& feed_to_state,
                   std::vector<ScanResult>* results);

  /// Turns accumulated votes into the per-timestamp detection/status/power
  /// series of \p result, dropping any synthetic pad.
  void FinalizeSeries(data::SeriesView aggregate_watts,
                      const SeriesState& state, ScanResult* result);

  /// Transient accumulators for the end-dependent window of one append
  /// (the tail or short-series pad window), kept out of the persisted
  /// grid accumulators because the series end moves on every append.
  struct OverlayState {
    bool active = false;  ///< this append has a tail or pad window.
    /// Series coordinate of overlay index 0; negative for a pad window
    /// (the synthetic zeros occupy [offset, 0)).
    int64_t offset = 0;
    std::vector<float> padded;    ///< padded feed copy when len < window.
    std::vector<float> prob_sum;  ///< window-length vote buffers.
    std::vector<int32_t> cover;
    std::vector<int32_t> on_votes;
  };

  /// Folds one localized batch of an append into the owning session's
  /// persistent grid accumulators or its transient overlay.
  void StitchAppendBatch(const core::LocalizationResult& loc,
                         const std::vector<WindowRef>& refs, int64_t batch,
                         const std::vector<SessionScanState*>& states,
                         const std::vector<int32_t>& feed_state,
                         const std::vector<uint8_t>& feed_overlay,
                         std::vector<ScanResult>* results);

  /// Sums persistent grid votes and the overlay into \p result's
  /// detection/status series (overlay last, like a from-scratch stitch).
  void FinalizeAppend(const SessionScanState& state,
                      const OverlayState& overlay, ScanResult* result);

  /// §IV-C power estimation over \p result's stitched status — shared by
  /// one-shot and incremental finalization so both force power to 0 at
  /// missing readings the same way.
  void FinalizePower(data::SeriesView aggregate_watts, ScanResult* result);

  core::CamalEnsemble* ensemble_;
  core::CamalLocalizer localizer_;
  BatchRunnerOptions options_;
  // Scan scratch reused across calls (one scan stitches hundreds of
  // batches; per-batch allocation churn showed up in serving profiles).
  std::vector<SeriesState> states_;
  std::vector<OverlayState> overlays_;  ///< append scratch, like states_.
  std::vector<WindowRef> batch_refs_;
  nn::Tensor batch_;
};

}  // namespace camal::serve

#endif  // CAMAL_SERVE_BATCH_RUNNER_H_
