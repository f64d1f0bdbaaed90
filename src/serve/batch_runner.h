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

/// Per-timestamp result of scanning one household series, or of the
/// stretch of it a session append changed. The tensors cover absolute
/// timestamps [from, from + T): a one-shot scan returns the whole series
/// (from = 0); an append returns the suffix from the session's first live
/// reading, and every earlier timestamp keeps the value an earlier append
/// returned.
struct ScanResult {
  nn::Tensor detection;  ///< (T) mean detection prob of covering windows.
  nn::Tensor status;     ///< (T) 0/1 activation by majority vote of windows.
  nn::Tensor power;      ///< (T) estimated appliance Watts (§IV-C).
  int64_t from = 0;      ///< absolute index of detection[0].
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

/// Stitch state of one household: its grid vote accumulators plus, for a
/// streaming session, the live suffix of the committed series they vote
/// on. Owned by serve::Session (or any caller driving AppendScan
/// directly); BatchRunner only reads and extends it, so state created by
/// one runner can be appended to by another — the per-window forward
/// results it caches votes from are runner- and batch-composition-
/// invariant. A one-shot Scan runs the same pass over a fresh state whose
/// `series` stays empty, because the caller's view is borrowed instead.
///
/// The accumulators hold STRIDE-GRID window votes only. Grid windows
/// never move once committed (growing a series only appends offsets),
/// while the end-aligned tail window — and the zero-padded window of a
/// series still shorter than one window — depends on the current series
/// end, so every pass recomputes it into a transient overlay that is
/// summed after the grid votes. Every scan thus accumulates grid windows
/// ascending and the end window last, whatever the chunking of appends,
/// which is what makes incremental results, each written at its `from`,
/// bitwise-identical to a one-shot scan of the concatenated series.
///
/// Finalize as the pass goes: grid windows arrive in ascending offset, so
/// once the window at offset o is about to vote, no later window can
/// reach a timestamp before o. The pass writes those timestamps' result
/// then and drops their slots a few windows at a time, so while it votes
/// the accumulators hold about one window's slots (at most 4l), however
/// long the series or a session's first append; the rest, the end
/// window's included, is written after the feed. After an append, no
/// later window can vote before len - l (the next grid window starts at
/// grid_windows * stride, past it; every later tail starts at or after
/// it), so a session holds min(len, l) readings and accumulator slots
/// between appends, whatever its history; `base` is the absolute index
/// of series[0] and of slot 0 of each accumulator.
struct SessionScanState {
  int64_t base = 0;               ///< absolute index of series[0].
  std::vector<float> series;      ///< live suffix of committed readings.
  int64_t grid_windows = 0;       ///< grid windows already accumulated.
  std::vector<float> prob_sum;    ///< per-timestamp grid probability sum.
  std::vector<int32_t> cover;     ///< grid windows covering each timestamp.
  std::vector<int32_t> on_votes;  ///< grid ON votes per timestamp.

  /// Readings committed so far, trimmed ones included.
  int64_t readings() const {
    return base + static_cast<int64_t>(series.size());
  }
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
/// Every scan is one pass. Plan: the grid windows a series' accumulators
/// have not voted on yet, then its end-aligned tail or pad window. Feed:
/// those windows stream through the model in shared GEMM batches
/// (MultiWindowStream). Vote: each window's votes accumulate into its own
/// series' grid accumulators, or into the transient overlay for the end
/// window. Finalize: grid votes first, overlay last, over the live
/// timestamps only, each timestamp as soon as no later window can vote
/// on it (see SessionScanState). A one-shot scan is the pass over fresh
/// scratch accumulators (base 0, so the whole series is live); an append
/// is the pass over a session's persisted ones. Either way a pass holds
/// its 12 B/reading result (detection, status, power) and O(batch · l)
/// besides: window-sized accumulators, the batch, the per-member CAMs,
/// and the forwards' per-thread activations. Because per-window forward
/// results do not depend on which other windows share a batch, ScanMany
/// and AppendScanMany can coalesce windows from several series into one
/// forward pass and still return, for every series, bitwise-identical
/// results to a lone Scan of it.
class BatchRunner {
 public:
  /// \p ensemble is borrowed read-only and must outlive the runner.
  BatchRunner(const core::CamalEnsemble* ensemble, BatchRunnerOptions options);

  /// Scans \p aggregate_watts (unscaled Watts; NaN or +-Inf = missing
  /// reading, data::IsMissing).
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
  /// empty. Not thread-safe, like Scan. Beyond the results and each
  /// series' window list (16 B per window), the pass keeps a few windows'
  /// vote slots per series, never scratch sized by a series' length.
  ///
  /// \p spare is how many cores the caller knows to be idle
  /// (serve::Service passes its spare workers). When every window fits
  /// one batch, that batch's (member, window) forwards run as parallel
  /// lanes on up to that many of them
  /// (CamalEnsemble::DetectProbabilityBatched). A pass of several batches
  /// stays on the caller: \p spare counts the cores idle when its group
  /// was popped, and a long pass would keep them after new requests wake
  /// the workers that own them, while its full batches cost less per
  /// window as whole-batch forwards than as one-window items. (Lanes do
  /// not multiply live activations: a lane's arena holds one window's.)
  /// Results are bitwise the same for every value.
  std::vector<ScanResult> ScanMany(const std::vector<data::SeriesView>& series,
                                   int spare = 0);

  /// Incremental rescan: appends \p delta to \p state's committed series
  /// and feeds ONLY the windows the new tail touches — grid windows not
  /// yet committed plus the end-aligned tail (or short-series pad) window
  /// — reusing the persisted votes for everything else. Returns the
  /// changed suffix [from, len) of the series' result, where from is
  /// state->base before the append (about l + delta timestamps); every
  /// timestamp before it is final and was returned by an earlier append.
  /// Writing each append's suffix at its `from` over the previous ones
  /// reproduces Scan of the concatenated series bit for bit. `windows`
  /// counts only the windows actually fed. Then drops every timestamp
  /// before len - l from \p state (see SessionScanState). Empty deltas
  /// are fine (they re-finalize without feeding anything). \p delta must
  /// not view \p state's own committed series (it is copied into it).
  /// Not thread-safe, like Scan; concurrent appends to one state are the
  /// caller's bug (serve::Service serializes per session).
  ScanResult AppendScan(SessionScanState* state, data::SeriesView delta);

  /// Coalesced incremental rescan of several sessions: one feed phase
  /// carries every session's new windows, so distinct households' appends
  /// share GEMM batches exactly like ScanMany coalesces one-shot scans.
  /// states[i] / deltas[i] pair up; states must not be null and must be
  /// distinct, and no delta may view its own state's committed series.
  /// results[i] is the changed suffix AppendScan(states[i], deltas[i])
  /// would return, bit for bit. Not thread-safe. \p spare as in ScanMany:
  /// a session's steady appends (one window each, so one item per member)
  /// fit one batch and may fan out; its multi-batch prefill stays on the
  /// caller.
  std::vector<ScanResult> AppendScanMany(
      const std::vector<SessionScanState*>& states,
      const std::vector<data::SeriesView>& deltas, int spare = 0);

  /// Validates scan options without constructing a runner — the Status
  /// mirror of the constructor's programmer-error CHECKs, for callers
  /// (serve::Service::RegisterAppliance) that take options from
  /// configuration and must reject bad ones instead of aborting.
  static Status ValidateOptions(const BatchRunnerOptions& options);

 private:
  /// The one stitch pass behind every scan: plans, feeds, votes and
  /// finalizes views[i], the live readings from absolute index
  /// votes[i]->base on, against votes[i], whose accumulators are sized to
  /// views[i] and already hold grid windows [0, votes[i]->grid_windows).
  /// Result i covers exactly views[i], with from = votes[i]->base.
  /// \p spare as in ScanMany.
  std::vector<ScanResult> StitchPass(
      const std::vector<data::SeriesView>& views,
      const std::vector<SessionScanState*>& votes, int spare);

  /// §IV-C power estimation over \p result's stitched status, forcing
  /// power to 0 at missing readings.
  void FinalizePower(data::SeriesView aggregate_watts, ScanResult* result);

  core::CamalLocalizer localizer_;
  BatchRunnerOptions options_;
  // Scan scratch reused across calls (one scan stitches hundreds of
  // batches; per-batch allocation churn showed up in serving profiles).
  /// One-shot accumulators, one per series of the largest group so far,
  /// each a few windows long (see SessionScanState).
  std::vector<SessionScanState> scratch_;
  /// Per-series votes of the end-aligned window (tail or short-series
  /// pad), window-length: index j covers live index
  /// size - window_length + j.
  /// `series` holds the pad window's zero-padded feed copy; the vote
  /// buffers are empty when the series has no end window.
  std::vector<SessionScanState> overlays_;
  std::vector<WindowRef> batch_refs_;
  nn::Tensor batch_;
};

}  // namespace camal::serve

#endif  // CAMAL_SERVE_BATCH_RUNNER_H_
