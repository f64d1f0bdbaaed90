#include "serve/batch_runner.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "core/power_estimation.h"
#include "data/time_series.h"
#include "data/window.h"

namespace camal::serve {

BatchRunner::BatchRunner(core::CamalEnsemble* ensemble,
                         BatchRunnerOptions options)
    : ensemble_(ensemble),
      localizer_(ensemble, options.localizer),
      options_(options) {
  CAMAL_CHECK(ensemble != nullptr);
  CAMAL_CHECK_GE(options_.appliance_avg_power_w, 0.0f);
}

Status BatchRunner::ValidateOptions(const BatchRunnerOptions& options) {
  if (options.stream.window_length <= 0) {
    return Status::InvalidArgument("window_length must be positive");
  }
  if (options.stream.stride <= 0) {
    return Status::InvalidArgument("stride must be positive");
  }
  if (options.stream.batch_size <= 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (!(options.stream.input_scale > 0.0f)) {
    return Status::InvalidArgument("input_scale must be positive");
  }
  if (options.appliance_avg_power_w < 0.0f) {
    return Status::InvalidArgument(
        "appliance_avg_power_w must be non-negative");
  }
  return Status::OK();
}

data::SeriesView BatchRunner::PrepareSeries(data::SeriesView series,
                                            SeriesState* state,
                                            ScanResult* result) {
  const int64_t len = series.size();
  const int64_t l = options_.stream.window_length;
  state->len = len;
  state->pad = 0;
  result->detection = nn::Tensor({len});
  result->status = nn::Tensor({len});
  result->power = nn::Tensor({len});
  if (len == 0) return data::SeriesView();

  // A series shorter than one window is left-padded with zeros to a single
  // window (zero is the stream's missing-reading fill) so short households
  // still get real model predictions instead of all-zero output. The pad
  // occupies [0, pad) of the scanned series; stitched outputs are shifted
  // back by `pad` in FinalizeSeries.
  data::SeriesView scan_series = series;
  if (len < l) {
    state->pad = l - len;
    state->padded.assign(static_cast<size_t>(l), 0.0f);
    std::copy(series.begin(), series.end(),
              state->padded.begin() + static_cast<size_t>(state->pad));
    scan_series = data::SeriesView(state->padded);
  }
  const size_t scan_len = static_cast<size_t>(len + state->pad);
  state->prob_sum.assign(scan_len, 0.0f);
  state->cover.assign(scan_len, 0);
  state->on_votes.assign(scan_len, 0);
  return scan_series;
}

void BatchRunner::StitchBatch(const core::LocalizationResult& loc,
                              const std::vector<WindowRef>& refs,
                              int64_t batch,
                              const std::vector<int32_t>& feed_to_state,
                              std::vector<ScanResult>* results) {
  const int64_t l = options_.stream.window_length;
  for (int64_t i = 0; i < batch; ++i) {
    const WindowRef ref = refs[static_cast<size_t>(i)];
    const size_t si =
        static_cast<size_t>(feed_to_state[static_cast<size_t>(ref.series)]);
    SeriesState& state = states_[si];
    const float p = loc.probabilities.at(i);
    for (int64_t t = 0; t < l; ++t) {
      const size_t s = static_cast<size_t>(ref.offset + t);
      state.prob_sum[s] += p;
      ++state.cover[s];
      if (loc.status.at2(i, t) > 0.5f) ++state.on_votes[s];
    }
    ++(*results)[si].windows;
  }
}

void BatchRunner::FinalizeSeries(data::SeriesView aggregate_watts,
                                 const SeriesState& state,
                                 ScanResult* result) {
  const int64_t len = state.len;
  if (len == 0) return;

  // Stitch votes into per-timestamp series, dropping the synthetic pad.
  for (int64_t t = 0; t < len; ++t) {
    const size_t s = static_cast<size_t>(t + state.pad);
    const int32_t c = state.cover[s];
    if (c == 0) continue;
    result->detection.at(t) = state.prob_sum[s] / static_cast<float>(c);
    result->status.at(t) = 2 * state.on_votes[s] > c ? 1.0f : 0.0f;
  }
  FinalizePower(aggregate_watts, result);
}

void BatchRunner::FinalizePower(data::SeriesView aggregate_watts,
                                ScanResult* result) {
  // §IV-C power estimation over the stitched status. Missing readings
  // carry no observed aggregate: they enter EstimatePower zero-filled and
  // the estimate is forced to 0 afterwards, so a voted-ON status at a NaN
  // timestamp can never report P_a-scale phantom power, whatever clamp
  // the estimator applies.
  const int64_t len = aggregate_watts.size();
  nn::Tensor watts({1, len});
  for (int64_t t = 0; t < len; ++t) {
    const float v = aggregate_watts[t];
    watts.at(t) = data::IsMissing(v) ? 0.0f : v;
  }
  result->power =
      core::EstimatePower(result->status.Reshape({1, len}), watts,
                          options_.appliance_avg_power_w)
          .Reshape({len});
  for (int64_t t = 0; t < len; ++t) {
    if (data::IsMissing(aggregate_watts[t])) {
      result->power.at(t) = 0.0f;
    }
  }
}

std::vector<ScanResult> BatchRunner::ScanMany(
    const std::vector<data::SeriesView>& series) {
  const size_t n = series.size();
  std::vector<ScanResult> results(n);
  // resize keeps existing elements, so their vote buffers' capacity is
  // reused across scans.
  states_.resize(std::max(states_.size(), n));

  // Phase 1 setup: per-series stitch state, plus the feed list of
  // non-empty (possibly padded) series for the shared window stream.
  std::vector<data::SeriesView> feed;
  std::vector<int32_t> feed_to_state;
  feed.reserve(n);
  feed_to_state.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const data::SeriesView scan_series =
        PrepareSeries(series[i], &states_[i], &results[i]);
    if (scan_series.empty()) continue;  // empty: all-zero result
    feed.push_back(scan_series);
    feed_to_state.push_back(static_cast<int32_t>(i));
  }
  if (feed.empty()) return results;

  // Feed phase: every series' windows through shared GEMM batches —
  // batches fill across series boundaries, so the last windows of one
  // household share a forward pass with the first of the next.
  MultiWindowStream stream(std::move(feed), options_.stream);
  Stopwatch watch;
  int64_t b = 0;
  while ((b = stream.NextBatch(&batch_, &batch_refs_)) > 0) {
    core::LocalizationResult loc = localizer_.Localize(batch_);
    StitchBatch(loc, batch_refs_, b, feed_to_state, &results);
  }
  const double seconds = watch.ElapsedSeconds();

  // Stitch phase: each series finalizes independently. The pass was
  // shared, so each result reports its wall time (see ScanResult docs).
  for (size_t i = 0; i < n; ++i) {
    results[i].seconds = seconds;
    results[i].windows_full = results[i].windows;
    FinalizeSeries(series[i], states_[i], &results[i]);
  }
  return results;
}

std::vector<ScanResult> BatchRunner::AppendScanMany(
    const std::vector<SessionScanState*>& states,
    const std::vector<data::SeriesView>& deltas) {
  CAMAL_CHECK_EQ(states.size(), deltas.size());
  const size_t n = states.size();
  const int64_t l = options_.stream.window_length;
  const int64_t stride = options_.stream.stride;
  std::vector<ScanResult> results(n);
  // resize keeps existing elements; overlays_ must not grow again below —
  // pad feed entries point at overlay members.
  overlays_.resize(std::max(overlays_.size(), n));

  // Phase 1: commit each delta, grow the persistent accumulators
  // (zero-extending preserves committed votes), and plan refs for exactly
  // the windows the new tail touches — not-yet-committed grid windows
  // into the persistent accumulators, in ascending offset like a
  // from-scratch stitch, then the end-dependent tail/pad window into the
  // transient overlay.
  std::vector<data::SeriesView> feed;
  std::vector<int32_t> feed_state;    // feed index -> states index
  std::vector<uint8_t> feed_overlay;  // feed entry is an overlay pad buffer
  std::vector<WindowRef> refs;
  for (size_t i = 0; i < n; ++i) {
    SessionScanState* state = states[i];
    CAMAL_CHECK(state != nullptr);
    state->series.insert(state->series.end(), deltas[i].begin(),
                         deltas[i].end());
    const int64_t len = state->readings();
    ScanResult& result = results[i];
    result.detection = nn::Tensor({len});
    result.status = nn::Tensor({len});
    result.power = nn::Tensor({len});
    state->prob_sum.resize(static_cast<size_t>(len), 0.0f);
    state->cover.resize(static_cast<size_t>(len), 0);
    state->on_votes.resize(static_cast<size_t>(len), 0);
    OverlayState& overlay = overlays_[i];
    overlay.active = false;
    if (len == 0) continue;  // nothing committed yet: all-zero result

    const int64_t grid = data::GridWindowCount(len, l, stride);
    const bool tail = data::GridLeavesTail(len, l, stride);
    result.windows_full = len < l ? 1 : grid + (tail ? 1 : 0);

    int32_t main_feed = -1;
    for (int64_t k = state->grid_windows; k < grid; ++k) {
      if (main_feed < 0) {
        main_feed = static_cast<int32_t>(feed.size());
        feed.push_back(data::SeriesView(state->series));
        feed_state.push_back(static_cast<int32_t>(i));
        feed_overlay.push_back(0);
      }
      refs.push_back(WindowRef{main_feed, k * stride});
    }
    state->grid_windows = grid;

    if (len < l) {
      // Still shorter than one window: the whole series rides a single
      // left-zero-padded overlay window, exactly as PrepareSeries pads a
      // short one-shot scan.
      overlay.active = true;
      overlay.offset = len - l;  // pad occupies series coords [offset, 0)
      overlay.padded.assign(static_cast<size_t>(l), 0.0f);
      std::copy(state->series.begin(), state->series.end(),
                overlay.padded.begin() + static_cast<size_t>(l - len));
      refs.push_back(WindowRef{static_cast<int32_t>(feed.size()), 0});
      feed.push_back(data::SeriesView(overlay.padded));
      feed_state.push_back(static_cast<int32_t>(i));
      feed_overlay.push_back(1);
    } else if (tail) {
      overlay.active = true;
      overlay.offset = len - l;
      if (main_feed < 0) {
        main_feed = static_cast<int32_t>(feed.size());
        feed.push_back(data::SeriesView(state->series));
        feed_state.push_back(static_cast<int32_t>(i));
        feed_overlay.push_back(0);
      }
      refs.push_back(WindowRef{main_feed, len - l});
    }
    if (overlay.active) {
      overlay.prob_sum.assign(static_cast<size_t>(l), 0.0f);
      overlay.cover.assign(static_cast<size_t>(l), 0);
      overlay.on_votes.assign(static_cast<size_t>(l), 0);
    }
  }

  // Feed phase: every session's new windows through shared GEMM batches.
  // A group of tail-sized appends runs a handful of windows per session,
  // so cross-session filling is what keeps the batches from running
  // nearly empty.
  double seconds = 0.0;
  if (!refs.empty()) {
    MultiWindowStream stream(std::move(feed), options_.stream,
                             std::move(refs));
    Stopwatch watch;
    int64_t b = 0;
    while ((b = stream.NextBatch(&batch_, &batch_refs_)) > 0) {
      core::LocalizationResult loc = localizer_.Localize(batch_);
      StitchAppendBatch(loc, batch_refs_, b, states, feed_state,
                        feed_overlay, &results);
    }
    seconds = watch.ElapsedSeconds();
  }

  for (size_t i = 0; i < n; ++i) {
    results[i].seconds = seconds;
    FinalizeAppend(*states[i], overlays_[i], &results[i]);
  }
  return results;
}

void BatchRunner::StitchAppendBatch(
    const core::LocalizationResult& loc, const std::vector<WindowRef>& refs,
    int64_t batch, const std::vector<SessionScanState*>& states,
    const std::vector<int32_t>& feed_state,
    const std::vector<uint8_t>& feed_overlay,
    std::vector<ScanResult>* results) {
  const int64_t l = options_.stream.window_length;
  for (int64_t i = 0; i < batch; ++i) {
    const WindowRef ref = refs[static_cast<size_t>(i)];
    const size_t si =
        static_cast<size_t>(feed_state[static_cast<size_t>(ref.series)]);
    SessionScanState& state = *states[si];
    OverlayState& overlay = overlays_[si];
    // A tail ref is distinguishable from every grid ref by offset alone:
    // the tail exists only when len - l is NOT a stride multiple, and
    // grid offsets always are. Pad windows feed from their own buffer.
    const bool to_overlay =
        feed_overlay[static_cast<size_t>(ref.series)] != 0 ||
        (overlay.active && overlay.offset >= 0 &&
         ref.offset == overlay.offset);
    const float p = loc.probabilities.at(i);
    if (to_overlay) {
      for (int64_t t = 0; t < l; ++t) {
        overlay.prob_sum[static_cast<size_t>(t)] += p;
        ++overlay.cover[static_cast<size_t>(t)];
        if (loc.status.at2(i, t) > 0.5f) {
          ++overlay.on_votes[static_cast<size_t>(t)];
        }
      }
    } else {
      for (int64_t t = 0; t < l; ++t) {
        const size_t s = static_cast<size_t>(ref.offset + t);
        state.prob_sum[s] += p;
        ++state.cover[s];
        if (loc.status.at2(i, t) > 0.5f) ++state.on_votes[s];
      }
    }
    ++(*results)[si].windows;
  }
}

void BatchRunner::FinalizeAppend(const SessionScanState& state,
                                 const OverlayState& overlay,
                                 ScanResult* result) {
  const int64_t len = state.readings();
  if (len == 0) return;
  const int64_t l = options_.stream.window_length;
  // Persistent grid votes first, overlay last — the order a from-scratch
  // stitch visits the same windows, so the float sums are bit-identical.
  for (int64_t t = 0; t < len; ++t) {
    float p = state.prob_sum[static_cast<size_t>(t)];
    int32_t c = state.cover[static_cast<size_t>(t)];
    int32_t on = state.on_votes[static_cast<size_t>(t)];
    if (overlay.active) {
      const int64_t j = t - overlay.offset;
      if (j >= 0 && j < l) {
        p += overlay.prob_sum[static_cast<size_t>(j)];
        c += overlay.cover[static_cast<size_t>(j)];
        on += overlay.on_votes[static_cast<size_t>(j)];
      }
    }
    if (c == 0) continue;
    result->detection.at(t) = p / static_cast<float>(c);
    result->status.at(t) = 2 * on > c ? 1.0f : 0.0f;
  }
  FinalizePower(state.series, result);
}

ScanResult BatchRunner::AppendScan(SessionScanState* state,
                                   data::SeriesView delta) {
  std::vector<ScanResult> results = AppendScanMany({state}, {delta});
  return std::move(results.front());
}

ScanResult BatchRunner::Scan(data::SeriesView aggregate_watts) {
  // A lone scan is the one-series coalesced scan.
  std::vector<ScanResult> results = ScanMany({aggregate_watts});
  return std::move(results.front());
}

}  // namespace camal::serve
