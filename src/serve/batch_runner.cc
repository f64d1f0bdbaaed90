#include "serve/batch_runner.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "core/power_estimation.h"
#include "data/time_series.h"
#include "data/window.h"

namespace camal::serve {
namespace {

/// Keeps the last \p keep entries of \p v, then gives back the capacity a
/// large first append leaves behind (a long prefill would otherwise pin
/// its whole buffer for the session's life).
template <typename T>
void KeepLast(std::vector<T>* v, size_t keep) {
  if (v->size() > keep) {
    v->erase(v->begin(), v->end() - static_cast<std::ptrdiff_t>(keep));
  }
  if (v->capacity() > 4 * keep) v->shrink_to_fit();
}

}  // namespace

BatchRunner::BatchRunner(const core::CamalEnsemble* ensemble,
                         BatchRunnerOptions options)
    : localizer_(ensemble, options.localizer), options_(options) {
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

void BatchRunner::FinalizePower(data::SeriesView aggregate_watts,
                                ScanResult* result) {
  // §IV-C power estimation over the stitched status. Missing readings
  // carry no observed aggregate: they enter EstimatePower zero-filled and
  // the estimate is forced to 0 afterwards, so a voted-ON status at a NaN
  // timestamp can never report P_a-scale phantom power, whatever clamp
  // the estimator applies.
  // One buffer: it takes the zero-filled watts, then the estimate in
  // place.
  const int64_t len = aggregate_watts.size();
  CAMAL_CHECK_EQ(result->status.numel(), len);
  result->power = nn::Tensor::Uninitialized({len});
  float* power = result->power.data();
  for (int64_t t = 0; t < len; ++t) {
    const float v = aggregate_watts[t];
    power[t] = data::IsMissing(v) ? 0.0f : v;
  }
  core::EstimatePower(result->status.data(), power, len,
                      options_.appliance_avg_power_w, power);
  for (int64_t t = 0; t < len; ++t) {
    if (data::IsMissing(aggregate_watts[t])) power[t] = 0.0f;
  }
}

std::vector<ScanResult> BatchRunner::ScanMany(
    const std::vector<data::SeriesView>& series, int spare) {
  // A one-shot scan is the stitch pass over fresh scratch accumulators,
  // voting on the caller's borrowed views. resize keeps existing
  // elements, so their buffers' capacity is reused across scans.
  scratch_.resize(std::max(scratch_.size(), series.size()));
  std::vector<SessionScanState*> votes;
  votes.reserve(series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    SessionScanState& acc = scratch_[i];
    const size_t len = static_cast<size_t>(series[i].size());
    acc.base = 0;
    acc.grid_windows = 0;
    acc.prob_sum.assign(len, 0.0f);
    acc.cover.assign(len, 0);
    acc.on_votes.assign(len, 0);
    votes.push_back(&acc);
  }
  return StitchPass(series, votes, spare);
}

std::vector<ScanResult> BatchRunner::AppendScanMany(
    const std::vector<SessionScanState*>& states,
    const std::vector<data::SeriesView>& deltas, int spare) {
  CAMAL_CHECK_EQ(states.size(), deltas.size());
  // Commit each delta and zero-extend the accumulators, which keeps the
  // committed grid votes; the pass then votes only on the new windows
  // and finalizes the live readings, from each state's base on.
  std::vector<data::SeriesView> views;
  views.reserve(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    SessionScanState* state = states[i];
    CAMAL_CHECK(state != nullptr);
    state->series.insert(state->series.end(), deltas[i].begin(),
                         deltas[i].end());
    const size_t len = state->series.size();
    state->prob_sum.resize(len, 0.0f);
    state->cover.resize(len, 0);
    state->on_votes.resize(len, 0);
    views.push_back(data::SeriesView(state->series));
  }
  std::vector<ScanResult> results = StitchPass(views, states, spare);
  // Finalize once: no later window votes before len - l (see
  // SessionScanState), so only the last l readings and slots stay live.
  const auto keep = static_cast<size_t>(options_.stream.window_length);
  for (SessionScanState* state : states) {
    const int64_t before = static_cast<int64_t>(state->series.size());
    KeepLast(&state->series, keep);
    KeepLast(&state->prob_sum, keep);
    KeepLast(&state->cover, keep);
    KeepLast(&state->on_votes, keep);
    state->base += before - static_cast<int64_t>(state->series.size());
  }
  return results;
}

std::vector<ScanResult> BatchRunner::StitchPass(
    const std::vector<data::SeriesView>& views,
    const std::vector<SessionScanState*>& votes, int spare) {
  const size_t n = views.size();
  const int64_t l = options_.stream.window_length;
  const int64_t stride = options_.stream.stride;
  std::vector<ScanResult> results(n);
  // overlays_ must not grow again below: pad feed entries view them.
  overlays_.resize(std::max(overlays_.size(), n));

  // Plan: per series, the grid windows its accumulators have not voted
  // on yet, in ascending offset, then the end-aligned tail or pad window.
  // The end window gets a feed entry of its own, which routes its votes
  // to the overlay. Offsets are live indices: absolute minus the state's
  // base, which every window planned here starts at or after.
  struct FeedTarget {
    size_t series;
    bool overlay;
  };
  std::vector<data::SeriesView> feed;
  std::vector<FeedTarget> targets;  // one per feed entry
  std::vector<WindowRef> refs;
  for (size_t i = 0; i < n; ++i) {
    const data::SeriesView series = views[i];
    SessionScanState& acc = *votes[i];
    const int64_t size = series.size();
    const int64_t len = acc.base + size;  // the whole series' length
    SessionScanState& overlay = overlays_[i];
    ScanResult& result = results[i];
    result.from = acc.base;
    result.detection = nn::Tensor({size});
    result.status = nn::Tensor({size});
    overlay.prob_sum.clear();
    overlay.cover.clear();
    overlay.on_votes.clear();
    if (len == 0) continue;  // empty: all-zero result

    const int64_t grid = data::GridWindowCount(len, l, stride);
    const bool tail = data::GridLeavesTail(len, l, stride);
    result.windows_full = len < l ? 1 : grid + (tail ? 1 : 0);
    if (acc.grid_windows < grid) {
      const int32_t f = static_cast<int32_t>(feed.size());
      for (int64_t k = acc.grid_windows; k < grid; ++k) {
        refs.push_back(WindowRef{f, k * stride - acc.base});
      }
      feed.push_back(series);
      targets.push_back(FeedTarget{i, false});
      acc.grid_windows = grid;
    }
    if (len < l || tail) {
      data::SeriesView end_series = series;
      if (len < l) {
        // A series shorter than one window rides a single window
        // left-padded with zeros (the stream's missing-reading fill), so
        // short households still get real model predictions. It was
        // never trimmed, so base is 0 and the view is the whole series.
        overlay.series.assign(static_cast<size_t>(l - len), 0.0f);
        overlay.series.insert(overlay.series.end(), series.begin(),
                              series.end());
        end_series = data::SeriesView(overlay.series);
      }
      refs.push_back(WindowRef{static_cast<int32_t>(feed.size()),
                               end_series.size() - l});
      feed.push_back(end_series);
      targets.push_back(FeedTarget{i, true});
      overlay.prob_sum.assign(static_cast<size_t>(l), 0.0f);
      overlay.cover.assign(static_cast<size_t>(l), 0);
      overlay.on_votes.assign(static_cast<size_t>(l), 0);
    }
  }

  // Feed and vote: every series' windows through shared GEMM batches —
  // batches fill across series boundaries, so small households and
  // tail-sized appends do not mean nearly empty batches.
  double seconds = 0.0;
  if (!refs.empty()) {
    // Only a one-batch pass lends its forwards to spare cores (ScanMany).
    if (static_cast<int64_t>(refs.size()) > options_.stream.batch_size) {
      spare = 0;
    }
    MultiWindowStream stream(std::move(feed), options_.stream,
                             std::move(refs));
    Stopwatch watch;
    int64_t b = 0;
    while ((b = stream.NextBatch(&batch_, &batch_refs_)) > 0) {
      core::LocalizationResult loc = localizer_.Localize(batch_, spare);
      for (int64_t w = 0; w < b; ++w) {
        const WindowRef ref = batch_refs_[static_cast<size_t>(w)];
        const FeedTarget target = targets[static_cast<size_t>(ref.series)];
        SessionScanState& acc =
            target.overlay ? overlays_[target.series] : *votes[target.series];
        const int64_t start = target.overlay ? 0 : ref.offset;
        const float p = loc.probabilities.at(w);
        for (int64_t t = 0; t < l; ++t) {
          const size_t s = static_cast<size_t>(start + t);
          acc.prob_sum[s] += p;
          ++acc.cover[s];
          if (loc.status.at2(w, t) > 0.5f) ++acc.on_votes[s];
        }
        ++results[target.series].windows;
      }
    }
    seconds = watch.ElapsedSeconds();
  }

  // Finalize the live timestamps: grid votes first, the overlay last —
  // ascending window order, whatever the chunking of appends, so the
  // float sums are bit-identical across every way of reaching the same
  // series. The pass was shared, so each result reports its wall time
  // (see ScanResult).
  for (size_t i = 0; i < n; ++i) {
    ScanResult& result = results[i];
    result.seconds = seconds;
    const int64_t size = views[i].size();
    const SessionScanState& acc = *votes[i];
    const SessionScanState& overlay = overlays_[i];
    for (int64_t t = 0; t < size; ++t) {
      const size_t s = static_cast<size_t>(t);
      float p = acc.prob_sum[s];
      int32_t c = acc.cover[s];
      int32_t on = acc.on_votes[s];
      const int64_t j = t - (size - l);
      if (j >= 0 && !overlay.cover.empty()) {
        p += overlay.prob_sum[static_cast<size_t>(j)];
        c += overlay.cover[static_cast<size_t>(j)];
        on += overlay.on_votes[static_cast<size_t>(j)];
      }
      if (c == 0) continue;
      result.detection.at(t) = p / static_cast<float>(c);
      result.status.at(t) = 2 * on > c ? 1.0f : 0.0f;
    }
    FinalizePower(views[i], &result);
  }
  return results;
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
