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

/// Drops the first \p drop slots of \p acc's accumulators (all of them
/// when it holds fewer), then zero-extends them to at least \p size.
void SlideVotes(SessionScanState* acc, int64_t drop, int64_t size) {
  const auto slide = [drop, size](auto* v) {
    const auto gone = std::min(static_cast<size_t>(drop), v->size());
    v->erase(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(gone));
    v->resize(std::max(static_cast<size_t>(size), v->size()));
  };
  slide(&acc->prob_sum);
  slide(&acc->cover);
  slide(&acc->on_votes);
}

/// A series' place in a stitch pass: its accumulators hold the grid
/// votes of live timestamps [lo, lo + size), and every timestamp before
/// `done` is final in its result.
struct VoteCursor {
  int64_t lo = 0;
  int64_t done = 0;
};

/// Writes live timestamps [cursor->done, to) of \p result (\p to is never
/// below done: windows arrive in ascending offset) from \p acc's grid
/// votes, then the end window's votes in \p overlay (index
/// t - end_start) when it is set and voted — grid votes first, the
/// overlay last, whenever a timestamp is written — and advances the
/// cursor. Timestamps no window covered keep their zeros.
void FinalizeVotes(const SessionScanState& acc,
                   const SessionScanState* overlay, int64_t end_start,
                   int64_t to, VoteCursor* cursor, ScanResult* result) {
  const int64_t voted = cursor->lo + static_cast<int64_t>(acc.cover.size());
  const bool has_overlay = overlay != nullptr && !overlay->cover.empty();
  float* detection = result->detection.data();
  float* status = result->status.data();
  for (int64_t t = cursor->done; t < to; ++t) {
    float p = 0.0f;
    int32_t c = 0;
    int32_t on = 0;
    if (t < voted) {
      const auto s = static_cast<size_t>(t - cursor->lo);
      p = acc.prob_sum[s];
      c = acc.cover[s];
      on = acc.on_votes[s];
    }
    if (has_overlay && t >= end_start) {
      const auto j = static_cast<size_t>(t - end_start);
      p += overlay->prob_sum[j];
      c += overlay->cover[j];
      on += overlay->on_votes[j];
    }
    if (c == 0) continue;
    detection[t] = p / static_cast<float>(c);
    status[t] = 2 * on > c ? 1.0f : 0.0f;
  }
  cursor->done = to;
}

/// Readies \p acc for the grid window at live \p offset, the next of its
/// series: no later window reaches a timestamp before it, so those are
/// finalized into \p result first. The accumulators then drop their
/// final slots once those span \p slide timestamps (a few windows, so no
/// vote pays a shift) and grow to the window's end. Returns the slot of
/// \p offset.
int64_t OpenGridWindow(int64_t offset, int64_t l, int64_t slide,
                       SessionScanState* acc, VoteCursor* cursor,
                       ScanResult* result) {
  FinalizeVotes(*acc, nullptr, 0, offset, cursor, result);
  const int64_t drop = offset - cursor->lo >= slide ? offset - cursor->lo : 0;
  cursor->lo += drop;
  const int64_t start = offset - cursor->lo;
  if (drop > 0 || static_cast<int64_t>(acc->cover.size()) < start + l) {
    SlideVotes(acc, drop, start + l);
  }
  return start;
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
  // elements, so their buffers' capacity (at most a few windows' worth)
  // is reused across scans.
  scratch_.resize(std::max(scratch_.size(), series.size()));
  std::vector<SessionScanState*> votes;
  votes.reserve(series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    SessionScanState& acc = scratch_[i];
    acc.base = 0;
    acc.grid_windows = 0;
    acc.prob_sum.clear();
    acc.cover.clear();
    acc.on_votes.clear();
    votes.push_back(&acc);
  }
  return StitchPass(series, votes, spare);
}

std::vector<ScanResult> BatchRunner::AppendScanMany(
    const std::vector<SessionScanState*>& states,
    const std::vector<data::SeriesView>& deltas, int spare) {
  CAMAL_CHECK_EQ(states.size(), deltas.size());
  // Commit each delta; the pass votes only on the new windows and
  // finalizes the live readings, from each state's base on.
  std::vector<data::SeriesView> views;
  views.reserve(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    SessionScanState* state = states[i];
    CAMAL_CHECK(state != nullptr);
    state->series.insert(state->series.end(), deltas[i].begin(),
                         deltas[i].end());
    views.push_back(data::SeriesView(state->series));
  }
  std::vector<ScanResult> results = StitchPass(views, states, spare);
  // Finalize once: no later window votes before len - l (see
  // SessionScanState), so only the last l readings and slots stay live
  // (the pass left exactly those slots).
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
  // tail-sized appends do not mean nearly empty batches. A series' grid
  // windows arrive in ascending offset, so each one finalizes the
  // timestamps before it (OpenGridWindow): the accumulators hold about
  // one window's slots, never the series'.
  std::vector<VoteCursor> cursors(n);
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
        SessionScanState* acc = &overlays_[target.series];
        int64_t start = 0;
        if (!target.overlay) {
          acc = votes[target.series];
          start = OpenGridWindow(ref.offset, l, 3 * l, acc,
                                 &cursors[target.series],
                                 &results[target.series]);
        }
        const float p = loc.probabilities.at(w);
        for (int64_t t = 0; t < l; ++t) {
          const size_t s = static_cast<size_t>(start + t);
          acc->prob_sum[s] += p;
          ++acc->cover[s];
          if (loc.status.at2(w, t) > 0.5f) ++acc->on_votes[s];
        }
        ++results[target.series].windows;
      }
    }
    seconds = watch.ElapsedSeconds();
  }

  // Finalize the rest: grid votes first, the overlay last — ascending
  // window order, whatever the chunking of appends, so the float sums are
  // bit-identical across every way of reaching the same series. Then a
  // state keeps the slots of its last l live timestamps only (see
  // SessionScanState). The pass was shared, so each result reports its
  // wall time (see ScanResult).
  for (size_t i = 0; i < n; ++i) {
    ScanResult& result = results[i];
    result.seconds = seconds;
    const int64_t size = views[i].size();
    VoteCursor& cursor = cursors[i];
    FinalizeVotes(*votes[i], &overlays_[i], size - l, size, &cursor, &result);
    const int64_t keep_from = std::max<int64_t>(0, size - l);
    SlideVotes(votes[i], keep_from - cursor.lo, size - keep_from);
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
