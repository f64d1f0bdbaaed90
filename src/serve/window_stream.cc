#include "serve/window_stream.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "data/time_series.h"
#include "data/window.h"

namespace camal::serve {
namespace {

void CheckOptions(const WindowStreamOptions& options) {
  CAMAL_CHECK_GT(options.window_length, 0);
  CAMAL_CHECK_GT(options.stride, 0);
  CAMAL_CHECK_GT(options.batch_size, 0);
  CAMAL_CHECK_GT(options.input_scale, 0.0f);
}

/// Reuses the caller's tensor when its shape already matches (b, 1, l);
/// otherwise swaps in fresh uninitialized storage (every element is
/// written by the fill loop).
void EnsureBatchShape(nn::Tensor* inputs, int64_t b, int64_t l) {
  if (inputs->ndim() != 3 || inputs->dim(0) != b || inputs->dim(1) != 1 ||
      inputs->dim(2) != l) {
    *inputs = nn::Tensor::Uninitialized({b, 1, l});
  }
}

}  // namespace

std::vector<int64_t> ComputeWindowOffsets(
    int64_t len, const WindowStreamOptions& options) {
  const int64_t l = options.window_length;
  const int64_t grid = data::GridWindowCount(len, l, options.stride);
  std::vector<int64_t> offsets;
  offsets.reserve(static_cast<size_t>(grid) + 1);
  for (int64_t k = 0; k < grid; ++k) {
    offsets.push_back(k * options.stride);
  }
  // Tail window: align to the series end so trailing samples the stride
  // grid skipped still get covered. When the last grid window already
  // ends at the series end ((len - l) % stride == 0) no tail is added —
  // a duplicate offset would double that window's stitch votes. The same
  // data::GridLeavesTail predicate drives the incremental session plan,
  // so the streaming and one-shot window sets can never disagree.
  if (data::GridLeavesTail(len, l, options.stride)) {
    offsets.push_back(len - l);
  }
  return offsets;
}

MultiWindowStream::MultiWindowStream(std::vector<data::SeriesView> series,
                                     WindowStreamOptions options)
    : series_(std::move(series)), options_(options) {
  CheckOptions(options_);
  for (size_t s = 0; s < series_.size(); ++s) {
    for (int64_t off : ComputeWindowOffsets(series_[s].size(), options_)) {
      refs_.push_back(WindowRef{static_cast<int32_t>(s), off});
    }
  }
}

MultiWindowStream::MultiWindowStream(std::vector<data::SeriesView> series,
                                     WindowStreamOptions options,
                                     std::vector<WindowRef> refs)
    : series_(std::move(series)), options_(options), refs_(std::move(refs)) {
  CheckOptions(options_);
  const int64_t l = options_.window_length;
  for (const WindowRef& ref : refs_) {
    CAMAL_CHECK_GE(ref.series, 0);
    CAMAL_CHECK_LT(static_cast<size_t>(ref.series), series_.size());
    CAMAL_CHECK_GE(ref.offset, 0);
    CAMAL_CHECK_LE(ref.offset + l,
                   series_[static_cast<size_t>(ref.series)].size());
  }
}

int64_t MultiWindowStream::NextBatch(nn::Tensor* inputs,
                                     std::vector<WindowRef>* refs) {
  CAMAL_CHECK(inputs != nullptr);
  CAMAL_CHECK(refs != nullptr);
  refs->clear();
  const int64_t remaining = NumWindows() - static_cast<int64_t>(next_);
  const int64_t b = std::min<int64_t>(options_.batch_size, remaining);
  if (b <= 0) return 0;
  const int64_t l = options_.window_length;
  EnsureBatchShape(inputs, b, l);
  const float inv_scale = 1.0f / options_.input_scale;
  for (int64_t i = 0; i < b; ++i) {
    const WindowRef ref = refs_[next_++];
    refs->push_back(ref);
    // Missing readings are zero-filled: serving cannot drop windows the
    // way training does.
    const data::SeriesView& view = series_[static_cast<size_t>(ref.series)];
    const float* src = view.data() + ref.offset;
    float* dst = inputs->data() + i * l;
    for (int64_t t = 0; t < l; ++t) {
      dst[t] = data::IsMissing(src[t]) ? 0.0f : src[t] * inv_scale;
    }
  }
  return b;
}

}  // namespace camal::serve
