#ifndef CAMAL_SERVE_WINDOW_STREAM_H_
#define CAMAL_SERVE_WINDOW_STREAM_H_

#include <cstdint>
#include <vector>

#include "data/series_view.h"
#include "nn/tensor.h"

namespace camal::serve {

/// Slicing/batching policy of a household scan.
struct WindowStreamOptions {
  /// Model input length L (must match the ensemble's training window).
  int64_t window_length = 128;
  /// Hop between consecutive windows; stride < window_length overlaps them
  /// so every timestamp is voted on by several windows.
  int64_t stride = 64;
  /// Windows per emitted batch.
  int64_t batch_size = 32;
  /// Aggregate Watts are divided by this before entering the model; must
  /// match data::BuildOptions::input_scale used at training time.
  float input_scale = 1000.0f;
};

/// Window start offsets for a series of \p len samples under \p options:
/// the stride grid, plus a tail window aligned to the series end when the
/// grid would leave trailing samples uncovered (and only then — a grid
/// whose last window already touches the end gets no duplicate). Series
/// shorter than one window yield no offsets.
std::vector<int64_t> ComputeWindowOffsets(int64_t len,
                                          const WindowStreamOptions& options);

/// Identifies one window inside a coalesced multi-series batch: which
/// series it was cut from and where it starts there.
struct WindowRef {
  int32_t series = 0;  ///< index into the stream's series list.
  int64_t offset = 0;  ///< window start offset within that series.
};

/// Streams household aggregate series as batches of overlapping, scaled
/// windows — the feeder of the batched inference runtime. Emits the
/// windows of several series as one stream of shared batches, so a single
/// forward pass can carry windows cut from different households. Windows
/// are ordered series-by-series (series 0's windows first, then series
/// 1's, ...), each series windowed by ComputeWindowOffsets alone — same
/// offsets, same zero-fill of missing (NaN) readings, same scaling — so
/// per-window model inputs are bit-for-bit what an uncoalesced scan
/// feeds. Batches simply keep filling across series boundaries instead of
/// flushing short. Series shorter than one window contribute nothing.
class MultiWindowStream {
 public:
  /// \p series entries are non-owning views whose backing storage must
  /// outlive the stream. All series share one slicing policy.
  MultiWindowStream(std::vector<data::SeriesView> series,
                    WindowStreamOptions options);

  /// Explicit-window variant, the feeder of incremental session rescans:
  /// emits exactly \p refs, in the given order, instead of every window
  /// of every series. Each ref must address a series in \p series and fit
  /// inside it (offset >= 0, offset + window_length <= size). Rows fill
  /// through the same path as the full streams, so a window's model input
  /// is bit-for-bit independent of which stream variant cut it.
  MultiWindowStream(std::vector<data::SeriesView> series,
                    WindowStreamOptions options, std::vector<WindowRef> refs);

  /// Total windows across every series.
  int64_t NumWindows() const { return static_cast<int64_t>(refs_.size()); }

  /// Fills \p inputs with the next (B, 1, L) batch (B <= batch_size) and
  /// \p refs with the B (series, offset) pairs. Returns B; 0 when
  /// exhausted. \p inputs is reused in place when it already has the
  /// batch's shape (only the final short batch reallocates), so callers
  /// should pass the same tensor every iteration.
  int64_t NextBatch(nn::Tensor* inputs, std::vector<WindowRef>* refs);

 private:
  std::vector<data::SeriesView> series_;
  WindowStreamOptions options_;
  std::vector<WindowRef> refs_;  ///< all windows, series-major order.
  size_t next_ = 0;
};

}  // namespace camal::serve

#endif  // CAMAL_SERVE_WINDOW_STREAM_H_
