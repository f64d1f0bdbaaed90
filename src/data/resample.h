#ifndef CAMAL_DATA_RESAMPLE_H_
#define CAMAL_DATA_RESAMPLE_H_

#include "common/status.h"
#include "data/time_series.h"

// lint: test-only-ok(paper §V-B resampling step; data/property tests cover it)

namespace camal::data {

/// Resamples \p series to \p target_interval_seconds by averaging the power
/// consumed during each target interval (the "readjust recorded values to
/// round timestamps" step of §V-B). The target interval must be an integer
/// multiple of the source interval. Missing source readings are skipped in
/// the average; a target bucket with no valid source readings is missing.
Result<TimeSeries> ResampleAverage(const TimeSeries& series,
                                   double target_interval_seconds);

/// Forward-fills missing readings, copying the last valid value across gaps
/// of at most \p max_gap_seconds (the per-dataset "Max. ffill" of Table I).
/// Longer gaps stay missing (their windows are later discarded). Leading
/// missing values are never filled.
TimeSeries ForwardFill(const TimeSeries& series, double max_gap_seconds);

}  // namespace camal::data

#endif  // CAMAL_DATA_RESAMPLE_H_
