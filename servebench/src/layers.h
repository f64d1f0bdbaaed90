// The traced run's replay: a sample of a workload's own inputs pushed
// through each layer's public calls on one thread, timed call by call.
#ifndef SERVEBENCH_LAYERS_H_
#define SERVEBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "data/series_view.h"
#include "inputs.h"
#include "serve/batch_runner.h"
#include "trace.h"
#include "util.h"

namespace servebench {

struct ReplayInputs {
  ModelSpec spec;
  std::string model_dir;
  camal::serve::BatchRunnerOptions runner;
  /// Series scanned one-shot: a sample of the workload's requests.
  std::vector<camal::data::SeriesView> scans;
  /// Appends replay: the history committed first (untimed), then the
  /// deltas appended to it one by one.
  camal::data::SeriesView history;
  std::vector<camal::data::SeriesView> appends;
};

/// Replays \p inputs under ParallelBudgetScope(1) — the budget of a
/// service worker with one worker per core — recording a span per call,
/// and returns the serve.* and core.* replay metrics.
std::vector<Metric> ReplayLayers(const ReplayInputs& inputs, Tracer* tracer);

/// The nn.* rows: an in-binary FMA peak and conv forward rates of the
/// served member and of a paper-scale member.
std::vector<Metric> MeasureKernels(Tracer* tracer);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H_
