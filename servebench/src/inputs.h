// Seeded inputs: the served model and the households, written to disk
// before any timing starts. The same seed always writes the same files.
#ifndef SERVEBENCH_INPUTS_H_
#define SERVEBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/batch_runner.h"

namespace servebench {

/// The fast-scale ensemble every workload serves.
struct ModelSpec {
  int64_t base_filters = 16;
  std::vector<int64_t> kernels = {5, 9, 15};
  int64_t window = 128;
  int64_t stride = 64;
  int64_t batch = 32;

  std::string Describe() const;
};

/// Scan options for one registered appliance of the served model.
camal::serve::BatchRunnerOptions RunnerOptions(const ModelSpec& spec,
                                               float appliance_avg_power_w);

/// Seeded random weights, saved with core::SaveEnsemble into \p dir.
void WriteModel(const ModelSpec& spec, uint64_t seed, const std::string& dir);

/// A simulated cohort: \p count households of \p readings samples at
/// \p interval_seconds with ~1% missing readings, written as
/// house_NNNN.cstore column stores into \p dir.
struct CohortSpec {
  int count = 0;
  int64_t readings = 0;
  double interval_seconds = 60.0;
};
void WriteCohort(const CohortSpec& cohort, uint64_t seed,
                 const std::string& dir);

}  // namespace servebench

#endif  // SERVEBENCH_INPUTS_H_
