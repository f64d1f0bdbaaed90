// The three serving workloads: fleet_batch, interactive and streaming.
#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"
#include "util.h"

namespace servebench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phases together.
  bool trace = false;
  std::string work_dir;   ///< inputs and checkpoints; removed afterwards.
};

struct RunReport {
  bool correct = false;
  int64_t attempted = 0;  ///< service operations issued in the run.
  int64_t failed = 0;     ///< of those, rejected, shed or failed.
  double lag_max = 0.0;   ///< worst driver lateness, seconds.
  /// Share of the host's CPU time the hypervisor gave to other guests
  /// during the timed phases: high values mean the numbers are contended.
  double steal_share = 0.0;
  /// Phases stopped early by the in-flight cap: capacity probes above
  /// capacity, or any phase on a host too contended to keep up. The
  /// arrivals an aborted nominal or heavy phase never issued are counted
  /// in attempted and failed.
  int64_t aborted_phases = 0;
  std::vector<Metric> end_to_end;
  /// p99 latencies of the nominal and heavy phases and the recovery time;
  /// reported as traced.* by the traced run only (see
  /// Harness::AddEndToEnd).
  std::vector<Metric> tails;
  std::vector<Metric> per_layer;  ///< only filled by a traced run.
};

/// Writes the seeded inputs, sets up, drives the timed phases, recovers,
/// checks every sampled output against a sequential scan (Fail()ing on a
/// mismatch) and, when traced, replays the layers.
RunReport RunWorkload(const RunConfig& config, Tracer* tracer);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
