// The benchmark's own load drivers: an open loop that issues operations on
// a precomputed Poisson schedule whatever the service does, and a closed
// loop that keeps a fixed number of operations in flight. Both time each
// operation on the benchmark clock, from its intended start to the moment
// a harvester thread sees its future resolve.
#ifndef SERVEBENCH_DRIVER_H_
#define SERVEBENCH_DRIVER_H_

#include <cstdint>
#include <functional>
#include <future>
#include <random>
#include <vector>

#include "common/status.h"
#include "serve/batch_runner.h"

namespace servebench {

using Outcome = camal::Result<camal::serve::ScanResult>;
using OutcomeFuture = std::future<Outcome>;

/// What the driver records about one issued operation.
struct Op {
  /// Open loop: the scheduled arrival. Closed loop: the actual submit.
  double intended = 0.0;
  double submitted = 0.0;  ///< entry into the issuing call.
  double admit = 0.0;      ///< seconds spent inside the issuing call.
  double done = 0.0;       ///< completion seen by a harvester.
  bool ok = false;
  /// Copied from the ScanResult when ok.
  double pass = 0.0;             ///< ScanResult::seconds
  double service_latency = 0.0;  ///< ScanResult::latency_seconds
  int64_t windows = 0;
  int64_t windows_full = 0;

  double latency() const { return done - intended; }
};

/// Issues operation \p k (on the generator thread) and returns its future.
using IssueFn = std::function<OutcomeFuture(int64_t k)>;
/// Called on a harvester thread once operation \p k resolved, with its
/// outcome; it may keep what it needs for the correctness gate. The
/// outcome is released when the call returns.
using DoneFn = std::function<void(int64_t k, Outcome& outcome)>;

/// One driven phase.
struct PhaseRun {
  std::vector<Op> ops;  ///< every issued operation, in issue order.
  double start = 0.0;   ///< phase start on the benchmark clock.
  double stop = 0.0;    ///< when issuing ended.
  double lag_max = 0.0; ///< worst generator lateness, seconds.
  bool aborted = false; ///< kMaxInFlight stopped issuing early.
  /// Arrivals of an aborted open loop that were never issued.
  int64_t unissued = 0;

  int64_t failed() const;
  /// Latest completion seen, or start when nothing was issued.
  double last_done() const;
};

/// Operations a phase keeps in flight at most. Every one of them has a
/// harvester thread blocked on its future, so each result is released the
/// moment it completes (a streaming result is the whole series, ~2 MB),
/// and an open loop whose backlog runs away stops issuing before the
/// service's queue (256) or a session's parking bound (64) can reject.
constexpr int64_t kMaxInFlight = 128;

/// Open loop over \p arrivals (seconds from the phase start, ascending).
/// Issuing stops early, and the run reads aborted with the remaining
/// arrivals counted in unissued, once kMaxInFlight operations are in
/// flight.
PhaseRun RunOpenLoop(const std::vector<double>& arrivals, const IssueFn& issue,
                     const DoneFn& done);

/// Closed loop: \p clients (at most kMaxInFlight) operations in flight
/// for \p seconds; each completion issues the next one.
PhaseRun RunClosedLoop(int clients, double seconds, const IssueFn& issue,
                       const DoneFn& done);

/// Poisson arrival offsets at \p rate per second over \p seconds.
std::vector<double> PoissonArrivals(double rate, double seconds,
                                    std::mt19937_64* rng);

}  // namespace servebench

#endif  // SERVEBENCH_DRIVER_H_
