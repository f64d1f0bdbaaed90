#ifndef CAMAL_SERVE_SESSION_H_
#define CAMAL_SERVE_SESSION_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "serve/request_queue.h"

namespace camal::serve {

class Service;

/// Configuration of one streaming household session.
struct SessionOptions {
  /// Caller-chosen session id, echoed as ScanRequest::household_id on
  /// every append. Must be unique among the service's live sessions;
  /// empty picks "session-<n>".
  std::string household_id;
  /// Bound on appends parked behind the session's in-flight one
  /// (same-session appends serialize; see Session). An AppendReadings
  /// that finds this many already parked is rejected with
  /// kFailedPrecondition — the per-session backpressure mirror of the
  /// service queue's capacity bound.
  int64_t max_pending_appends = 64;
};

/// A long-lived streaming household: the incremental counterpart of a
/// one-shot Submit. Created by Service::CreateSession; each
/// AppendReadings delta extends the household's committed series and
/// returns the changed suffix of its result, [from, readings()) with
/// `from` in ScanResult::from. Writing every append's suffix at its
/// `from` rebuilds the result of a from-scratch scan of everything
/// appended so far, bit for bit — the service persists the session's
/// stitch state, rescans only the windows the new tail touches, and keeps
/// only the last window_length readings (SessionScanState), so memory
/// and per-append cost stay flat however long the household streams.
///
/// Concurrency: AppendReadings is thread-safe, and appends to ONE session
/// serialize in submission order (at most one is ever queued or running;
/// later ones park on the session until the worker hands them off).
/// Appends to DISTINCT sessions flow through the service's normal
/// coalescing machinery and share GEMM batches.
///
/// Lifecycle: create -> append* -> Close. Close is idempotent; appends
/// after it (or after the service shuts down, which closes every live
/// session) fail with kFailedPrecondition, as do appends parked when it
/// happens — only the already-running append still completes. Sessions
/// idle past ServiceOptions::session_idle_seconds are evicted the same
/// way. A handle is only a handle: it must not outlive the Service that
/// created it, though it may outlive Shutdown.
class Session : public std::enable_shared_from_this<Session> {
 public:
  const std::string& id() const { return id_; }
  const std::string& appliance() const { return appliance_; }

  /// Readings committed so far — appends still parked or in flight are
  /// not counted until their scan finishes.
  int64_t readings() const;

  /// True once Close / eviction / service shutdown has retired the
  /// session.
  bool closed() const;

  /// Appends \p readings (unscaled Watts, NaN or +-Inf = missing) to the
  /// household and rescans incrementally. Shorthand for
  /// Service::AppendReadings(session, readings); see it for the contract.
  /// [[nodiscard]] like Service::Submit: the future is the outcome.
  [[nodiscard]] std::future<Result<ScanResult>> AppendReadings(
      std::vector<float> readings);

  /// Copying overload for a borrowed delta (e.g. a mapped ColumnStore
  /// chunk): the readings are copied into the request, so the view only
  /// needs to live for this call — an append commits the delta into the
  /// session's own series either way.
  [[nodiscard]] std::future<Result<ScanResult>> AppendReadings(
      data::SeriesView readings);

  /// Copying overload for callers holding a raw buffer. \p readings may
  /// be null only when \p count is 0.
  [[nodiscard]] std::future<Result<ScanResult>> AppendReadings(
      const float* readings, int64_t count);

  /// Shorthand for Service::CloseSession(session).
  Status Close();

 private:
  friend class Service;

  Session(Service* service, std::string id, std::string appliance,
          SessionOptions options);

  Service* const service_;
  const std::string id_;
  const std::string appliance_;
  const SessionOptions options_;

  /// Guards every field below. Lock order: Service::sessions_mu_ before
  /// mu_ before RequestQueue::mu_ — never the reverse.
  mutable Mutex mu_;
  bool closed_ CAMAL_GUARDED_BY(mu_) = false;
  /// An append of this session is queued or running. The flag is the
  /// serializer: while set, new appends park in pending_ and the worker
  /// that finishes the in-flight append hands the head of pending_ to the
  /// queue (Service::FinishAppend).
  bool in_flight_ CAMAL_GUARDED_BY(mu_) = false;
  std::deque<QueuedScan> pending_ CAMAL_GUARDED_BY(mu_);
  std::chrono::steady_clock::time_point last_active_ CAMAL_GUARDED_BY(mu_);
  /// readings() snapshot, under mu_.
  int64_t committed_readings_ CAMAL_GUARDED_BY(mu_) = 0;

  /// Persisted stitch state (live series suffix + grid-window votes). NOT
  /// guarded by mu_: only the worker serving the session's single
  /// in-flight append touches it, and the in_flight_ handoff through the
  /// queue orders those accesses across workers.
  SessionScanState scan_state_;
};

}  // namespace camal::serve

#endif  // CAMAL_SERVE_SESSION_H_
