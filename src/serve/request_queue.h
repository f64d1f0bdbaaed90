#ifndef CAMAL_SERVE_REQUEST_QUEUE_H_
#define CAMAL_SERVE_REQUEST_QUEUE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "data/series_view.h"
#include "serve/batch_runner.h"

namespace camal::serve {

class Session;

/// Scheduling class of a request. Lower value = more urgent: a worker
/// always takes the earliest-admitted task of the most urgent class
/// present, so high-priority requests overtake a backlog of normal ones
/// while FIFO order is preserved within each class (no reordering among
/// equals — the bitwise-identity guarantees are per-request and
/// unaffected either way).
enum class RequestPriority {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

/// Returns "high" / "normal" / "low".
const char* RequestPriorityName(RequestPriority priority);

/// One asynchronous scan request submitted to serve::Service.
///
/// The series travels one of two ways — set exactly one:
///  - `series`: BORROWED. A non-owning view; its backing storage (a
///    caller's vector, a mapped ColumnStore channel) must stay alive
///    until the request's future resolves. Right for batch clients that
///    own a cohort until every future resolves and for serving straight
///    off a mapped store with zero copies.
///  - `owned_series`: OWNED. The request carries the buffer itself, so
///    the caller may return immediately — the fire-and-forget shape the
///    borrowed view would make a lifetime footgun. Session appends always
///    use this form; Submit(appliance, series) builds it for one-shots.
struct ScanRequest {
  /// Caller-chosen identifier echoed through logs and benches; the service
  /// itself does not interpret it. Session appends carry the session id.
  std::string household_id;
  /// Name of a registered appliance (Service::RegisterAppliance).
  std::string appliance;
  /// Aggregate series in unscaled Watts (NaN = missing reading).
  /// Borrowed view; see the struct contract. (An optional, not a bare
  /// view, so an explicitly-submitted empty series stays distinguishable
  /// from "not set".)
  std::optional<data::SeriesView> series;
  /// Owning alternative to `series`; see the struct contract. For a
  /// session append this is the delta, not a full series.
  std::optional<std::vector<float>> owned_series;
  /// Scheduling class; defaults to kNormal, which reproduces the pre-
  /// priority FIFO behaviour exactly. Does not affect results — only the
  /// order (and, with a deadline, whether) the request is served.
  RequestPriority priority = RequestPriority::kNormal;
  /// Optional deadline, in seconds from submission; 0 or +inf means none,
  /// and Submit rejects a negative or NaN one. A request still queued
  /// when its deadline passes is shed by the next worker that dequeues it
  /// — its future resolves with kDeadlineExceeded and no scan runs (the
  /// point: under overload, capacity goes to requests whose answers
  /// someone still wants). A request whose scan already started always
  /// completes. Session appends never carry deadlines: a shed append
  /// would silently hole the session's series.
  double deadline_seconds = 0.0;
};

/// The effective series of a request: a view of the owned buffer when
/// present, otherwise the borrowed view (empty when the caller set
/// neither). Resolve only on the request's final resting place — the
/// owned buffer's address changes whenever the enclosing QueuedScan
/// moves.
inline data::SeriesView RequestSeries(const ScanRequest& request) {
  if (request.owned_series.has_value()) {
    return data::SeriesView(*request.owned_series);
  }
  return request.series.value_or(data::SeriesView());
}

/// A validated request waiting in the admission queue, paired with the
/// promise its worker fulfills and the admission timestamp that
/// ScanResult::latency_seconds is measured from.
struct QueuedScan {
  ScanRequest request;
  /// Non-null: this task is a session append (request.owned_series holds
  /// the delta) and the worker routes it through AppendScanMany against
  /// the session's persisted stitch state.
  std::shared_ptr<Session> session;
  std::promise<Result<ScanResult>> promise;
  std::chrono::steady_clock::time_point admitted;
  /// Absolute expiry stamped at admission from request.deadline_seconds;
  /// empty = no deadline. Workers compare against steady_clock::now()
  /// once per dequeued group, before scanning.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Scan attempts already consumed by this task (retry bookkeeping; see
  /// RetryPolicy). A re-enqueued task keeps its admission timestamp,
  /// priority, and deadline — only this counter moves.
  int attempts = 0;
};

/// Bounded MPMC admission queue of the serving front-end: producers are
/// Service::Submit callers, consumers are the service's worker threads.
///
/// Push never blocks — when the queue is at capacity (backpressure) or
/// closed, it returns kFailedPrecondition and leaves the caller's task
/// untouched, so the caller still owns the promise and can fail it.
/// PopGroup blocks until a task arrives or the queue is closed *and*
/// drained: Close stops admission immediately but lets consumers finish
/// every task admitted before it (graceful shutdown).
class RequestQueue {
 public:
  /// \p capacity bounds the number of waiting tasks; <= 0 means unbounded
  /// (for batch clients that pre-size their work).
  explicit RequestQueue(int64_t capacity);

  /// Moves \p *task into the queue. On failure (full or closed) \p *task
  /// is left intact and a kFailedPrecondition status is returned; when
  /// \p rejected_full is non-null it is set to whether the failure was the
  /// capacity bound (backpressure) rather than shutdown — the distinction
  /// ServiceStats telemetry reports. \p force bypasses the capacity bound
  /// (never the closed check): session appends use it, both at admission
  /// and at the worker handoff that re-queues a session's next parked
  /// append — session flow control is per-session (max_pending_appends),
  /// and bouncing a handoff off the global bound would strand the parked
  /// backlog behind an in_flight flag nobody clears.
  Status Push(QueuedScan* task, bool* rejected_full = nullptr,
              bool force = false);

  /// Batch pop with appliance affinity, the queue side of cross-request
  /// window coalescing: blocks until a head task is available, taking the
  /// earliest-admitted one of the most urgent RequestPriority present
  /// (FIFO within a class; all-kNormal traffic behaves exactly like a
  /// plain FIFO), then — without blocking — drains more waiting tasks
  /// for the SAME appliance AND SAME priority into \p extras
  /// (cleared first), skipping over everything else, whose relative order
  /// is preserved. Drained tasks come out in admission order. Grouping
  /// never crosses priority classes: a low request must not ride a high
  /// head's scan ahead of other high requests (nor the reverse).
  ///
  /// The drain budget is adaptive (ROADMAP adaptive-coalescing step 2),
  /// never more than \p extra_budget: with idle sibling consumers blocked
  /// in PopGroup, a fixed budget would batch work one request deep while
  /// a whole worker sat idle, so the drain leaves at least one task
  /// behind per waiting consumer — see AdaptiveDrainBudget. Purely a
  /// batching policy: results are bitwise-identical whichever worker or
  /// group serves a request. extra_budget <= 0 pops the head task alone.
  ///
  /// When \p spare is set it receives, decided under the same lock, how
  /// many of the consumers still blocked here have no task left for them
  /// after this pop (SpareConsumers): cores the group may borrow for its
  /// forward (see BatchRunner::ScanMany). A backlog yields 0, so a burst
  /// keeps every forward on its own consumer. Returns false only when
  /// closed and fully drained.
  bool PopGroup(QueuedScan* first, std::vector<QueuedScan>* extras,
                int64_t extra_budget, int* spare = nullptr);

  /// The effective extras budget a PopGroup may drain: the configured
  /// \p extra_budget, capped so that \p idle_consumers tasks of the
  /// remaining \p backlog (queue depth AFTER removing the head) are left
  /// for the consumers currently blocked waiting. Exposed for tests;
  /// pure.
  static int64_t AdaptiveDrainBudget(int64_t extra_budget, int64_t backlog,
                                     int64_t idle_consumers);

  /// Consumers blocked waiting that the \p backlog left after a pop's
  /// drain will not keep busy: max(0, waiting - backlog). Exposed for
  /// tests; pure.
  static int64_t SpareConsumers(int64_t waiting, int64_t backlog);

  /// Stops admission; queued tasks remain poppable. Idempotent.
  void Close();

  int64_t size() const;
  int64_t capacity() const { return capacity_; }
  bool closed() const;

  /// Consumers currently blocked inside PopGroup waiting for work —
  /// the idle-worker signal the adaptive drain budget is gated on.
  int64_t waiting_consumers() const;

 private:
  /// Index of the task PopGroup takes first: earliest of the most urgent
  /// priority class present. Caller holds mu_; tasks_ must be non-empty.
  size_t HeadIndexLocked() const CAMAL_REQUIRES(mu_);

  const int64_t capacity_;
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<QueuedScan> tasks_ CAMAL_GUARDED_BY(mu_);
  bool closed_ CAMAL_GUARDED_BY(mu_) = false;
  /// Consumers blocked in PopGroup.
  int64_t waiting_ CAMAL_GUARDED_BY(mu_) = 0;
};

}  // namespace camal::serve

#endif  // CAMAL_SERVE_REQUEST_QUEUE_H_
