#ifndef CAMAL_SERVE_SERVICE_H_
#define CAMAL_SERVE_SERVICE_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "serve/request_queue.h"
#include "serve/session.h"

namespace camal {
class FaultInjector;
}  // namespace camal

namespace camal::serve {

/// Bounded retry of transiently-failed one-shot scans. A scan that
/// throws (kInternal) is re-enqueued — at its original priority, its
/// deadline still honored — after an exponential backoff, up to
/// max_attempts total attempts; only then does the caller's future see
/// the failure. Session appends NEVER retry: a faulted append may have
/// half-updated the session's stitch state, so rerunning it could serve
/// corrupt results — the session is closed instead (graceful
/// degradation, ServiceStats::retries_exhausted tells the operator).
struct RetryPolicy {
  /// Total scan attempts per request (first try included). 1 = no
  /// retry, the pre-retry behaviour exactly.
  int max_attempts = 1;
  /// Backoff before attempt k+1 is initial * 2^(k-1), capped at max —
  /// slept on the failing worker, so a flapping dependency is not
  /// hammered at queue speed.
  double initial_backoff_seconds = 0.001;
  double max_backoff_seconds = 0.1;
};

/// Configuration of a serve::Service worker pool.
struct ServiceOptions {
  /// Request worker threads; 0 means NumThreads(). Each worker owns one
  /// BatchRunner per registered appliance, and all of them read that
  /// appliance's one registered ensemble: only the runners' scan scratch
  /// scales with workers x appliances, never the model weights. Workers
  /// left idle with nothing queued for them are spare: a worker whose
  /// pass fits one batch runs that batch's (member, window) forwards as
  /// parallel lanes on up to that many of the process pool's threads
  /// (see RequestQueue::PopGroup and
  /// CamalEnsemble::DetectProbabilityBatched), so one request can use the
  /// cores a light load leaves idle. Results are bitwise the same either
  /// way.
  int workers = 0;
  /// Admission-queue bound: a Submit that finds this many requests already
  /// waiting is rejected with kFailedPrecondition (backpressure). <= 0
  /// means unbounded — only sensible for batch clients that pre-size their
  /// work, like a whole-cohort scan that submits every household at once.
  int64_t queue_capacity = 256;
  /// Cross-request window coalescing: a worker that dequeues a request
  /// also drains up to coalesce_budget - 1 more waiting requests for the
  /// same appliance and serves the whole group through one shared-GEMM
  /// scan (BatchRunner::ScanMany), stitching and fulfilling each request's
  /// future independently. Results are bitwise-identical to uncoalesced
  /// scans; what changes is batch occupancy — a deep queue of small
  /// households fills GEMM batches that per-request scans would run nearly
  /// empty (Fig. 7c: ~7x at batch 32). <= 1 disables. Trade-off: a
  /// drained request waits for its whole group's pass instead of a pass
  /// of its own. The drain never takes a request an idle worker could
  /// start (RequestQueue::AdaptiveDrainBudget), and workers still idle
  /// lend their cores to a one-batch group's forward (see `workers`), so
  /// a shallow queue loses little; a latency-critical deployment may
  /// still prefer 1.
  int coalesce_budget = 8;
  /// Streaming sessions idle at least this long — no append queued,
  /// parked, or running since — become eligible for eviction, swept
  /// opportunistically on each CreateSession (no background thread to
  /// configure or leak). <= 0 disables the sweep; EvictIdleSessions
  /// evicts on demand either way.
  double session_idle_seconds = 0.0;
  /// Structured fault-injection seam (replaces the old bare
  /// pre_scan_hook): borrowed, must outlive the service. Each worker
  /// calls FaultInjector::OnScan(request.household_id) immediately
  /// before a request is scanned — the injector's plan decides whether
  /// to throw, and its observation hook replaces ad-hoc test lambdas.
  /// An exception thrown there — or anywhere in the scan — resolves the
  /// affected requests' futures with kInternal (after any retries; see
  /// `retry`) instead of leaving them hung and killing the worker. The
  /// same injector can be threaded through checkpoint IO to fault
  /// writes and tear committed files. Null disables the seam.
  FaultInjector* fault_injector = nullptr;
  /// Bounded retry of transient one-shot scan faults; see RetryPolicy.
  RetryPolicy retry;
  /// Crash safety: directory session checkpoints are written to (file
  /// Service::CheckpointFile(dir)). Empty disables checkpointing.
  /// With a directory set, Shutdown flushes a final checkpoint, and —
  /// when checkpoint_interval_seconds > 0 (NaN counts as 0; +inf never
  /// elapses) — workers sweep one opportunistically after serving, at most
  /// once per interval (no background thread to configure or leak, like
  /// the idle-session sweep). Restore is explicit: call RestoreSessions
  /// after Start.
  std::string checkpoint_dir;
  double checkpoint_interval_seconds = 0.0;
};

/// Monotonic request counters (totals since Start).
struct ServiceStats {
  int64_t accepted = 0;  ///< requests admitted to the queue.
  /// Requests refused by validation (malformed request, unknown appliance)
  /// or lifecycle (not started / shut down).
  int64_t rejected_invalid = 0;
  /// Requests refused because the bounded admission queue was full — the
  /// overload signal an operator alerts on, which lumping it with
  /// malformed requests used to hide.
  int64_t rejected_backpressure = 0;
  int64_t completed = 0;  ///< requests whose future holds a ScanResult.
  int64_t failed = 0;     ///< scans that threw; futures hold kInternal.
  /// Requests whose deadline passed while they queued: shed by a worker
  /// BEFORE any scan ran, futures hold kDeadlineExceeded. Under overload
  /// this is the load-shedding signal (capacity spent only on answers
  /// someone still wants); it is not failure and not backpressure.
  int64_t shed_deadline = 0;
  /// Completions by scheduling class (sum equals `completed`): the
  /// QoS split an operator checks to see whether priority inversion or
  /// starvation is happening under load.
  int64_t completed_high = 0;
  int64_t completed_normal = 0;
  int64_t completed_low = 0;
  /// Coalescing telemetry: groups of >= 2 requests served through one
  /// shared scan, and the requests inside them. Mean batch occupancy of
  /// coalesced scans = coalesced_requests / coalesced_groups.
  int64_t coalesced_groups = 0;
  int64_t coalesced_requests = 0;
  /// Streaming-session telemetry.
  int64_t sessions_created = 0;
  int64_t sessions_closed = 0;   ///< by CloseSession, faults, or Shutdown.
  int64_t sessions_evicted = 0;  ///< reclaimed by idle eviction.
  int64_t live_sessions = 0;     ///< gauge: sessions open right now.
  int64_t session_appends = 0;   ///< append scans completed.
  int64_t appended_readings = 0;  ///< samples committed through appends.
  /// Feed windows the persisted stitch state saved versus from-scratch
  /// rescans: sum over completed appends of windows_full - windows.
  int64_t incremental_windows_saved = 0;
  /// Degradation telemetry (crash safety + retry). A retried request
  /// that eventually completes counts under `completed` as usual;
  /// retries_attempted counts the extra scan attempts it consumed, and
  /// retries_exhausted the requests that failed even after retrying —
  /// the "the fault was not transient" signal.
  int64_t retries_attempted = 0;
  int64_t retries_exhausted = 0;
  /// Sessions revived from a checkpoint by RestoreSessions.
  int64_t sessions_restored = 0;
  /// Checkpoint files durably written (periodic sweeps, explicit calls,
  /// and the Shutdown flush) — and sweep writes that failed, which an
  /// operator alerts on: a service that cannot persist its sessions has
  /// silently lost crash safety.
  int64_t checkpoints_written = 0;
  int64_t checkpoint_failures = 0;

  /// All rejections, whatever the reason.
  int64_t rejected_total() const {
    return rejected_invalid + rejected_backpressure;
  }
};

/// Asynchronous multi-appliance serving facade — the request front-end of
/// the CamAL runtime.
///
/// Lifecycle: construct, RegisterAppliance one or more named ensembles,
/// Start, then Submit ScanRequests from any number of threads; each
/// returns a std::future<Result<ScanResult>>. Internally a bounded
/// RequestQueue feeds `workers` threads, each owning a private BatchRunner
/// per appliance (runners hold scan scratch, so they are never shared)
/// over that appliance's one registered, read-only ensemble. When the queue
/// runs deep, a worker coalesces same-appliance requests into one
/// shared-GEMM scan (see ServiceOptions::coalesce_budget). Results are
/// bitwise-identical to a sequential BatchRunner::Scan with the same
/// options, regardless of which worker served the request or which
/// requests shared its batches.
///
/// Error contract: malformed requests never abort the process. Submit
/// resolves the returned future immediately with kInvalidArgument (empty
/// appliance name, no series set, a series longer than
/// data::kMaxHouseReadings, negative deadline), kNotFound
/// (unregistered appliance), or kFailedPrecondition (not started, shut
/// down, or queue full). Workers only ever see validated requests; a scan
/// that throws resolves the affected futures with kInternal and the
/// worker lives on.
///
/// QoS: every request carries a RequestPriority (default kNormal) — a
/// worker always serves the earliest request of the most urgent class,
/// FIFO within a class, and cross-request coalescing never groups across
/// classes. A request may also set ScanRequest::deadline_seconds; one
/// still queued when it expires is shed with kDeadlineExceeded before
/// any scan runs (ServiceStats::shed_deadline). Neither priority nor an
/// unexpired deadline changes results: a served request's ScanResult is
/// bitwise-identical whatever its class or the queue state.
///
/// Streaming households use sessions instead of one-shot Submits:
/// CreateSession opens a long-lived handle whose AppendReadings deltas
/// rescan incrementally against persisted stitch state — bitwise-
/// identical to a from-scratch scan of the concatenated series, at the
/// cost of only the windows the new tail touches. Session appends ride
/// the same queue, workers, and coalescing as one-shot requests.
///
/// Shutdown is graceful: admission stops at once, every request already
/// admitted is still served, then workers join and live sessions close.
/// The destructor calls Shutdown. A borrowed-series request
/// (ScanRequest::series) must keep the view's backing storage — a vector
/// or a mapped data::ColumnStore — alive until the request's future
/// resolves; owned-series requests and session appends carry their
/// buffers. Serving off a mapped store is the zero-copy path: the worker
/// windows the model inputs straight out of the mapping.
class Service {
 public:
  explicit Service(ServiceOptions options = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Registers \p ensemble (borrowed; must outlive the service) under
  /// \p name with per-request scan options. Only before Start:
  /// registration after Start returns kFailedPrecondition; an empty name,
  /// duplicate name, or null ensemble returns kInvalidArgument. Every
  /// worker serves on \p ensemble itself through const calls only, so
  /// while requests are in flight the caller may make const calls too
  /// (DetectProbabilityBatched, a BatchRunner of its own) but no non-const
  /// one until Shutdown.
  Status RegisterAppliance(std::string name,
                           const core::CamalEnsemble* ensemble,
                           BatchRunnerOptions runner);

  /// Builds each worker's runners and launches the worker pool. Returns
  /// kFailedPrecondition when no appliance is registered, or when the
  /// service already started (including after Shutdown — a Service is
  /// single-use).
  Status Start();

  /// Validates and enqueues \p request. Always returns a future: on
  /// rejection it is already resolved with the non-OK Status (see the
  /// class contract for codes). Thread-safe. The request must set exactly
  /// one of `series` (borrowed view — its backing storage must outlive
  /// the future) and `owned_series` (the request carries the buffer).
  /// [[nodiscard]]: dropping the future loses the only handle on the
  /// request's outcome (including a rejection already resolved into it).
  [[nodiscard]] std::future<Result<ScanResult>> Submit(ScanRequest request);

  /// Owning one-shot convenience: the request carries \p series, so the
  /// caller has no buffer to keep alive — use this instead of a borrowed
  /// ScanRequest unless the series already outlives the call.
  [[nodiscard]] std::future<Result<ScanResult>> Submit(
      std::string appliance, std::vector<float> series);

  /// Opens a streaming session for \p appliance (see Session for the
  /// lifecycle and serialization contract). kFailedPrecondition before
  /// Start / after Shutdown, kNotFound for an unregistered appliance,
  /// kInvalidArgument for bad options or a duplicate live household_id.
  /// Thread-safe. When ServiceOptions::session_idle_seconds > 0 this also
  /// sweeps idle sessions first.
  Result<std::shared_ptr<Session>> CreateSession(const std::string& appliance,
                                                 SessionOptions options = {});

  /// Appends \p readings to \p session and rescans incrementally. Always
  /// returns a future; on success it resolves to the changed suffix
  /// [from, readings) of the session's result (BatchRunner::AppendScan):
  /// written at `from` over the earlier appends' suffixes, it is
  /// bitwise-identical to a from-scratch scan of everything appended so
  /// far. Appends to one session serialize in submission order; at most
  /// max_pending_appends may park behind the in-flight one before
  /// kFailedPrecondition backpressure. A closed / evicted session or a
  /// shut-down service rejects with kFailedPrecondition, and a delta
  /// longer than data::kMaxHouseReadings with kInvalidArgument (so do
  /// Session's copying overloads, before they copy). Thread-safe.
  [[nodiscard]] std::future<Result<ScanResult>> AppendReadings(
      const std::shared_ptr<Session>& session, std::vector<float> readings);

  /// Closes \p session: parked appends fail with kFailedPrecondition (an
  /// already-running one still completes), later appends are rejected,
  /// and the service drops its reference. Idempotent. Thread-safe.
  Status CloseSession(const std::shared_ptr<Session>& session);

  /// Looks up a live session by household id — the handle-recovery path
  /// after RestoreSessions, which revives sessions nobody holds a
  /// pointer to yet. kNotFound when no live session has \p id.
  /// Thread-safe.
  Result<std::shared_ptr<Session>> GetSession(const std::string& id) const;

  /// Snapshots every quiescent live session into
  /// CheckpointFile(\p dir), written atomically (temp + fsync + rename)
  /// so a crash mid-checkpoint leaves the previous snapshot intact.
  /// Sessions with an append queued, parked, or running are skipped —
  /// their stitch state may be mid-update on a worker — and are caught
  /// by the next sweep. Zero live sessions still write a (valid, empty)
  /// checkpoint: "nothing was live" is state worth persisting.
  /// Thread-safe; safe to race with appends and Close.
  Status CheckpointSessions(const std::string& dir);

  /// Revives sessions from CheckpointFile(\p dir) into this service and
  /// returns how many were restored. Appends to a restored session
  /// produce results bitwise-identical to a session that was never
  /// interrupted: the snapshot carries the exact stitch accumulators.
  /// Degrades, never crashes: a missing file restores 0 (a fresh boot
  /// is not an error); a corrupt, torn, or version-skewed file returns
  /// the reader's Status and the service keeps serving; records whose
  /// appliance is not registered, whose grid-window count disagrees with
  /// that appliance's window plan, that were trimmed (base > 0) yet hold
  /// fewer than window_length readings, or whose id collides with a live
  /// session (the live one wins), are skipped. Requires a running
  /// service (kFailedPrecondition otherwise).
  Result<int64_t> RestoreSessions(const std::string& dir);

  /// The checkpoint file CheckpointSessions writes inside \p dir.
  static std::string CheckpointFile(const std::string& dir);

  /// Evicts every session whose last append activity is at least
  /// \p idle_seconds ago and that has nothing queued, parked, or running.
  /// Evicted sessions read as closed. Returns how many were evicted.
  /// Thread-safe; safe to race with appends — a session that becomes
  /// active between the check and the evict is skipped, never corrupted.
  int64_t EvictIdleSessions(double idle_seconds);

  /// Sessions currently open (the ServiceStats::live_sessions gauge).
  int64_t live_sessions() const;

  /// Stops admission, serves every admitted request, joins the workers,
  /// then closes every live session — parked appends admitted after the
  /// queue closed fail with kFailedPrecondition, so every future returned
  /// by Submit/AppendReadings resolves. Idempotent; safe to race with
  /// Submit (late submissions are rejected).
  void Shutdown();

  /// True between a successful Start and Shutdown.
  bool running() const { return state_.load() == State::kRunning; }

  /// Worker threads the pool runs (0 before Start).
  int workers() const { return static_cast<int>(workers_.size()); }

  /// Requests currently waiting for a worker (excludes in-flight scans) —
  /// the backpressure signal an operator would alert on.
  int64_t queue_depth() const { return queue_.size(); }

  /// Nested conv-GEMM chunk budget each worker runs with
  /// (NumThreads() / workers, at least 1). Meaningful after Start.
  int inner_budget() const { return inner_budget_; }

  ServiceStats stats() const;

 private:
  enum class State { kIdle, kRunning, kStopped };

  struct Appliance {
    const core::CamalEnsemble* ensemble = nullptr;
    BatchRunnerOptions runner;
  };

  /// One request worker: a thread plus its private per-appliance runners.
  struct Worker {
    std::map<std::string, std::unique_ptr<BatchRunner>> runners;
    std::thread thread;
  };

  friend class Session;  // its copying AppendReadings overloads reject early

  void WorkerLoop(Worker* worker);

  /// Serves one dequeued group (head task plus same-appliance extras) on
  /// \p runner. Expired-deadline tasks are shed first — their promises
  /// resolve with kDeadlineExceeded and they never reach the fault-
  /// injection seam or a runner. The rest: one-shot tasks through one
  /// coalesced ScanMany pass, session appends through one coalesced
  /// AppendScanMany pass (a group never holds two appends of the same
  /// session — the session serializer admits one at a time). Every
  /// task's promise is resolved exactly once — with its ScanResult, or
  /// with kInternal if the scan threw and retries are exhausted. A
  /// throwing scan closes the affected sessions (their stitch state is
  /// suspect; appends never retry) and re-enqueues one-shot tasks still
  /// inside RetryPolicy::max_attempts after a bounded backoff. \p spare
  /// is PopGroup's count of idle sibling workers, lent to the group's
  /// single-batch forwards (BatchRunner::ScanMany).
  void ServeGroup(BatchRunner* runner, QueuedScan* first,
                  std::vector<QueuedScan>* extras, int spare);

  /// Opportunistic checkpoint sweep, run by workers between groups: at
  /// most one checkpoint per checkpoint_interval_seconds, claimed by
  /// atomic CAS so concurrent workers never write twice.
  void MaybeCheckpoint();

  /// Post-append session handoff, on the worker thread: commits the
  /// readings gauge, then either hands the next parked append to the
  /// queue (the session stays in flight) or clears the in-flight flag.
  void FinishAppend(const std::shared_ptr<Session>& session);

  /// Closes \p session after its append faulted: parked appends fail,
  /// the handle reads closed, the service drops its reference.
  void FailSession(const std::shared_ptr<Session>& session,
                   const Status& failure);

  /// Fails every parked append of \p session with \p status and counts
  /// them failed. Caller holds session->mu_.
  void DrainPendingLocked(Session* session, const Status& status)
      CAMAL_REQUIRES(session->mu_);

  /// Ready future carrying \p status; counts an invalid-request rejection.
  std::future<Result<ScanResult>> Reject(Status status);

  /// kInvalidArgument when a request's \p readings exceed
  /// data::kMaxHouseReadings (a pass holds 12 B of result per reading),
  /// else OK. Submit and every AppendReadings overload ask it first, so an
  /// over-long series is rejected before anything copies or reads it.
  static Status CheckLength(int64_t readings);

  ServiceOptions options_;
  /// Written under lifecycle_mu_ before Start publishes kRunning, frozen
  /// (read lock-free by Submit and the workers) after — a publish-then-
  /// freeze field, deliberately NOT CAMAL_GUARDED_BY: annotating it would
  /// force every reader through a lock the freeze makes unnecessary.
  std::map<std::string, Appliance> appliances_;
  RequestQueue queue_;
  /// Same publish-then-freeze discipline as appliances_ (and the same
  /// reason it carries no guard annotation).
  std::vector<std::unique_ptr<Worker>> workers_;
  int inner_budget_ = 1;  ///< nested-GEMM budget per worker (see Start).
  std::atomic<State> state_{State::kIdle};
  Mutex lifecycle_mu_;  ///< serializes Register/Start/Shutdown.
  /// Live sessions by id; guarded by sessions_mu_ (lock order: before any
  /// Session::mu_). Values are shared with caller handles, so erasing
  /// here never frees a session somebody still appends through.
  mutable Mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_
      CAMAL_GUARDED_BY(sessions_mu_);
  std::atomic<int64_t> session_seq_{0};  ///< auto-generated id counter.
  mutable std::atomic<int64_t> accepted_{0};
  mutable std::atomic<int64_t> rejected_invalid_{0};
  mutable std::atomic<int64_t> rejected_backpressure_{0};
  mutable std::atomic<int64_t> completed_{0};
  mutable std::atomic<int64_t> failed_{0};
  mutable std::atomic<int64_t> shed_deadline_{0};
  /// Completions indexed by RequestPriority (kHigh=0..kLow=2).
  mutable std::array<std::atomic<int64_t>, 3> completed_by_priority_{};
  mutable std::atomic<int64_t> coalesced_groups_{0};
  mutable std::atomic<int64_t> coalesced_requests_{0};
  mutable std::atomic<int64_t> sessions_created_{0};
  mutable std::atomic<int64_t> sessions_closed_{0};
  mutable std::atomic<int64_t> sessions_evicted_{0};
  mutable std::atomic<int64_t> session_appends_{0};
  mutable std::atomic<int64_t> appended_readings_{0};
  mutable std::atomic<int64_t> windows_saved_{0};
  mutable std::atomic<int64_t> retries_attempted_{0};
  mutable std::atomic<int64_t> retries_exhausted_{0};
  mutable std::atomic<int64_t> sessions_restored_{0};
  mutable std::atomic<int64_t> checkpoints_written_{0};
  mutable std::atomic<int64_t> checkpoint_failures_{0};
  /// steady_clock ticks of the last periodic sweep; CAS-claimed in
  /// MaybeCheckpoint.
  std::atomic<int64_t> last_checkpoint_ticks_{0};
};

}  // namespace camal::serve

#endif  // CAMAL_SERVE_SERVICE_H_
