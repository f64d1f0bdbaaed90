#include "serve/service.h"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <optional>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/parallel_for.h"
#include "data/csv_loader.h"
#include "data/window.h"
#include "serve/checkpoint.h"

namespace camal::serve {
namespace {

// \p seconds as a steady_clock duration, or nullopt ("never") past half the
// clock's range (~146 years), +inf and NaN included: casting a double past
// the range is undefined (x86 yields INT64_MIN, an instant long past), and
// so is adding a step near the range's end to now().
std::optional<std::chrono::steady_clock::duration> ClockStep(double seconds) {
  using Step = std::chrono::steady_clock::duration;
  const double never = std::chrono::duration<double>(Step::max()).count() / 2;
  if (!(seconds < never)) return std::nullopt;
  return std::chrono::duration_cast<Step>(
      std::chrono::duration<double>(seconds));
}

}  // namespace

Service::Service(ServiceOptions options)
    : options_(std::move(options)), queue_(options_.queue_capacity) {
  CAMAL_CHECK_GE(options_.workers, 0);
}

Service::~Service() { Shutdown(); }

Status Service::RegisterAppliance(std::string name,
                                  const core::CamalEnsemble* ensemble,
                                  BatchRunnerOptions runner) {
  MutexLock lock(&lifecycle_mu_);
  if (state_.load() != State::kIdle) {
    return Status::FailedPrecondition(
        "appliances must be registered before Start");
  }
  if (name.empty()) {
    return Status::InvalidArgument("appliance name must not be empty");
  }
  if (ensemble == nullptr) {
    return Status::InvalidArgument("appliance ensemble must not be null");
  }
  if (ensemble->members().empty()) {
    return Status::InvalidArgument("appliance ensemble has no members");
  }
  // Scan options come from configuration; bad ones must surface as a
  // Status here instead of aborting inside a worker's BatchRunner.
  CAMAL_RETURN_NOT_OK(BatchRunner::ValidateOptions(runner));
  Appliance appliance;
  appliance.ensemble = ensemble;
  appliance.runner = runner;
  if (!appliances_.emplace(std::move(name), appliance).second) {
    return Status::InvalidArgument("appliance is already registered");
  }
  return Status::OK();
}

Status Service::Start() {
  MutexLock lock(&lifecycle_mu_);
  if (state_.load() != State::kIdle) {
    return Status::FailedPrecondition("service already started");
  }
  if (appliances_.empty()) {
    return Status::FailedPrecondition(
        "at least one appliance must be registered before Start");
  }
  const int workers =
      options_.workers > 0 ? options_.workers : NumThreads();
  // Whatever the worker fan-out does not consume serves the conv GEMMs
  // inside each worker's scans.
  inner_budget_ = std::max(1, NumThreads() / workers);

  // Every worker's runners read the one registered ensemble per appliance.
  workers_.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    auto worker = std::make_unique<Worker>();
    for (const auto& [name, appliance] : appliances_) {
      worker->runners.emplace(name, std::make_unique<BatchRunner>(
                                        appliance.ensemble, appliance.runner));
    }
    workers_.push_back(std::move(worker));
  }
  // Arm the periodic checkpoint sweep from "now": the first checkpoint
  // lands one interval after Start, not immediately.
  last_checkpoint_ticks_.store(
      std::chrono::steady_clock::now().time_since_epoch().count());
  // Publish the running state before the workers exist: WorkerLoop only
  // touches the queue and its own Worker, so late thread starts are safe.
  state_.store(State::kRunning);
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(w); });
  }
  return Status::OK();
}

void Service::WorkerLoop(Worker* worker) {
  // Pin this thread's nested-parallelism budget so W workers scanning
  // concurrently fan their conv GEMMs out to NumThreads()/W chunks each
  // instead of W times the whole pool.
  ParallelBudgetScope budget(inner_budget_);
  QueuedScan first;
  std::vector<QueuedScan> extras;
  int spare = 0;
  const int64_t extra_budget =
      static_cast<int64_t>(options_.coalesce_budget) - 1;
  while (queue_.PopGroup(&first, &extras, extra_budget, &spare)) {
    BatchRunner* runner = worker->runners.at(first.request.appliance).get();
    ServeGroup(runner, &first, &extras, spare);
    // Crash safety rides the worker loop like idle eviction rides
    // CreateSession: no background thread, just an opportunistic sweep
    // between groups, CAS-claimed so one worker writes per interval.
    MaybeCheckpoint();
  }
}

void Service::ServeGroup(BatchRunner* runner, QueuedScan* first,
                         std::vector<QueuedScan>* extras, int spare) {
  // The group: head task plus the same-appliance extras PopGroup drained,
  // in admission order. Split it by kind — one-shot scans run one
  // coalesced ScanMany pass, session appends one coalesced AppendScanMany
  // pass, so distinct households' appends share GEMM batches with each
  // other (two appends of ONE session can't meet here: the session
  // serializer admits one at a time).
  std::vector<QueuedScan*> tasks;
  tasks.reserve(1 + extras->size());
  tasks.push_back(first);
  for (QueuedScan& extra : *extras) tasks.push_back(&extra);

  // Shed expired requests first — before the pre-scan hook and before any
  // feed work, so a dead deadline costs nothing but this comparison. One
  // clock read covers the group. Only one-shot scans carry deadlines
  // (Submit stamps them; session appends never do — see ScanRequest), so
  // shedding can't hole a session's series.
  const auto shed_now = std::chrono::steady_clock::now();
  std::vector<QueuedScan*> live;
  live.reserve(tasks.size());
  for (QueuedScan* task : tasks) {
    if (task->session == nullptr && task->deadline.has_value() &&
        shed_now >= *task->deadline) {
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      task->promise.set_value(Result<ScanResult>(Status::DeadlineExceeded(
          "deadline of " +
          std::to_string(task->request.deadline_seconds) +
          "s passed while request '" + task->request.household_id +
          "' was queued; shed without scanning")));
    } else {
      live.push_back(task);
    }
  }
  if (live.empty()) return;
  tasks.swap(live);

  std::vector<QueuedScan*> scans;
  std::vector<QueuedScan*> appends;
  for (QueuedScan* task : tasks) {
    (task->session != nullptr ? appends : scans).push_back(task);
  }

  // Scan inside try; fulfill promises outside, so each promise is resolved
  // exactly once whatever happens. Before this guard a throwing scan left
  // every promise of the group unfulfilled — the submitters blocked
  // forever on their futures — and unwound the worker thread for good.
  std::vector<ScanResult> scan_results;
  std::vector<ScanResult> append_results;
  Status failure = Status::OK();
  try {
    if (options_.fault_injector != nullptr) {
      for (const QueuedScan* task : tasks) {
        options_.fault_injector->OnScan(task->request.household_id);
      }
    }
    if (!scans.empty()) {
      std::vector<data::SeriesView> series;
      series.reserve(scans.size());
      for (const QueuedScan* task : scans) {
        series.push_back(RequestSeries(task->request));
      }
      // One shared feed phase for the whole group; per-request stitches
      // stay independent, so results match per-request scans bitwise.
      scan_results = runner->ScanMany(series, spare);
    }
    if (!appends.empty()) {
      std::vector<SessionScanState*> states;
      std::vector<data::SeriesView> deltas;
      states.reserve(appends.size());
      deltas.reserve(appends.size());
      for (QueuedScan* task : appends) {
        states.push_back(&task->session->scan_state_);
        deltas.push_back(RequestSeries(task->request));
      }
      append_results = runner->AppendScanMany(states, deltas, spare);
    }
    if (tasks.size() > 1) {
      coalesced_groups_.fetch_add(1, std::memory_order_relaxed);
      coalesced_requests_.fetch_add(static_cast<int64_t>(tasks.size()),
                                    std::memory_order_relaxed);
    }
  } catch (const std::exception& e) {
    failure = Status::Internal(std::string("scan failed: ") + e.what());
  } catch (...) {
    failure = Status::Internal("scan failed: unknown exception");
  }

  if (!failure.ok()) {
    // Appends never retry: the throwing scan may have half-updated their
    // sessions' stitch state, so a rerun could serve corrupt results.
    // Fail them and close the sessions (graceful degradation — the
    // caller re-creates or restores the stream).
    failed_.fetch_add(static_cast<int64_t>(appends.size()),
                      std::memory_order_relaxed);
    for (QueuedScan* task : appends) {
      // Close the session BEFORE the promise resolves (mirroring the
      // success path): a caller that wakes on the failed future must
      // already see the session closed.
      FailSession(task->session, failure);
      task->promise.set_value(Result<ScanResult>(failure));
    }
    // One-shot scans: a transient kInternal fault is retried within
    // RetryPolicy — re-enqueued at original priority with its original
    // admission time and deadline (an expired one is shed like any
    // other; the deadline is still honored across retries).
    std::vector<QueuedScan*> retriable;
    for (QueuedScan* task : scans) {
      ++task->attempts;
      if (task->attempts < options_.retry.max_attempts) {
        retriable.push_back(task);
        continue;
      }
      failed_.fetch_add(1, std::memory_order_relaxed);
      if (task->attempts > 1) {
        retries_exhausted_.fetch_add(1, std::memory_order_relaxed);
      }
      task->promise.set_value(Result<ScanResult>(failure));
    }
    if (!retriable.empty()) {
      // Bounded exponential backoff, slept on THIS worker (the one that
      // saw the fault) before the re-enqueue: siblings keep serving, and
      // a flapping fault is not hammered at queue speed. Exponent from
      // the group's most-retried task.
      int attempts = 1;
      for (const QueuedScan* task : retriable) {
        attempts = std::max(attempts, task->attempts);
      }
      double backoff = options_.retry.initial_backoff_seconds;
      for (int k = 1; k < attempts; ++k) backoff *= 2.0;
      backoff = std::min(
          std::max(backoff, 0.0), options_.retry.max_backoff_seconds);
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
      for (QueuedScan* task : retriable) {
        QueuedScan requeue = std::move(*task);
        // force: the task was already admitted once; bouncing its retry
        // off the capacity bound would turn backpressure into failure.
        Status admitted = queue_.Push(&requeue, nullptr, /*force=*/true);
        if (admitted.ok()) {
          retries_attempted_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Queue closed (shutdown): no more attempts are coming.
        failed_.fetch_add(1, std::memory_order_relaxed);
        retries_exhausted_.fetch_add(1, std::memory_order_relaxed);
        requeue.promise.set_value(Result<ScanResult>(failure));
      }
    }
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  const auto fulfill = [&](QueuedScan* task, ScanResult result) {
    result.latency_seconds =
        std::chrono::duration<double>(now - task->admitted).count();
    completed_.fetch_add(1, std::memory_order_relaxed);
    completed_by_priority_[static_cast<size_t>(task->request.priority)]
        .fetch_add(1, std::memory_order_relaxed);
    task->promise.set_value(std::move(result));
  };
  for (size_t i = 0; i < scans.size(); ++i) {
    fulfill(scans[i], std::move(scan_results[i]));
  }
  for (size_t i = 0; i < appends.size(); ++i) {
    QueuedScan* task = appends[i];
    session_appends_.fetch_add(1, std::memory_order_relaxed);
    appended_readings_.fetch_add(RequestSeries(task->request).size(),
                                 std::memory_order_relaxed);
    windows_saved_.fetch_add(
        append_results[i].windows_full - append_results[i].windows,
        std::memory_order_relaxed);
    // Commit the session (readings gauge, next parked append) BEFORE the
    // promise resolves: a caller that wakes on the future must see
    // session->readings() reflect this append. The task dies with the
    // group, so pin the session first.
    std::shared_ptr<Session> session = std::move(task->session);
    FinishAppend(session);
    fulfill(task, std::move(append_results[i]));
  }
}

std::future<Result<ScanResult>> Service::Reject(Status status) {
  rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
  std::promise<Result<ScanResult>> promise;
  std::future<Result<ScanResult>> future = promise.get_future();
  promise.set_value(Result<ScanResult>(std::move(status)));
  return future;
}

Status Service::CheckLength(int64_t readings) {
  if (readings <= data::kMaxHouseReadings) return Status::OK();
  return Status::InvalidArgument(
      "series of " + std::to_string(readings) +
      " readings is longer than kMaxHouseReadings (" +
      std::to_string(data::kMaxHouseReadings) + ")");
}

std::future<Result<ScanResult>> Service::Submit(ScanRequest request) {
  // Validate before touching the queue: malformed input must surface as a
  // Status, never reach a worker, and never abort.
  if (state_.load() != State::kRunning) {
    return Reject(Status::FailedPrecondition(
        state_.load() == State::kIdle ? "service is not started"
                                      : "service is shut down"));
  }
  if (request.appliance.empty()) {
    return Reject(
        Status::InvalidArgument("request has an empty appliance name"));
  }
  if (request.owned_series.has_value() && request.series.has_value()) {
    return Reject(Status::InvalidArgument(
        "request sets both series (borrowed) and owned_series"));
  }
  if (!request.owned_series.has_value() && !request.series.has_value()) {
    return Reject(Status::InvalidArgument("request has no series"));
  }
  if (Status length = CheckLength(RequestSeries(request).size());
      !length.ok()) {
    return Reject(std::move(length));
  }
  // appliances_ is frozen once state_ is kRunning, so lock-free reads are
  // safe here.
  if (appliances_.find(request.appliance) == appliances_.end()) {
    return Reject(Status::NotFound("appliance '" + request.appliance +
                                   "' is not registered"));
  }
  if (!(request.deadline_seconds >= 0.0)) {  // NaN fails this too
    return Reject(
        Status::InvalidArgument("request deadline_seconds must be >= 0"));
  }

  QueuedScan task;
  task.request = std::move(request);
  task.admitted = std::chrono::steady_clock::now();
  if (task.request.deadline_seconds > 0.0) {
    // Stamp the absolute expiry once, here: workers compare against it
    // without re-deriving from the (relative) request field.
    if (const auto step = ClockStep(task.request.deadline_seconds)) {
      task.deadline = task.admitted + *step;
    }
  }
  std::future<Result<ScanResult>> future = task.promise.get_future();
  bool rejected_full = false;
  Status admitted = queue_.Push(&task, &rejected_full);
  if (!admitted.ok()) {
    // Push left the task (and its promise) with us; fail it in place. Not
    // routed through Reject: the future is already bound to this promise,
    // and a full queue is backpressure, not an invalid request.
    auto& counter = rejected_full ? rejected_backpressure_ : rejected_invalid_;
    counter.fetch_add(1, std::memory_order_relaxed);
    task.promise.set_value(Result<ScanResult>(std::move(admitted)));
    return future;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  return future;
}

std::future<Result<ScanResult>> Service::Submit(std::string appliance,
                                                std::vector<float> series) {
  ScanRequest request;
  request.appliance = std::move(appliance);
  request.owned_series = std::move(series);
  return Submit(std::move(request));
}

Result<std::shared_ptr<Session>> Service::CreateSession(
    const std::string& appliance, SessionOptions options) {
  if (state_.load() != State::kRunning) {
    return Status::FailedPrecondition(
        state_.load() == State::kIdle ? "service is not started"
                                      : "service is shut down");
  }
  if (appliance.empty()) {
    return Status::InvalidArgument("appliance name must not be empty");
  }
  if (appliances_.find(appliance) == appliances_.end()) {
    return Status::NotFound("appliance '" + appliance +
                            "' is not registered");
  }
  if (options.max_pending_appends < 0) {
    return Status::InvalidArgument("max_pending_appends must be >= 0");
  }
  // Opportunistic sweep: a fleet that only ever opens sessions still
  // reclaims the ones whose households went silent.
  if (options_.session_idle_seconds > 0.0) {
    EvictIdleSessions(options_.session_idle_seconds);
  }
  std::string id =
      options.household_id.empty()
          ? "session-" + std::to_string(session_seq_.fetch_add(1) + 1)
          : options.household_id;
  // Session's ctor is private to Service, so make_shared cannot reach it;
  // the pointer lands in the shared_ptr on the same expression.
  // lint: new-ok(private ctor; immediately owned by shared_ptr)
  std::shared_ptr<Session> session(
      new Session(this, std::move(id), appliance, std::move(options)));
  {
    MutexLock lock(&sessions_mu_);
    if (!sessions_.emplace(session->id(), session).second) {
      return Status::InvalidArgument("session '" + session->id() +
                                     "' already exists");
    }
  }
  sessions_created_.fetch_add(1, std::memory_order_relaxed);
  return session;
}

std::future<Result<ScanResult>> Service::AppendReadings(
    const std::shared_ptr<Session>& session, std::vector<float> readings) {
  if (Status length = CheckLength(static_cast<int64_t>(readings.size()));
      !length.ok()) {
    return Reject(std::move(length));
  }
  if (session == nullptr || session->service_ != this) {
    return Reject(Status::InvalidArgument(
        "session does not belong to this service"));
  }
  if (state_.load() != State::kRunning) {
    return Reject(Status::FailedPrecondition(
        state_.load() == State::kIdle ? "service is not started"
                                      : "service is shut down"));
  }
  QueuedScan task;
  task.request.household_id = session->id();
  task.request.appliance = session->appliance();
  task.request.owned_series = std::move(readings);
  task.session = session;
  task.admitted = std::chrono::steady_clock::now();
  std::future<Result<ScanResult>> future = task.promise.get_future();

  Session* raw = session.get();
  MutexLock lock(&raw->mu_);
  if (raw->closed_) {
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    task.promise.set_value(Result<ScanResult>(Status::FailedPrecondition(
        "session '" + session->id() + "' is closed")));
    return future;
  }
  raw->last_active_ = std::chrono::steady_clock::now();
  if (raw->in_flight_) {
    // Same-session appends serialize: park behind the in-flight one; the
    // worker that finishes it hands the head of the park to the queue.
    if (static_cast<int64_t>(raw->pending_.size()) >=
        raw->options_.max_pending_appends) {
      rejected_backpressure_.fetch_add(1, std::memory_order_relaxed);
      task.promise.set_value(Result<ScanResult>(Status::FailedPrecondition(
          "session '" + session->id() +
          "' append backlog is full (backpressure, max " +
          std::to_string(raw->options_.max_pending_appends) + ")")));
      return future;
    }
    raw->pending_.push_back(std::move(task));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return future;
  }
  raw->in_flight_ = true;
  Status admitted = queue_.Push(&task, nullptr, /*force=*/true);
  if (!admitted.ok()) {
    // Shutdown closed the queue between the state check and here.
    raw->in_flight_ = false;
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    task.promise.set_value(Result<ScanResult>(std::move(admitted)));
    return future;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  return future;
}

void Service::DrainPendingLocked(Session* session, const Status& status) {
  while (!session->pending_.empty()) {
    QueuedScan parked = std::move(session->pending_.front());
    session->pending_.pop_front();
    failed_.fetch_add(1, std::memory_order_relaxed);
    parked.promise.set_value(Result<ScanResult>(status));
  }
}

Status Service::CloseSession(const std::shared_ptr<Session>& session) {
  if (session == nullptr || session->service_ != this) {
    return Status::InvalidArgument("session does not belong to this service");
  }
  {
    MutexLock lock(&sessions_mu_);
    sessions_.erase(session->id());
  }
  Session* raw = session.get();
  MutexLock lock(&raw->mu_);
  if (raw->closed_) return Status::OK();  // idempotent
  raw->closed_ = true;
  sessions_closed_.fetch_add(1, std::memory_order_relaxed);
  // An already-running append still completes (it was admitted); parked
  // ones were promised to a household that no longer exists, so they fail
  // now instead of scanning a closed session.
  DrainPendingLocked(raw,
                     Status::FailedPrecondition("session '" + session->id() +
                                                "' is closed"));
  return Status::OK();
}

void Service::FailSession(const std::shared_ptr<Session>& session,
                          const Status& failure) {
  {
    MutexLock lock(&sessions_mu_);
    sessions_.erase(session->id());
  }
  Session* raw = session.get();
  MutexLock lock(&raw->mu_);
  if (!raw->closed_) {
    raw->closed_ = true;
    sessions_closed_.fetch_add(1, std::memory_order_relaxed);
  }
  DrainPendingLocked(raw, failure);
  raw->in_flight_ = false;
}

int64_t Service::EvictIdleSessions(double idle_seconds) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<Session>> evicted;
  {
    MutexLock map_lock(&sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      Session* session = it->second.get();
      bool evict = false;
      {
        MutexLock lock(&session->mu_);
        // Only truly quiescent sessions go: anything queued, parked, or
        // running keeps the session alive, so eviction can never yank
        // stitch state out from under a worker.
        evict = !session->closed_ && !session->in_flight_ &&
                session->pending_.empty() &&
                std::chrono::duration<double>(now - session->last_active_)
                        .count() >= idle_seconds;
        if (evict) session->closed_ = true;
      }
      if (evict) {
        evicted.push_back(std::move(it->second));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  sessions_evicted_.fetch_add(static_cast<int64_t>(evicted.size()),
                              std::memory_order_relaxed);
  return static_cast<int64_t>(evicted.size());
}

int64_t Service::live_sessions() const {
  MutexLock lock(&sessions_mu_);
  return static_cast<int64_t>(sessions_.size());
}

Result<std::shared_ptr<Session>> Service::GetSession(
    const std::string& id) const {
  MutexLock lock(&sessions_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no live session '" + id + "'");
  }
  return it->second;
}

std::string Service::CheckpointFile(const std::string& dir) {
  return dir + "/sessions.ckpt";
}

Status Service::CheckpointSessions(const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("checkpoint directory must not be empty");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // writer surfaces errors
  std::vector<SessionSnapshot> snapshots;
  {
    MutexLock map_lock(&sessions_mu_);
    snapshots.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) {
      Session* raw = session.get();
      MutexLock lock(&raw->mu_);
      // Quiescent sessions only: an in-flight append may be mutating
      // scan_state_ on a worker right now. Reading it here is safe
      // because the worker that last wrote it locked mu_ afterwards
      // (FinishAppend), so holding mu_ with in_flight_ == false
      // happens-after the state commit. Skipped sessions are caught by
      // the next sweep — and by the Shutdown flush, which runs with the
      // workers joined, when every session is quiescent.
      if (raw->closed_ || raw->in_flight_) continue;
      SessionSnapshot snapshot;
      snapshot.id = raw->id_;
      snapshot.appliance = raw->appliance_;
      snapshot.max_pending_appends = raw->options_.max_pending_appends;
      snapshot.state = raw->scan_state_;
      snapshots.push_back(std::move(snapshot));
    }
  }
  CAMAL_RETURN_NOT_OK(WriteSessionCheckpoint(CheckpointFile(dir), snapshots,
                                             options_.fault_injector));
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<int64_t> Service::RestoreSessions(const std::string& dir) {
  if (state_.load() != State::kRunning) {
    return Status::FailedPrecondition(
        "RestoreSessions needs a running service (call Start first)");
  }
  const std::string path = CheckpointFile(dir);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return static_cast<int64_t>(0);  // fresh boot: nothing to restore
  }
  // Any malformed file — truncated, torn, bit-flipped, version-skewed —
  // surfaces here as the reader's Status: the caller degrades to fresh
  // sessions and the service keeps serving.
  CAMAL_ASSIGN_OR_RETURN(std::vector<SessionSnapshot> snapshots,
                         ReadSessionCheckpoint(path));
  const auto now = std::chrono::steady_clock::now();
  int64_t restored = 0;
  for (SessionSnapshot& snapshot : snapshots) {
    // Degrade per record, never reject the whole restore: an appliance
    // this deployment no longer registers, a grid-window count that
    // disagrees with the appliance's window plan (the appends would skip
    // or re-vote grid windows), a trimmed record holding less than one
    // window (the next tail window would start before its base), or an
    // id a live session already owns (the live session wins — it is newer
    // by definition) skips the record.
    const auto appliance = appliances_.find(snapshot.appliance);
    if (appliance == appliances_.end()) continue;
    const WindowStreamOptions& stream = appliance->second.runner.stream;
    const int64_t grid = data::GridWindowCount(
        snapshot.state.readings(), stream.window_length, stream.stride);
    if (snapshot.state.grid_windows != grid) continue;
    const auto live = static_cast<int64_t>(snapshot.state.series.size());
    if (snapshot.state.base > 0 && live < stream.window_length) continue;
    SessionOptions options;
    options.household_id = snapshot.id;
    options.max_pending_appends = snapshot.max_pending_appends;
    // lint: new-ok(private ctor; immediately owned by shared_ptr)
    std::shared_ptr<Session> session(new Session(
        this, snapshot.id, snapshot.appliance, std::move(options)));
    session->scan_state_ = std::move(snapshot.state);
    {
      // Not yet published, but the annotations (rightly) demand mu_.
      MutexLock lock(&session->mu_);
      session->committed_readings_ = session->scan_state_.readings();
      session->last_active_ = now;
    }
    {
      MutexLock map_lock(&sessions_mu_);
      if (!sessions_.emplace(session->id(), session).second) continue;
    }
    ++restored;
  }
  sessions_restored_.fetch_add(restored, std::memory_order_relaxed);
  return restored;
}

void Service::MaybeCheckpoint() {
  // NaN disables the sweep like <= 0; an interval the clock cannot reach
  // never elapses.
  if (options_.checkpoint_dir.empty() ||
      !(options_.checkpoint_interval_seconds > 0.0)) {
    return;
  }
  const auto interval = ClockStep(options_.checkpoint_interval_seconds);
  if (!interval) return;
  const int64_t now =
      std::chrono::steady_clock::now().time_since_epoch().count();
  int64_t last = last_checkpoint_ticks_.load(std::memory_order_relaxed);
  if (now - last < interval->count()) return;
  // CAS claims the sweep: the losing workers see the fresh timestamp and
  // go back to serving.
  if (!last_checkpoint_ticks_.compare_exchange_strong(
          last, now, std::memory_order_relaxed)) {
    return;
  }
  Status written = CheckpointSessions(options_.checkpoint_dir);
  if (!written.ok()) {
    // Degrade, don't crash serving: the failure is telemetry
    // (checkpoint_failures) and the next sweep tries again.
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Service::FinishAppend(const std::shared_ptr<Session>& session) {
  Session* raw = session.get();
  MutexLock lock(&raw->mu_);
  raw->committed_readings_ = raw->scan_state_.readings();
  raw->last_active_ = std::chrono::steady_clock::now();
  while (!raw->pending_.empty()) {
    QueuedScan next = std::move(raw->pending_.front());
    raw->pending_.pop_front();
    Status admitted = queue_.Push(&next, nullptr, /*force=*/true);
    if (admitted.ok()) return;  // still in flight; the next worker continues
    // Queue closed mid-stream (shutdown): this parked append and every
    // one behind it fail — they were never admitted to the queue.
    failed_.fetch_add(1, std::memory_order_relaxed);
    next.promise.set_value(Result<ScanResult>(admitted));
  }
  raw->in_flight_ = false;
}

void Service::Shutdown() {
  MutexLock lock(&lifecycle_mu_);
  if (state_.load() != State::kRunning) {
    // Never started (or already stopped): just refuse future use.
    state_.store(State::kStopped);
    return;
  }
  state_.store(State::kStopped);
  // Closing the queue wakes every worker; they drain the admitted backlog
  // first (PopGroup only returns false once closed AND empty), then exit.
  queue_.Close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // Flush a final checkpoint while the sessions still exist: with the
  // workers joined every session is quiescent, so this snapshot is the
  // complete pre-shutdown state a restart restores from. Best-effort —
  // shutdown must finish even on a full disk.
  if (!options_.checkpoint_dir.empty()) {
    Status flushed = CheckpointSessions(options_.checkpoint_dir);
    if (!flushed.ok()) {
      checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // With the workers joined, no append is in flight and (FinishAppend
  // drained against the closed queue) none is parked; close whatever
  // sessions remain so handles read closed and late appends fail fast.
  std::map<std::string, std::shared_ptr<Session>> sessions;
  {
    MutexLock sessions_lock(&sessions_mu_);
    sessions.swap(sessions_);
  }
  for (auto& [id, session] : sessions) {
    Session* raw = session.get();
    MutexLock session_lock(&raw->mu_);
    if (!raw->closed_) {
      raw->closed_ = true;
      sessions_closed_.fetch_add(1, std::memory_order_relaxed);
    }
    DrainPendingLocked(raw,
                       Status::FailedPrecondition("service is shut down"));
    raw->in_flight_ = false;
  }
}

ServiceStats Service::stats() const {
  ServiceStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  stats.rejected_backpressure =
      rejected_backpressure_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  stats.completed_high =
      completed_by_priority_[0].load(std::memory_order_relaxed);
  stats.completed_normal =
      completed_by_priority_[1].load(std::memory_order_relaxed);
  stats.completed_low =
      completed_by_priority_[2].load(std::memory_order_relaxed);
  stats.coalesced_groups = coalesced_groups_.load(std::memory_order_relaxed);
  stats.coalesced_requests =
      coalesced_requests_.load(std::memory_order_relaxed);
  stats.sessions_created = sessions_created_.load(std::memory_order_relaxed);
  stats.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  stats.sessions_evicted = sessions_evicted_.load(std::memory_order_relaxed);
  stats.live_sessions = live_sessions();
  stats.session_appends = session_appends_.load(std::memory_order_relaxed);
  stats.appended_readings =
      appended_readings_.load(std::memory_order_relaxed);
  stats.incremental_windows_saved =
      windows_saved_.load(std::memory_order_relaxed);
  stats.retries_attempted =
      retries_attempted_.load(std::memory_order_relaxed);
  stats.retries_exhausted =
      retries_exhausted_.load(std::memory_order_relaxed);
  stats.sessions_restored =
      sessions_restored_.load(std::memory_order_relaxed);
  stats.checkpoints_written =
      checkpoints_written_.load(std::memory_order_relaxed);
  stats.checkpoint_failures =
      checkpoint_failures_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace camal::serve
