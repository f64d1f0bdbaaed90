#include "driver.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "util.h"

namespace servebench {
namespace {

// Harvesters claim operations in issue order and sleep in the future's
// wait; one per operation in flight means none is ever seen late.
constexpr int64_t kHarvesters = kMaxInFlight;

std::chrono::steady_clock::time_point ToTimePoint(double seconds) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds)));
}

// Issued operations plus the harvester threads that wait on them. Slots
// live in a deque so their addresses survive later pushes.
class Harvest {
 public:
  explicit Harvest(const DoneFn& done) : done_fn_(done) {
    threads_.reserve(static_cast<size_t>(kHarvesters));
    for (int64_t t = 0; t < kHarvesters; ++t) {
      threads_.emplace_back([this] { Loop(); });
    }
  }
  ~Harvest() { Finish(); }
  Harvest(const Harvest&) = delete;
  Harvest& operator=(const Harvest&) = delete;

  void Publish(const Op& op, OutcomeFuture future) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(Slot{op, std::move(future)});
    }
    cv_.notify_one();
  }

  /// No more operations; waits until every published one resolved.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

  /// Blocks until an operation resolves that the caller has not taken
  /// yet, or until \p deadline; returns its index or -1 on timeout.
  int64_t NextCompletion(double deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait_until(lock, ToTimePoint(deadline),
                        [&] { return !completed_.empty(); });
    if (completed_.empty()) return -1;
    const int64_t k = completed_.front();
    completed_.pop_front();
    return k;
  }

  int64_t in_flight() const { return published() - resolved_.load(); }

  int64_t published() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(slots_.size());
  }

  /// Only after Finish.
  std::vector<Op> TakeOps() {
    std::vector<Op> ops;
    ops.reserve(slots_.size());
    for (Slot& slot : slots_) ops.push_back(slot.op);
    return ops;
  }

  double op_done(int64_t k) {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_[static_cast<size_t>(k)].op.done;
  }

 private:
  struct Slot {
    Op op;
    OutcomeFuture future;
  };

  void Loop() {
    for (;;) {
      Slot* slot = nullptr;
      int64_t k = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return next_ < static_cast<int64_t>(slots_.size()) || closed_;
        });
        if (next_ >= static_cast<int64_t>(slots_.size())) return;
        k = next_++;
        slot = &slots_[static_cast<size_t>(k)];
      }
      slot->future.wait();
      const double done = Now();
      Outcome outcome = slot->future.get();
      Op& op = slot->op;
      op.done = done;
      op.ok = outcome.ok();
      if (op.ok) {
        const camal::serve::ScanResult& result = outcome.value();
        op.pass = result.seconds;
        op.service_latency = result.latency_seconds;
        op.windows = result.windows;
        op.windows_full = result.windows_full;
      }
      done_fn_(k, outcome);
      resolved_.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(mu_);
        completed_.push_back(k);
      }
      done_cv_.notify_one();
    }
  }

  const DoneFn& done_fn_;
  mutable std::mutex mu_;
  std::condition_variable cv_;       // new slot or closed
  std::condition_variable done_cv_;  // new completion
  std::deque<Slot> slots_;
  std::deque<int64_t> completed_;
  int64_t next_ = 0;
  bool closed_ = false;
  std::atomic<int64_t> resolved_{0};
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

}  // namespace

int64_t PhaseRun::failed() const {
  int64_t n = 0;
  for (const Op& op : ops) n += op.ok ? 0 : 1;
  return n;
}

double PhaseRun::last_done() const {
  double last = start;
  for (const Op& op : ops) last = std::max(last, op.done);
  return last;
}

std::vector<double> PoissonArrivals(double rate, double seconds,
                                    std::mt19937_64* rng) {
  std::exponential_distribution<double> gap(rate);
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<size_t>(rate * seconds * 1.2) + 16);
  for (double t = gap(*rng); t < seconds; t += gap(*rng)) {
    arrivals.push_back(t);
  }
  return arrivals;
}

PhaseRun RunOpenLoop(const std::vector<double>& arrivals, const IssueFn& issue,
                     const DoneFn& done) {
  PhaseRun run;
  Harvest harvest(done);
  // A short lead so the first arrival is not already late.
  run.start = Now() + 1e-3;
  for (size_t k = 0; k < arrivals.size(); ++k) {
    if (harvest.in_flight() >= kMaxInFlight) {
      run.aborted = true;
      run.unissued = static_cast<int64_t>(arrivals.size() - k);
      break;
    }
    Op op;
    op.intended = run.start + arrivals[k];
    std::this_thread::sleep_until(ToTimePoint(op.intended));
    op.submitted = Now();
    OutcomeFuture future = issue(static_cast<int64_t>(k));
    op.admit = Now() - op.submitted;
    run.lag_max = std::max(run.lag_max, op.submitted - op.intended);
    harvest.Publish(op, std::move(future));
  }
  run.stop = Now();
  harvest.Finish();
  run.ops = harvest.TakeOps();
  return run;
}

PhaseRun RunClosedLoop(int clients, double seconds, const IssueFn& issue,
                       const DoneFn& done) {
  Require(clients <= kMaxInFlight, "more clients than harvesters");
  PhaseRun run;
  Harvest harvest(done);
  int64_t issued = 0;
  auto issue_next = [&] {
    Op op;
    op.submitted = Now();
    op.intended = op.submitted;
    OutcomeFuture future = issue(issued++);
    op.admit = Now() - op.submitted;
    harvest.Publish(op, std::move(future));
  };
  run.start = Now();
  const double deadline = run.start + seconds;
  for (int c = 0; c < clients; ++c) issue_next();
  for (;;) {
    const int64_t k = harvest.NextCompletion(deadline);
    if (k < 0 || Now() >= deadline) break;
    // Closed-loop lateness: completion seen -> replacement issued.
    run.lag_max = std::max(run.lag_max, Now() - harvest.op_done(k));
    issue_next();
  }
  run.stop = Now();
  harvest.Finish();
  run.ops = harvest.TakeOps();
  return run;
}

}  // namespace servebench
