#include "serve/request_queue.h"

#include <algorithm>

namespace camal::serve {

const char* RequestPriorityName(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kHigh:
      return "high";
    case RequestPriority::kNormal:
      return "normal";
    case RequestPriority::kLow:
      return "low";
  }
  return "unknown";
}

RequestQueue::RequestQueue(int64_t capacity) : capacity_(capacity) {}

size_t RequestQueue::HeadIndexLocked() const {
  // Linear scan for the earliest task of the most urgent class. The queue
  // is FIFO within a class, so the first task seen of a class is that
  // class's head; an all-kNormal backlog (the default traffic) exits at
  // index 0 after one comparison short-circuits the scan.
  size_t head = 0;
  RequestPriority best = tasks_.front().request.priority;
  for (size_t i = 1; i < tasks_.size() && best != RequestPriority::kHigh;
       ++i) {
    if (tasks_[i].request.priority < best) {
      best = tasks_[i].request.priority;
      head = i;
    }
  }
  return head;
}

int64_t RequestQueue::AdaptiveDrainBudget(int64_t extra_budget,
                                          int64_t backlog,
                                          int64_t idle_consumers) {
  // Reserve one task per idle consumer: draining it into this group would
  // trade a whole concurrent worker for one more row of batch occupancy.
  // With nobody waiting this is the plain fixed budget (bounded by the
  // backlog, which the drain loop enforces anyway).
  return std::max<int64_t>(
      0, std::min(extra_budget, backlog - std::max<int64_t>(0,
                                                            idle_consumers)));
}

int64_t RequestQueue::SpareConsumers(int64_t waiting, int64_t backlog) {
  return std::max<int64_t>(0, waiting - backlog);
}

Status RequestQueue::Push(QueuedScan* task, bool* rejected_full,
                          bool force) {
  CAMAL_CHECK(task != nullptr);
  if (rejected_full != nullptr) *rejected_full = false;
  {
    MutexLock lock(&mu_);
    if (closed_) {
      return Status::FailedPrecondition("request queue is shut down");
    }
    if (!force && capacity_ > 0 &&
        static_cast<int64_t>(tasks_.size()) >= capacity_) {
      if (rejected_full != nullptr) *rejected_full = true;
      return Status::FailedPrecondition(
          "request queue is full (backpressure, capacity " +
          std::to_string(capacity_) + ")");
    }
    tasks_.push_back(std::move(*task));
  }
  cv_.NotifyOne();
  return Status::OK();
}

bool RequestQueue::PopGroup(QueuedScan* first, std::vector<QueuedScan>* extras,
                            int64_t extra_budget, int* spare) {
  CAMAL_CHECK(first != nullptr);
  CAMAL_CHECK(extras != nullptr);
  extras->clear();
  if (spare != nullptr) *spare = 0;
  MutexLock lock(&mu_);
  ++waiting_;
  while (!closed_ && tasks_.empty()) cv_.Wait(&mu_);
  --waiting_;
  if (tasks_.empty()) return false;  // closed and drained
  const size_t head = HeadIndexLocked();
  *first = std::move(tasks_[head]);
  tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(head));
  // Adaptive budget, decided under the same lock that tracks waiting
  // consumers: waiting_ counts the siblings blocked in cv_.wait right
  // now, and the backlog is what remains after the head left. Leaving
  // them work beats batching it — an idle worker is idle parallelism.
  const int64_t budget = AdaptiveDrainBudget(
      extra_budget, static_cast<int64_t>(tasks_.size()), waiting_);
  if (budget > 0) {
    // Peel off up to `budget` tasks matching the head's appliance AND
    // priority, compacting the rest in place so everything else keeps its
    // admission order. FIFO within a class means no match can precede the
    // head's old position, but the head may have been taken from the
    // middle (priority overtaking), so the scan starts at index 0 — tasks
    // before the first match never move; a backlog holding nothing to
    // coalesce costs only the comparisons.
    const std::string& appliance = first->request.appliance;
    const RequestPriority priority = first->request.priority;
    const auto matches = [&](const QueuedScan& task) {
      return task.request.priority == priority &&
             task.request.appliance == appliance;
    };
    const size_t n = tasks_.size();
    size_t read = 0;
    while (read < n && !matches(tasks_[read])) ++read;
    int64_t remaining = budget;
    size_t write = read;
    for (; read < n; ++read) {
      QueuedScan& task = tasks_[read];
      if (remaining > 0 && matches(task)) {
        extras->push_back(std::move(task));
        --remaining;
      } else {
        tasks_[write++] = std::move(task);
      }
    }
    tasks_.resize(write);
  }
  // Spare consumers, after the drain: the siblings blocked in cv_.wait
  // that the backlog left behind will not wake. The group's forward may
  // borrow their cores.
  if (spare != nullptr) {
    *spare = static_cast<int>(
        SpareConsumers(waiting_, static_cast<int64_t>(tasks_.size())));
  }
  return true;
}

void RequestQueue::Close() {
  {
    MutexLock lock(&mu_);
    closed_ = true;
  }
  cv_.NotifyAll();
}

int64_t RequestQueue::size() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(tasks_.size());
}

bool RequestQueue::closed() const {
  MutexLock lock(&mu_);
  return closed_;
}

int64_t RequestQueue::waiting_consumers() const {
  MutexLock lock(&mu_);
  return waiting_;
}

}  // namespace camal::serve
