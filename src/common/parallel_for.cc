#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <exception>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"

namespace camal {
namespace {

// Chunk budget of a parallel loop started on this thread. 0 on threads
// outside any parallel region (the whole pool, NumThreads(), is
// available); 1 while a pool chunk runs (nested loops run inline); the
// pinned budget inside a ParallelBudgetScope.
thread_local int tls_budget = 0;
// True while this thread runs a pool chunk, whoever claimed it.
thread_local bool tls_in_chunk = false;

int ReadThreadsEnv() {
  const char* env = std::getenv("CAMAL_THREADS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v >= 1) return std::min(v, 64);
  }
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  return static_cast<int>(std::min<unsigned>(hw, 32));
}

// One blocking parallel-for invocation: a fixed range cut into n_chunks
// contiguous pieces that workers and the calling thread claim dynamically
// through the `next` cursor. Lives on the caller's stack for the duration
// of Pool::Run.
struct Job {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t chunk = 1;
  int64_t n_chunks = 0;
  const std::function<void(int64_t, int64_t)>* body = nullptr;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> done{0};
};

// Work-sharing pool, re-entrant by construction: every Run publishes its
// own Job, the calling thread claims chunks of its job exactly like a
// worker, and completion is tracked per job. Concurrent top-level Runs are
// independent (no shared completion state), and a nested Run issued from a
// worker thread can never deadlock — if no worker is free, the nested
// caller simply executes every chunk itself.
class Pool {
 public:
  explicit Pool(int workers) : workers_(workers) {
    // A pool with no workers would make Run()'s hand-off pointless.
    // ParallelForChunked and ParallelLanes only dispatch 2+ chunks, never
    // more than NumThreads(), so NumThreads() == 1 processes never
    // construct one.
    CAMAL_CHECK_GE(workers_, 1);
    threads_.reserve(static_cast<size_t>(workers_));
    for (int w = 0; w < workers_; ++w) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  // Blocks until every chunk of \p job has executed. Safe to call
  // concurrently from any thread, including pool workers.
  void Run(Job* job) {
    CAMAL_CHECK_GE(job->n_chunks, 1);
    {
      MutexLock lock(&mu_);
      jobs_.push_back(job);
    }
    // Wake one helper per chunk beyond the caller's own: a small job
    // (two or three member lanes) should not rouse the whole pool.
    // Helpers busy elsewhere miss nothing — they re-check the queue
    // before they wait.
    const int64_t helpers = std::min<int64_t>(job->n_chunks - 1, workers_);
    for (int64_t h = 0; h < helpers; ++h) cv_.NotifyOne();
    // Claim chunks of our own job until none remain.
    for (;;) {
      const int64_t c = job->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job->n_chunks) break;
      RunChunk(job, c);
    }
    // Wait for chunks claimed by workers (none in the common case where
    // the caller drained the job itself).
    if (job->done.load(std::memory_order_acquire) != job->n_chunks) {
      MutexLock lock(&done_mu_);
      while (job->done.load(std::memory_order_acquire) != job->n_chunks) {
        done_cv_.Wait(&done_mu_);
      }
    }
    // Unlink the job before it goes out of scope on the caller's stack
    // (a worker that saw it exhausted may already have removed it).
    {
      MutexLock lock(&mu_);
      for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
        if (*it == job) {
          jobs_.erase(it);
          break;
        }
      }
    }
  }

 private:
  void RunChunk(Job* job, int64_t c) {
    const int64_t b = job->begin + c * job->chunk;
    const int64_t e = std::min<int64_t>(b + job->chunk, job->end);
    // Chunks never fan out further: a nested loop runs inline.
    const int saved_budget = tls_budget;
    const bool saved_in_chunk = tls_in_chunk;
    tls_budget = 1;
    tls_in_chunk = true;
    (*job->body)(b, e);
    tls_budget = saved_budget;
    tls_in_chunk = saved_in_chunk;
    // Read n_chunks before the final fetch_add: once `done` reaches the
    // total, the caller may return and destroy the job.
    const int64_t total = job->n_chunks;
    if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
      MutexLock lock(&done_mu_);
      done_cv_.NotifyAll();
    }
  }

  void WorkerLoop() {
    for (;;) {
      Job* job = nullptr;
      int64_t c = 0;
      {
        MutexLock lock(&mu_);
        while (jobs_.empty()) cv_.Wait(&mu_);
        job = jobs_.front();
        c = job->next.fetch_add(1, std::memory_order_relaxed);
        if (c >= job->n_chunks) {
          // Exhausted: retire it so the queue advances to the next job.
          // (Only the front pointer is compared — the owner may have
          // unlinked it already.)
          if (!jobs_.empty() && jobs_.front() == job) jobs_.pop_front();
          continue;
        }
      }
      RunChunk(job, c);
    }
  }

  int workers_;
  Mutex mu_;
  CondVar cv_;
  /// FIFO: concurrent callers' jobs drain in submission order.
  std::deque<Job*> jobs_ CAMAL_GUARDED_BY(mu_);
  Mutex done_mu_;
  CondVar done_cv_;
  std::vector<std::thread> threads_;
};

Pool* GetPool() {
  // Built lazily on the first call that actually fans out, so serial
  // processes (CAMAL_THREADS=1) never spawn workers. Leaked intentionally:
  // threads run for the process lifetime (style-guide pattern for
  // non-trivially-destructible singletons).
  // lint: new-ok(intentionally leaked process-lifetime singleton)
  static Pool* pool = new Pool(NumThreads() - 1);
  return pool;
}

}  // namespace

int NumThreads() {
  static int threads = ReadThreadsEnv();
  return threads;
}

ParallelBudgetScope::ParallelBudgetScope(int budget) {
  // Nesting a scope inside a parallel region (or another scope) would
  // let a chunk re-widen the budget its caller already narrowed.
  CAMAL_CHECK_EQ(tls_budget, 0);
  CAMAL_CHECK_GE(budget, 1);
  // Clamped so a budget wider than the pool can never dispatch to a pool
  // that has no workers (CAMAL_THREADS=1).
  tls_budget = std::min(budget, NumThreads());
}

ParallelBudgetScope::~ParallelBudgetScope() { tls_budget = 0; }

void ParallelForChunked(int64_t begin, int64_t end,
                        const std::function<void(int64_t, int64_t)>& body) {
  if (begin >= end) return;
  const int64_t n = end - begin;
  const int budget = tls_budget == 0 ? NumThreads() : tls_budget;
  if (budget <= 1 || n < 2) {
    body(begin, end);
    return;
  }
  const int64_t chunks = std::min<int64_t>(budget, n);
  Job job;
  job.begin = begin;
  job.end = end;
  job.chunk = (n + chunks - 1) / chunks;
  job.n_chunks = (n + job.chunk - 1) / job.chunk;
  job.body = &body;
  GetPool()->Run(&job);
}

void ParallelLanes(int lanes, const std::function<void(int)>& body) {
  const int n = std::min(lanes, NumThreads());
  if (n <= 1 || tls_in_chunk) {
    for (int lane = 0; lane < n; ++lane) body(lane);
    return;
  }
  // A throw must neither kill a pool thread nor unwind the caller while
  // helpers still run its job: keep the first, rethrow it after Run.
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  const std::function<void(int64_t, int64_t)> chunk = [&](int64_t b, int64_t) {
    try {
      body(static_cast<int>(b));
    } catch (...) {
      if (!failed.exchange(true)) error = std::current_exception();
    }
  };
  Job job;
  job.end = n;
  job.n_chunks = n;
  job.body = &chunk;
  GetPool()->Run(&job);
  if (error) std::rethrow_exception(error);
}

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& body) {
  ParallelForChunked(begin, end, [&body](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) body(i);
  });
}

}  // namespace camal
