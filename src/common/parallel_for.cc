#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

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

// The CPUs in the calling thread's affinity mask, ascending; empty when
// the mask cannot be read.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
#endif
  return cpus;
}

// Restricts the calling thread to \p cpu; false when that fails.
bool PinCallingThread(int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

// The CPU the calling thread runs on now, or −1 when unknown.
int CurrentCpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

// One blocking parallel-for invocation: a fixed range cut into n_chunks
// contiguous pieces that helpers and the calling thread claim dynamically
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
  // The first exception a chunk threw, written once (by whoever sets
  // `failed`) before that chunk counts itself done.
  std::atomic<bool> failed{false};
  std::exception_ptr error;
};

// Work-sharing pool, re-entrant by construction: every Run publishes its
// own Job, the calling thread claims chunks of its job exactly like a
// helper, and completion is tracked per job. Concurrent top-level Runs are
// independent (no shared completion state), and a nested Run issued from a
// helper thread can never deadlock — if no helper is free, the nested
// caller simply executes every chunk itself.
//
// Each helper parks on its own condition variable and is woken only by a
// Run that picked it (internal::PickHelpers), never by a broadcast. Pinned
// one per CPU, a helper picked off its caller's CPU starts on another
// core: an unpinned wakee is often placed on its waker's busy CPU, where
// it waits behind the waker for up to milliseconds.
class Pool {
 public:
  explicit Pool(int helpers)
      : cpus_(static_cast<size_t>(helpers), -1),
        waiting_(static_cast<size_t>(helpers), false),
        wake_(std::make_unique<CondVar[]>(static_cast<size_t>(helpers))) {
    // A pool with no helpers would make Run()'s hand-off pointless.
    // ParallelForChunked and ParallelLanes only dispatch 2+ chunks, never
    // more than NumThreads(), so NumThreads() == 1 processes never
    // construct one.
    CAMAL_CHECK_GE(helpers, 1);
    // One helper per CPU a caller might occupy, so a pick off the caller's
    // CPU still finds one. Pinned only when the helpers cover the mask
    // exactly: a pool narrowed by CAMAL_THREADS would otherwise crowd every
    // such process onto the mask's first CPUs.
    const std::vector<int> allowed = AllowedCpus();
    const bool pin = static_cast<int>(allowed.size()) == helpers;
    threads_.reserve(static_cast<size_t>(helpers));
    for (int h = 0; h < helpers; ++h) {
      const int cpu = pin ? allowed[static_cast<size_t>(h)] : -1;
      threads_.emplace_back([this, h, cpu] { HelperLoop(h, cpu); });
    }
  }

  // Blocks until every chunk of \p job has executed, then rethrows the
  // first exception a chunk threw. Safe to call concurrently from any
  // thread, including pool helpers.
  void Run(Job* job) {
    CAMAL_CHECK_GE(job->n_chunks, 1);
    std::vector<int> woken;
    {
      MutexLock lock(&mu_);
      jobs_.push_back(job);
      // One helper per chunk beyond the caller's own, off the caller's
      // CPU. Clearing the flags under the lock keeps two callers from
      // picking the same helper.
      woken = internal::PickHelpers(cpus_, waiting_, CurrentCpu(),
                                    job->n_chunks);
      for (const int h : woken) waiting_[static_cast<size_t>(h)] = false;
    }
    for (const int h : woken) wake_[static_cast<size_t>(h)].NotifyOne();
    // Claim chunks of our own job until none remain: a chunk no helper
    // reached in time runs here.
    for (;;) {
      const int64_t c = job->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job->n_chunks) break;
      RunChunk(job, c);
    }
    // Wait for chunks claimed by helpers (none in the common case where
    // the caller drained the job itself).
    if (job->done.load(std::memory_order_acquire) != job->n_chunks) {
      MutexLock lock(&done_mu_);
      while (job->done.load(std::memory_order_acquire) != job->n_chunks) {
        done_cv_.Wait(&done_mu_);
      }
    }
    // Unlink the job before it goes out of scope on the caller's stack
    // (a helper that saw it exhausted may already have removed it).
    {
      MutexLock lock(&mu_);
      const auto it = std::find(jobs_.begin(), jobs_.end(), job);
      if (it != jobs_.end()) jobs_.erase(it);
    }
    if (job->error) std::rethrow_exception(job->error);
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
    // A throw must neither end a helper thread nor unwind a caller whose
    // job helpers still run: Run rethrows it once every chunk is done.
    try {
      (*job->body)(b, e);
    } catch (...) {
      if (!job->failed.exchange(true)) job->error = std::current_exception();
    }
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

  // Claims the next chunk of the oldest job that has one left, retiring
  // exhausted jobs so the queue advances.
  bool ClaimLocked(Job** job, int64_t* c) CAMAL_REQUIRES(mu_) {
    while (!jobs_.empty()) {
      Job* front = jobs_.front();
      const int64_t next = front->next.fetch_add(1, std::memory_order_relaxed);
      if (next < front->n_chunks) {
        *job = front;
        *c = next;
        return true;
      }
      jobs_.pop_front();
    }
    return false;
  }

  void HelperLoop(int h, int cpu) {
    const size_t self = static_cast<size_t>(h);
    // Pinned before the first park, and Run picks only parked helpers, so
    // no caller ever reads a CPU this helper does not hold.
    if (cpu >= 0 && PinCallingThread(cpu)) {
      MutexLock lock(&mu_);
      cpus_[self] = cpu;
    }
    for (;;) {
      Job* job = nullptr;
      int64_t c = 0;
      {
        MutexLock lock(&mu_);
        // Drain queued jobs before parking; once parked, only a Run that
        // picks this helper clears the flag.
        while (!ClaimLocked(&job, &c)) {
          waiting_[self] = true;
          while (waiting_[self]) wake_[self].Wait(&mu_);
        }
      }
      RunChunk(job, c);
    }
  }

  Mutex mu_;
  /// FIFO: concurrent callers' jobs drain in submission order.
  std::deque<Job*> jobs_ CAMAL_GUARDED_BY(mu_);
  /// Helper h's pinned CPU, −1 while unpinned.
  std::vector<int> cpus_ CAMAL_GUARDED_BY(mu_);
  /// Helper h is parked on wake_[h] until a Run clears waiting_[h].
  std::vector<bool> waiting_ CAMAL_GUARDED_BY(mu_);
  const std::unique_ptr<CondVar[]> wake_;
  Mutex done_mu_;
  CondVar done_cv_;
  std::vector<std::thread> threads_;
};

Pool* GetPool() {
  // Built lazily on the first call that actually fans out, so serial
  // processes (CAMAL_THREADS=1) never spawn helpers. Leaked intentionally:
  // threads run for the process lifetime (style-guide pattern for
  // non-trivially-destructible singletons).
  // lint: new-ok(intentionally leaked process-lifetime singleton)
  static Pool* pool = new Pool(NumThreads());
  return pool;
}

}  // namespace

namespace internal {

int ThreadCount(const char* env, int cpus) {
  if (env != nullptr) {
    // strtol saturates out-of-range input, where atoi's behaviour is
    // undefined.
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<int>(std::min<long>(v, 64));
  }
  if (cpus <= 0) cpus = 4;
  return std::min(cpus, 32);
}

std::vector<int> PickHelpers(const std::vector<int>& helper_cpus,
                             const std::vector<bool>& waiting, int caller_cpu,
                             int64_t chunks) {
  std::vector<int> picked;
  const int helpers = static_cast<int>(helper_cpus.size());
  for (int h = 0; h < helpers; ++h) {
    if (static_cast<int64_t>(picked.size()) + 1 >= chunks) break;
    const int cpu = helper_cpus[static_cast<size_t>(h)];
    const bool on_caller = cpu >= 0 && cpu == caller_cpu;
    if (waiting[static_cast<size_t>(h)] && !on_caller) picked.push_back(h);
  }
  return picked;
}

}  // namespace internal

int NumThreads() {
  static const int threads = [] {
    const std::vector<int> allowed = AllowedCpus();
    const unsigned cpus = allowed.empty()
                              ? std::thread::hardware_concurrency()
                              : static_cast<unsigned>(allowed.size());
    return internal::ThreadCount(std::getenv("CAMAL_THREADS"),
                                 static_cast<int>(cpus));
  }();
  return threads;
}

ParallelBudgetScope::ParallelBudgetScope(int budget) {
  // Nesting a scope inside a parallel region (or another scope) would
  // let a chunk re-widen the budget its caller already narrowed.
  CAMAL_CHECK_EQ(tls_budget, 0);
  CAMAL_CHECK_GE(budget, 1);
  // Clamped so a budget wider than the pool can never dispatch to a pool
  // that has no helpers (CAMAL_THREADS=1).
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
  const std::function<void(int64_t, int64_t)> chunk =
      [&body](int64_t b, int64_t) { body(static_cast<int>(b)); };
  Job job;
  job.end = n;
  job.n_chunks = n;
  job.body = &chunk;
  GetPool()->Run(&job);
}

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& body) {
  ParallelForChunked(begin, end, [&body](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) body(i);
  });
}

}  // namespace camal
