#ifndef CAMAL_COMMON_PARALLEL_FOR_H_
#define CAMAL_COMMON_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace camal {

/// Returns the worker count used by the parallel-for pool: the
/// CAMAL_THREADS environment variable when it is set to a positive
/// integer (clamped to at most 64; CAMAL_THREADS=1 forces serial
/// execution everywhere), otherwise the number of CPUs the process may
/// run on (its affinity mask, so `taskset -c 0,1` counts 2; the online
/// CPU count where the mask cannot be read) clamped to [1, 32].
int NumThreads();

/// Runs body(i) for i in [begin, end) across the process-wide thread pool.
///
/// Iterations are split into contiguous chunks that the pool's helpers and
/// the calling thread claim dynamically. The call blocks until all
/// iterations finish. `body` must be safe to invoke concurrently on
/// disjoint indices. Serial when (end - begin) is small or the calling
/// thread's budget is one thread.
///
/// The pool is re-entrant: concurrent top-level calls from different
/// threads are safe, and a call nested inside a parallel region runs
/// inline on the calling thread — it never deadlocks and never
/// oversubscribes the thread budget.
///
/// If a body throws, the call still waits for every chunk some thread
/// claimed, then rethrows the first exception on the calling thread; the
/// pool and the caller's budget are left as they were.
///
/// The pool keeps NumThreads() helper threads, parked until a call wakes
/// them. When the process's affinity mask holds exactly NumThreads() CPUs
/// (CAMAL_THREADS unset, or set to the mask's size), helper i is pinned to
/// the mask's i-th CPU, and a call wakes only parked helpers off its own
/// CPU, so a woken helper starts at once on another core instead of
/// queueing behind its waker. With any other mask (CAMAL_THREADS above or
/// below the allowed CPUs) or where pinning fails, helpers stay unpinned,
/// any parked one may be woken, and the scheduler places them. A chunk no
/// helper claims runs on the caller.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& body);

/// Chunked variant: body(chunk_begin, chunk_end) per worker. Use when per-
/// iteration work is tiny and loop overhead matters (e.g. elementwise ops).
/// Rethrows a body's exception as ParallelFor does.
void ParallelForChunked(
    int64_t begin, int64_t end,
    const std::function<void(int64_t, int64_t)>& body);

/// Capped fan-out of independent work: runs body(lane) once for each lane
/// in [0, min(\p lanes, NumThreads())), never more than that many at
/// once, the calling thread taking lanes itself alongside the parked pool
/// helpers it wakes (pinned ones off the caller's CPU, see ParallelFor).
/// Lanes usually share a work cursor, so a lane no helper reaches in time
/// costs nothing. Unlike ParallelFor it ignores the caller's
/// ParallelBudgetScope: a thread pinned to budget 1 (a serve::Service
/// worker) can still hand work to cores it knows are idle.
/// Each body runs as a pool chunk (budget 1, so nested loops run inline).
/// When that leaves one lane (one asked for, or CAMAL_THREADS=1), or the
/// caller is itself a pool chunk, the lanes run in turn on the calling
/// thread with its budget untouched. Blocks until every lane returns; the
/// first exception a lane throws is rethrown then, on the calling thread.
void ParallelLanes(int lanes, const std::function<void(int)>& body);

/// Pins the calling thread's parallelism budget for the lifetime of the
/// scope: ParallelFor/ParallelForChunked calls made from this thread fan
/// out to at most min(\p budget, NumThreads()) chunks (1 = run inline).
///
/// For long-lived threads that are NOT pool workers — serve::Service's
/// request workers — which would otherwise count as top-level callers and
/// fan every nested conv GEMM out to the whole pool, oversubscribing it
/// W-fold when W workers scan concurrently. Scopes must not be nested, nor
/// opened inside a parallel region.
class ParallelBudgetScope {
 public:
  explicit ParallelBudgetScope(int budget);
  ~ParallelBudgetScope();

  ParallelBudgetScope(const ParallelBudgetScope&) = delete;
  ParallelBudgetScope& operator=(const ParallelBudgetScope&) = delete;
};

namespace internal {

/// NumThreads()'s rule: \p env is CAMAL_THREADS' value (null when unset)
/// and \p cpus the CPUs the process may run on (0 when unknown, read as
/// 4).
int ThreadCount(const char* env, int cpus);

/// The pool's wake rule. Helper h sits on CPU \p helper_cpus[h] (−1 when
/// unpinned) and may be woken only while \p waiting[h]; \p caller_cpu is
/// the calling thread's CPU (−1 when unknown, matching nothing). Returns,
/// in helper order, up to \p chunks − 1 waiting helpers not on the
/// caller's CPU; unpinned helpers always qualify.
std::vector<int> PickHelpers(const std::vector<int>& helper_cpus,
                             const std::vector<bool>& waiting, int caller_cpu,
                             int64_t chunks);

}  // namespace internal

}  // namespace camal

#endif  // CAMAL_COMMON_PARALLEL_FOR_H_
