#ifndef CAMAL_COMMON_PARALLEL_FOR_H_
#define CAMAL_COMMON_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

namespace camal {

/// Returns the worker count used by the parallel-for pool: the
/// CAMAL_THREADS environment variable when it is set to a positive
/// integer (clamped to at most 64; CAMAL_THREADS=1 forces serial
/// execution everywhere), otherwise the hardware concurrency clamped to
/// [1, 32].
int NumThreads();

/// Runs body(i) for i in [begin, end) across the process-wide thread pool.
///
/// Iterations are split into contiguous chunks that the pool's workers and
/// the calling thread claim dynamically. The call blocks until all
/// iterations finish. `body` must be safe to invoke concurrently on
/// disjoint indices. Serial when (end - begin) is small or the calling
/// thread's budget is one thread.
///
/// The pool is re-entrant: concurrent top-level calls from different
/// threads are safe, and a call nested inside a parallel region runs
/// inline on the calling thread — it never deadlocks and never
/// oversubscribes the thread budget.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& body);

/// Chunked variant: body(chunk_begin, chunk_end) per worker. Use when per-
/// iteration work is tiny and loop overhead matters (e.g. elementwise ops).
void ParallelForChunked(
    int64_t begin, int64_t end,
    const std::function<void(int64_t, int64_t)>& body);

/// Capped fan-out of independent work: runs body(lane) once for each lane
/// in [0, min(\p lanes, NumThreads())), never more than that many at
/// once, the calling thread taking lanes itself alongside whichever pool
/// workers are free. Lanes usually share a work cursor, so a lane no
/// helper reaches in time costs nothing. Unlike ParallelFor it ignores
/// the caller's ParallelBudgetScope: a thread pinned to budget 1 (a
/// serve::Service worker) can still hand work to cores it knows are idle.
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

}  // namespace camal

#endif  // CAMAL_COMMON_PARALLEL_FOR_H_
