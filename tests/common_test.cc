#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/csv.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

namespace camal {
namespace {

// Force a multi-thread pool even on single-core machines so the pool's
// concurrency paths are exercised; an explicit CAMAL_THREADS (e.g. from
// CI) wins. Runs at static-init time, before the first NumThreads() call.
const bool kThreadsForced = [] {
  setenv("CAMAL_THREADS", "4", /*overwrite=*/0);
  return true;
}();

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad window");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad window");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad window");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
}

TEST(StatusTest, StatusCodeNameRoundTripsAllCodes) {
  // Exhaustive over the enum: all 8 codes carry unique, stable names
  // (never the "Unknown" fallback), and every non-OK code round-trips
  // code -> Status -> ToString with its name as the prefix. A StatusCode
  // added without a StatusCodeName entry fails the uniqueness count here
  // even if the switch's -Wswitch warning is missed.
  const std::pair<StatusCode, const char*> kCodes[] = {
      {StatusCode::kOk, "OK"},
      {StatusCode::kInvalidArgument, "InvalidArgument"},
      {StatusCode::kOutOfRange, "OutOfRange"},
      {StatusCode::kNotFound, "NotFound"},
      {StatusCode::kIoError, "IoError"},
      {StatusCode::kFailedPrecondition, "FailedPrecondition"},
      {StatusCode::kInternal, "Internal"},
      {StatusCode::kDeadlineExceeded, "DeadlineExceeded"},
  };
  constexpr size_t kNumCodes = sizeof(kCodes) / sizeof(kCodes[0]);
  static_assert(kNumCodes == 8, "keep this table exhaustive");
  std::set<std::string> names;
  for (const auto& [code, expected] : kCodes) {
    EXPECT_STREQ(StatusCodeName(code), expected);
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
    names.insert(StatusCodeName(code));
    if (code != StatusCode::kOk) {
      Status st(code, "detail");
      EXPECT_EQ(st.code(), code);
      EXPECT_EQ(st.ToString(), std::string(expected) + ": detail");
    }
  }
  EXPECT_EQ(names.size(), kNumCodes);  // names are pairwise distinct
}

TEST(StatusTest, DeadlineExceededHelper) {
  Status st = Status::DeadlineExceeded("request expired in queue");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(st.message(), "request expired in queue");
  EXPECT_EQ(st.ToString(), "DeadlineExceeded: request expired in queue");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (a.UniformInt(0, 1'000'000) != b.UniformInt(0, 1'000'000)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0) == 1 && seen.count(3) == 1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kTrials;
  const double var = sq / kTrials - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  // The fork advanced the parent; both continue to produce values.
  EXPECT_NO_FATAL_FAILURE(child.Uniform(0, 1));
  EXPECT_NO_FATAL_FAILURE(a.Uniform(0, 1));
}

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, 1000, [&](int64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  std::atomic<int> calls{0};
  ParallelFor(5, 5, [&](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, ChunkedCoversRange) {
  std::atomic<int64_t> total{0};
  ParallelForChunked(0, 10000, [&](int64_t b, int64_t e) {
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 10000);
}

TEST(ParallelForTest, NestedCallsStaySerial) {
  std::atomic<int64_t> total{0};
  ParallelFor(0, 8, [&](int64_t) {
    ParallelFor(0, 100, [&](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(ParallelForTest, ConcurrentTopLevelCallsAreSafe) {
  // Four independent threads each issue repeated top-level ParallelFor
  // calls against the shared pool; every call must see exactly its own
  // iterations (per-job completion tracking, no cross-talk).
  constexpr int kCallers = 4;
  constexpr int kReps = 20;
  constexpr int64_t kIters = 500;
  std::vector<std::atomic<int64_t>> totals(kCallers);
  for (auto& t : totals) t.store(0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&totals, c] {
      for (int rep = 0; rep < kReps; ++rep) {
        ParallelFor(0, kIters,
                    [&totals, c](int64_t) { totals[c].fetch_add(1); });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& t : totals) EXPECT_EQ(t.load(), kReps * kIters);
}

TEST(ParallelForTest, BudgetScopeWiderThanPoolStillCoversRanges) {
  // The scope clamps its budget to NumThreads(), so under CAMAL_THREADS=1
  // this runs inline instead of dispatching to a pool with no workers. A
  // fresh thread, because scopes must not nest.
  std::thread scoped([] {
    {
      ParallelBudgetScope budget(2);
      std::vector<std::atomic<int>> hits(1000);
      ParallelFor(0, 1000, [&](int64_t i) { hits[i].fetch_add(1); });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
      std::atomic<int64_t> nested{0};
      ParallelFor(0, 8, [&](int64_t) {
        ParallelFor(0, 100, [&](int64_t) { nested.fetch_add(1); });
      });
      EXPECT_EQ(nested.load(), 800);
    }
    // After the scope the thread is a top-level caller again.
    std::atomic<int64_t> total{0};
    ParallelFor(0, 1000, [&](int64_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 1000);
  });
  scoped.join();
}

// Runs \p lanes lanes from the calling thread that each wait at a
// barrier, with a timeout, until every lane has arrived, and returns how
// many saw the full count. Lanes run one after another would each give
// up short of it. \p body, when given, runs in each lane before it
// leaves the barrier.
int LanesThatMeet(int lanes, const std::function<void(int)>& body = {}) {
  std::atomic<int> arrived{0};
  std::atomic<int> met{0};
  ParallelLanes(lanes, [&](int lane) {
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < lanes &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (arrived.load() == lanes) met.fetch_add(1);
    if (body) body(lane);
  });
  return met.load();
}

TEST(ParallelForTest, ThrowingBodyRethrowsAndLeavesThePoolServing) {
  // A fresh thread, so its budget starts at the top level: the throw must
  // come back out of ParallelFor (not end a helper thread), and leave both
  // this thread's budget and the pool's job queue as they were.
  const int lanes = NumThreads();
  std::thread thrower([lanes] {
    const auto fail = [](int64_t) -> void {
      throw std::runtime_error("body failed");
    };
    EXPECT_THROW(ParallelFor(0, 1000, fail), std::runtime_error);
    // Still a top-level caller: its lanes fan out again and meet.
    if (lanes >= 2) {
      EXPECT_EQ(LanesThatMeet(lanes), lanes);
    }
  });
  thrower.join();
  std::thread other([] {
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(0, 1000, [&](int64_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  });
  other.join();
}

TEST(NumThreadsTest, CountsAllowedCpusUnlessCamalThreadsIsSet) {
  // internal::ThreadCount(CAMAL_THREADS, CPUs in the affinity mask) is
  // NumThreads()'s rule; this suite forces CAMAL_THREADS, so the default
  // is only observable through the rule.
  struct Case {
    const char* env;
    int cpus;
    int want;
  };
  const Case cases[] = {
      // Unset: the CPUs allowed, at most 32; 0 (unknown) reads as 4.
      {nullptr, 1, 1},
      {nullptr, 2, 2},
      {nullptr, 4, 4},
      {nullptr, 64, 32},
      {nullptr, 0, 4},
      // A positive value wins whatever the mask, up to 64.
      {"1", 4, 1},
      {"4", 1, 4},
      {"4", 2, 4},
      {"4", 64, 4},
      {"100", 2, 64},
      {"100", 4, 64},
      // Zero or not a number reads as unset.
      {"0", 1, 1},
      {"0", 2, 2},
      {"0", 64, 32},
      {"abc", 2, 2},
      {"abc", 4, 4},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(internal::ThreadCount(c.env, c.cpus), c.want)
        << "CAMAL_THREADS=" << (c.env == nullptr ? "(unset)" : c.env)
        << " cpus " << c.cpus;
  }
}

TEST(PoolWakeRuleTest, KeepsItsRulesOverEverySmallPool) {
  // Every parked set, caller CPU (0-2, or unknown) and chunk count over
  // three helpers, pinned or not: the first parked helpers off the
  // caller's CPU, in helper order, at most chunks - 1 of them.
  using internal::PickHelpers;
  const std::vector<int> layouts[] = {{0, 1, 2}, {-1, -1, -1}, {2, -1, 0}};
  for (const std::vector<int>& cpus : layouts) {
    for (int parked = 0; parked < 8; ++parked) {
      std::vector<bool> waiting(3);
      for (int h = 0; h < 3; ++h) waiting[h] = ((parked >> h) & 1) != 0;
      for (int caller = -1; caller < 3; ++caller) {
        std::vector<int> eligible;
        for (int h = 0; h < 3; ++h) {
          const bool on_caller = cpus[h] >= 0 && cpus[h] == caller;
          if (waiting[h] && !on_caller) eligible.push_back(h);
        }
        for (int64_t chunks = 1; chunks <= 5; ++chunks) {
          const int64_t want = std::min<int64_t>(
              chunks - 1, static_cast<int64_t>(eligible.size()));
          EXPECT_EQ(PickHelpers(cpus, waiting, caller, chunks),
                    std::vector<int>(eligible.begin(), eligible.begin() + want))
              << "parked " << parked << " caller " << caller << " chunks "
              << chunks;
        }
      }
    }
  }
}

// Busy-waits for \p us microseconds, so lanes of one job overlap when
// helpers are free.
void Linger(int us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) std::this_thread::yield();
}

TEST(ParallelLanesTest, NeverRunsMoreBodiesThanLanes) {
  // Many jobs from a budget-1 thread, a service worker's setting: each
  // runs lanes [0, min(lanes, NumThreads())) once, and an atomic
  // high-water mark never sees more bodies at once than that.
  std::thread scoped([] {
    ParallelBudgetScope budget(1);
    for (int lanes = 1; lanes <= 5; ++lanes) {
      const int width = std::min(lanes, NumThreads());
      std::atomic<int> active{0};
      std::atomic<int> peak{0};
      for (int job = 0; job < 40; ++job) {
        std::vector<std::atomic<int>> ran(static_cast<size_t>(lanes));
        ParallelLanes(lanes, [&](int lane) {
          const int now = active.fetch_add(1) + 1;
          for (int seen = peak.load(); now > seen;) {
            if (peak.compare_exchange_weak(seen, now)) break;
          }
          ran[static_cast<size_t>(lane)].fetch_add(1);
          Linger(100);
          active.fetch_sub(1);
        });
        for (int lane = 0; lane < lanes; ++lane) {
          EXPECT_EQ(ran[static_cast<size_t>(lane)].load(), lane < width ? 1 : 0)
              << "lanes " << lanes << " lane " << lane;
        }
      }
      EXPECT_LE(peak.load(), width) << "lanes " << lanes;
    }
  });
  scoped.join();
}

TEST(ParallelLanesTest, LanesRunAtTheSameTime) {
  // The budget-1 thread's lanes must all be running at once.
  const int lanes = NumThreads();
  if (lanes < 2) GTEST_SKIP() << "CAMAL_THREADS=1: lanes run in turn";
  std::thread scoped([lanes] {
    ParallelBudgetScope budget(1);
    EXPECT_EQ(LanesThatMeet(lanes), lanes);
  });
  scoped.join();
}

#if defined(__linux__)
// The calling thread's affinity mask, ascending.
std::vector<int> AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

// Runs \p lanes lanes that meet at a barrier from a budget-1 thread and
// returns the affinity masks seen by the lanes that ran off that thread.
std::vector<std::vector<int>> HelperLaneMasks(int lanes) {
  std::vector<std::vector<int>> helper_masks;
  std::thread scoped([lanes, &helper_masks] {
    ParallelBudgetScope budget(1);
    const std::thread::id self = std::this_thread::get_id();
    std::vector<std::vector<int>> masks(static_cast<size_t>(lanes));
    std::vector<char> off_thread(static_cast<size_t>(lanes), 0);
    const auto record = [&](int lane) {
      const size_t l = static_cast<size_t>(lane);
      off_thread[l] = std::this_thread::get_id() != self;
      masks[l] = AffinityCpus();
    };
    EXPECT_EQ(LanesThatMeet(lanes, record), lanes);
    for (size_t l = 0; l < masks.size(); ++l) {
      if (off_thread[l] != 0) helper_masks.push_back(masks[l]);
    }
  });
  scoped.join();
  return helper_masks;
}
#endif

TEST(ParallelLanesTest, HelperLanesRunPinnedOnDistinctCpus) {
  // With one pool helper per CPU in the process mask, each helper is
  // pinned to its own CPU: a lane that runs off the calling thread sees a
  // one-CPU mask, and lanes that overlap on distinct helpers see
  // distinct CPUs.
#if defined(__linux__)
  const int lanes = NumThreads();
  if (lanes < 2) GTEST_SKIP() << "CAMAL_THREADS=1: no pool helpers";
  if (static_cast<int>(AffinityCpus().size()) != lanes) {
    GTEST_SKIP() << "CPUs allowed differ from pool helpers: none pinned";
  }
  const std::vector<std::vector<int>> masks = HelperLaneMasks(lanes);
  ASSERT_EQ(static_cast<int>(masks.size()), lanes - 1);
  std::set<int> cpus;
  for (const std::vector<int>& mask : masks) {
    ASSERT_EQ(mask.size(), 1u);
    cpus.insert(mask[0]);
  }
  EXPECT_EQ(cpus.size(), masks.size());
#else
  GTEST_SKIP() << "helpers are pinned on Linux only";
#endif
}

TEST(ParallelLanesTest, HelpersStayUnpinnedUnlessTheyCoverTheMask) {
  // A pool narrowed below the process mask (CAMAL_THREADS=2 on four CPUs)
  // or widened above it leaves its helpers to the scheduler: a lane that
  // runs off the calling thread sees the whole mask.
#if defined(__linux__)
  const int lanes = NumThreads();
  if (lanes < 2) GTEST_SKIP() << "CAMAL_THREADS=1: no pool helpers";
  const std::vector<int> allowed = AffinityCpus();
  if (static_cast<int>(allowed.size()) == lanes) {
    GTEST_SKIP() << "one pool helper per CPU allowed: pinned";
  }
  const std::vector<std::vector<int>> masks = HelperLaneMasks(lanes);
  ASSERT_EQ(static_cast<int>(masks.size()), lanes - 1);
  for (const std::vector<int>& mask : masks) EXPECT_EQ(mask, allowed);
#else
  GTEST_SKIP() << "helpers are pinned on Linux only";
#endif
}

TEST(ParallelLanesTest, RunsInlineInsideAPoolChunk) {
  // Lanes started inside a parallel region run in turn on the chunk's own
  // thread: no nested hand-off, so no deadlock and no oversubscription.
  // Two outer chunks leave the rest of the pool idle and every lane
  // lingers, so a nested hand-off would show up as a lane run elsewhere.
  std::atomic<int> bodies{0};
  std::atomic<int> off_thread{0};
  ParallelFor(0, 2, [&](int64_t) {
    const std::thread::id self = std::this_thread::get_id();
    std::atomic<int> active{0};
    ParallelLanes(3, [&](int) {
      if (std::this_thread::get_id() != self) off_thread.fetch_add(1);
      EXPECT_EQ(active.fetch_add(1), 0);
      Linger(2000);
      bodies.fetch_add(1);
      active.fetch_sub(1);
    });
  });
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_EQ(bodies.load(), 2 * std::min(3, NumThreads()));
}

TEST(ParallelLanesTest, OneThreadRunsOneLaneOnTheCaller) {
  // CAMAL_THREADS=1, as CI's serial step runs this suite, caps a fan-out
  // at one lane on the calling thread; one lane asked for is inline
  // whatever the pool.
  const std::thread::id self = std::this_thread::get_id();
  std::atomic<int> bodies{0};
  std::atomic<int> off_thread{0};
  const auto body = [&](int) {
    if (std::this_thread::get_id() != self) off_thread.fetch_add(1);
    bodies.fetch_add(1);
  };
  ParallelLanes(1, body);
  EXPECT_EQ(bodies.load(), 1);
  EXPECT_EQ(off_thread.load(), 0);
  ParallelLanes(4, body);
  EXPECT_EQ(bodies.load(), 1 + std::min(4, NumThreads()));
  if (NumThreads() == 1) {
    EXPECT_EQ(off_thread.load(), 0);
  }
}

TEST(ParallelLanesTest, RethrowsALaneExceptionOnTheCaller) {
  // A throw on a pool thread must reach the caller after every lane has
  // returned, and leave the pool serving.
  const int width = std::min(3, NumThreads());
  std::atomic<int> bodies{0};
  const auto body = [&](int lane) {
    bodies.fetch_add(1);
    Linger(100);
    if (lane == width - 1) throw std::runtime_error("lane failed");
  };
  EXPECT_THROW(ParallelLanes(3, body), std::runtime_error);
  EXPECT_EQ(bodies.load(), width);
  std::atomic<int64_t> total{0};
  ParallelFor(0, 1000, [&](int64_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 1000);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch w;
  double t1 = w.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  w.Restart();
  EXPECT_LT(w.ElapsedSeconds(), 1.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"A", "LongHeader"});
  t.AddRow({"xx", "1"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("| A  | LongHeader |"), std::string::npos);
  EXPECT_NE(out.find("| xx | 1          |"), std::string::npos);
}

TEST(TablePrinterTest, FmtHelpers) {
  EXPECT_EQ(Fmt(0.5444, 2), "0.54");
  EXPECT_EQ(Fmt(1.0, 0), "1");
  EXPECT_EQ(FmtInt(123456), "123456");
}

TEST(CsvTest, RoundTripWithQuoting) {
  CsvWriter w("/tmp/camal_csv_test.csv");
  w.AddRow({"a", "b,with,commas", "c\"quoted\""});
  w.AddRow({"1", "2", "3"});
  ASSERT_TRUE(w.Write().ok());
  const std::string text = w.ToString();
  auto parsed = ParseCsv(text);
  ASSERT_TRUE(parsed.ok());
  const auto& rows = parsed.value();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "b,with,commas");
  EXPECT_EQ(rows[0][2], "c\"quoted\"");
  EXPECT_EQ(rows[1][2], "3");
}

TEST(CsvTest, ParseRejectsUnterminatedQuote) {
  auto parsed = ParseCsv("\"abc");
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, WriteFailsForBadPath) {
  CsvWriter w("/nonexistent_dir/x.csv");
  w.AddRow({"a"});
  EXPECT_EQ(w.Write().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace camal
