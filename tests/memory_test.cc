// Deterministic memory gate for serving passes. This binary replaces the
// global operator new and delete (every plain, array, nothrow, sized and
// aligned form) with counting ones, so it runs alone: no other suite sees
// the counters. Every pass runs at spare 0 (Scan, AppendScan and Localize
// default to it) under a budget of one thread, so the counts repeat
// exactly from run to run.
//
//   ./build/memory_test
//
// It skips under sanitizers, which bring their own allocators.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/ensemble.h"
#include "core/localizer.h"
#include "core/resnet.h"
#include "serve/batch_runner.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CAMAL_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CAMAL_TEST_SANITIZED 1
#endif
#endif

namespace {

std::atomic<int64_t> g_live{0};  // bytes handed out and not yet freed
std::atomic<int64_t> g_peak{0};  // most g_live has been since PeakRise began

#if !defined(CAMAL_TEST_SANITIZED)

// Each block carries its size in a header as wide as its alignment (at
// least malloc's 16 bytes), so every delete form can uncount it.
constexpr size_t kHeader = 16;

void* Allocate(size_t size, size_t align, bool nothrow) {
  const size_t header = std::max(align, kHeader);
  const size_t total = (header + size + header - 1) / header * header;
  void* base = align <= kHeader ? std::malloc(total)
                                : std::aligned_alloc(align, total);
  if (base == nullptr) {
    if (nothrow) return nullptr;
    throw std::bad_alloc();
  }
  char* block = static_cast<char*>(base) + header;
  reinterpret_cast<size_t*>(block)[-1] = size;
  const auto bytes = static_cast<int64_t>(size);
  const int64_t live = g_live.fetch_add(bytes) + bytes;
  int64_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return block;
}

void Free(void* block, size_t align) {
  if (block == nullptr) return;
  const size_t header = std::max(align, kHeader);
  g_live.fetch_sub(
      static_cast<int64_t>(reinterpret_cast<size_t*>(block)[-1]));
  std::free(static_cast<char*>(block) - header);
}

#endif  // !CAMAL_TEST_SANITIZED

}  // namespace

#if !defined(CAMAL_TEST_SANITIZED)

void* operator new(size_t size) { return Allocate(size, kHeader, false); }
void* operator new[](size_t size) { return Allocate(size, kHeader, false); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, kHeader, true);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, kHeader, true);
}
void* operator new(size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<size_t>(align), false);
}
void* operator new[](size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<size_t>(align), false);
}
void* operator new(size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<size_t>(align), true);
}
void* operator new[](size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<size_t>(align), true);
}

void operator delete(void* p) noexcept { Free(p, kHeader); }
void operator delete[](void* p) noexcept { Free(p, kHeader); }
void operator delete(void* p, size_t) noexcept { Free(p, kHeader); }
void operator delete[](void* p, size_t) noexcept { Free(p, kHeader); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  Free(p, kHeader);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Free(p, kHeader);
}
void operator delete(void* p, std::align_val_t align) noexcept {
  Free(p, static_cast<size_t>(align));
}
void operator delete[](void* p, std::align_val_t align) noexcept {
  Free(p, static_cast<size_t>(align));
}
void operator delete(void* p, size_t, std::align_val_t align) noexcept {
  Free(p, static_cast<size_t>(align));
}
void operator delete[](void* p, size_t, std::align_val_t align) noexcept {
  Free(p, static_cast<size_t>(align));
}
void operator delete(void* p, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  Free(p, static_cast<size_t>(align));
}
void operator delete[](void* p, std::align_val_t align,
                       const std::nothrow_t&) noexcept {
  Free(p, static_cast<size_t>(align));
}

#endif  // !CAMAL_TEST_SANITIZED

namespace camal {
namespace {

#define CAMAL_SKIP_UNDER_SANITIZERS()                                        \
  do {                                                                       \
    if (kSanitized) {                                                        \
      GTEST_SKIP() << "counting operator new is off under sanitizers, "      \
                      "which replace the allocator";                         \
    }                                                                        \
  } while (0)

#if defined(CAMAL_TEST_SANITIZED)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

// The served geometry: 128-reading windows at stride 64, batches of 32.
constexpr int64_t kWindow = 128;
constexpr int64_t kStride = 64;
constexpr int64_t kBatch = 32;

/// Three ResNet members with kernels {5, 9, 15}, \p filters wide.
core::CamalEnsemble Ensemble(int64_t filters) {
  Rng rng(7);
  std::vector<core::EnsembleMember> members;
  for (int64_t k : {5, 9, 15}) {
    core::ResNetConfig config;
    config.base_filters = filters;
    config.kernel_size = k;
    core::EnsembleMember member;
    member.model = std::make_unique<core::ResNetClassifier>(config, &rng);
    member.kernel_size = k;
    members.push_back(std::move(member));
  }
  return core::CamalEnsemble::FromMembers(std::move(members));
}

serve::BatchRunnerOptions ServedOptions() {
  serve::BatchRunnerOptions options;
  options.stream.window_length = kWindow;
  options.stream.stride = kStride;
  options.stream.batch_size = kBatch;
  options.appliance_avg_power_w = 700.0f;
  return options;
}

std::vector<float> Series(int64_t len) {
  Rng rng(static_cast<uint64_t>(len));
  std::vector<float> series(static_cast<size_t>(len));
  for (auto& v : series) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
  return series;
}

/// Peak live bytes of \p pass over what was live before it, with the
/// pass's own retained state (a fresh runner's scratch) included.
template <typename Pass>
int64_t PeakRise(Pass pass) {
  const int64_t before = g_live.load();
  g_peak.store(before);
  pass();
  return g_peak.load() - before;
}

/// Bytes per reading the peak rises by from \p short_len to \p long_len
/// readings, each measured by \p rise.
template <typename Rise>
double Slope(int64_t short_len, int64_t long_len, Rise rise) {
  const int64_t a = rise(short_len);
  const int64_t b = rise(long_len);
  std::printf("  peak rise: %lld B at %lld readings, %lld B at %lld\n",
              static_cast<long long>(a), static_cast<long long>(short_len),
              static_cast<long long>(b), static_cast<long long>(long_len));
  return static_cast<double>(b - a) /
         static_cast<double>(long_len - short_len);
}

constexpr int64_t kShort = 64 * 1024 + 37;  // a tail window too
constexpr int64_t kLong = 256 * 1024 + 37;

TEST(ScanMemoryTest, OneShotScanHoldsTheResultPlusWindowScratch) {
  CAMAL_SKIP_UNDER_SANITIZERS();
  // A one-shot scan's peak, retained scratch included, rises by at most
  // the 12 B/reading result (detection, status, power) plus its window
  // refs (16 B per 64-reading window): its votes live in a few windows'
  // slots, not in series-long accumulators.
  ParallelBudgetScope one_thread(1);
  const core::CamalEnsemble ensemble = Ensemble(4);
  // Warm this thread's activation arena at full batches.
  serve::BatchRunner(&ensemble, ServedOptions()).Scan(Series(4096));
  const double slope = Slope(kShort, kLong, [&](int64_t len) {
    const std::vector<float> series = Series(len);
    return PeakRise([&] {
      serve::BatchRunner runner(&ensemble, ServedOptions());
      const serve::ScanResult result = runner.Scan(series);
      ASSERT_EQ(result.detection.numel(), len);
    });
  });
  std::printf("  one-shot scan: %.3f B/reading\n", slope);
  EXPECT_LE(slope, 12.5);
}

TEST(ScanMemoryTest, SessionPrefillHoldsSeriesAndResultPlusWindowScratch) {
  CAMAL_SKIP_UNDER_SANITIZERS();
  // A session's long first append commits the delta to its series (4 B a
  // reading) and returns the 12 B/reading result; its accumulators stay
  // a few windows long while it votes, and one window long after.
  ParallelBudgetScope one_thread(1);
  const core::CamalEnsemble ensemble = Ensemble(4);
  serve::BatchRunner(&ensemble, ServedOptions()).Scan(Series(4096));
  const double slope = Slope(kShort, kLong, [&](int64_t len) {
    const std::vector<float> delta = Series(len);
    return PeakRise([&] {
      serve::BatchRunner runner(&ensemble, ServedOptions());
      serve::SessionScanState state;
      const serve::ScanResult result = runner.AppendScan(&state, delta);
      ASSERT_EQ(result.detection.numel(), len);
      ASSERT_EQ(state.prob_sum.size(), static_cast<size_t>(kWindow));
    });
  });
  std::printf("  session prefill: %.3f B/reading\n", slope);
  EXPECT_LE(slope, 16.5);
}

TEST(LocalizeMemoryTest, WarmLocalizeRetainsArenaSlotsNotMemberMaps) {
  CAMAL_SKIP_UNDER_SANITIZERS();
  // After warm-up a batch-32 Localize of three f=16 members retains its
  // thread's activation arena (at most three slots of (32, 2f, 128)
  // floats) and O(batch * l) besides: per-member CAMs, not per-member
  // feature maps. A fresh thread starts with an empty arena, so the
  // arena is counted.
  constexpr int64_t kFilters = 16;
  const core::CamalEnsemble ensemble = Ensemble(kFilters);
  Rng rng(11);
  nn::Tensor x({kBatch, 1, kWindow});
  for (int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.Uniform(0.0, 3.0));
  }
  int64_t retained = 0;
  std::thread fresh([&] {
    ParallelBudgetScope one_thread(1);
    const int64_t before = g_live.load();
    core::CamalLocalizer localizer(&ensemble);
    for (int i = 0; i < 3; ++i) localizer.Localize(x);
    retained = g_live.load() - before;
  });
  fresh.join();
  const int64_t slot = kBatch * 2 * kFilters * kWindow * 4;
  const int64_t rows = kBatch * kWindow * 4;
  std::printf("  warm Localize retains %lld B (slot %lld B, rows %lld B)\n",
              static_cast<long long>(retained), static_cast<long long>(slot),
              static_cast<long long>(rows));
  EXPECT_LE(retained, 3 * slot + 8 * rows);
}

}  // namespace
}  // namespace camal
