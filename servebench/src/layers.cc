#include "layers.h"

#include <immintrin.h>

#include <algorithm>
#include <random>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/localizer.h"
#include "core/model_io.h"
#include "core/resnet.h"
#include "serve/window_stream.h"

namespace servebench {
namespace {

using camal::data::SeriesView;
using camal::nn::Tensor;
using camal::serve::MultiWindowStream;
using camal::serve::WindowRef;

constexpr int kForwardReps = 20;
constexpr int kPairReps = 5;

/// Times every NextBatch and Localize of \p stream under span \p parent.
void FeedParts(MultiWindowStream* stream,
               camal::core::CamalLocalizer* localizer, Tracer* tracer,
               int32_t parent, int64_t request) {
  Tensor batch;
  std::vector<WindowRef> refs;
  for (;;) {
    int64_t windows = 0;
    {
      ScopedSpan fill(tracer, "serve.MultiWindowStream::NextBatch", parent,
                      request);
      windows = stream->NextBatch(&batch, &refs);
      fill.Arg("windows", static_cast<double>(windows));
    }
    if (windows == 0) break;
    ScopedSpan localize(tracer, "core.CamalLocalizer::Localize", parent,
                        request);
    const camal::core::LocalizationResult result = localizer->Localize(batch);
    localize.Arg("windows", static_cast<double>(result.probabilities.numel()));
  }
}

/// Window offsets a scan of \p len readings feeds: the stride grid plus
/// an end-aligned tail when the grid leaves readings uncovered.
std::vector<int64_t> WindowOffsets(int64_t len, int64_t window,
                                   int64_t stride) {
  std::vector<int64_t> offsets;
  for (int64_t o = 0; o + window <= len; o += stride) offsets.push_back(o);
  if (len >= window && (len - window) % stride != 0) {
    offsets.push_back(len - window);
  }
  return offsets;
}

/// Sum of the child span durations of span \p parent.
double ChildSeconds(const Tracer& tracer, int32_t parent) {
  double total = 0.0;
  for (const char* name : {"serve.MultiWindowStream::NextBatch",
                           "core.CamalLocalizer::Localize"}) {
    for (double s : tracer.Seconds(name, parent)) total += s;
  }
  return total;
}

/// Analytic conv FLOPs of one ResNet member forward: three residual units
/// with filters {f, 2f, 2f} and kernels {k, 5, 3}, 1x1 shortcuts where the
/// width changes, stride 1 and same padding.
double ResNetConvFlops(int64_t f, int64_t k, int64_t length, int64_t batch) {
  const double ff = static_cast<double>(f);
  const double macs_per_step =
      ff * static_cast<double>(k + 1) +
      ff * ff * static_cast<double>(74 + 6 * k);
  return 2.0 * macs_per_step * static_cast<double>(length) *
         static_cast<double>(batch);
}

Tensor RandomInput(int64_t batch, int64_t length, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(0.0f, 3.0f);
  Tensor x({batch, 1, length});
  for (int64_t i = 0; i < x.numel(); ++i) x.data()[i] = dist(rng);
  return x;
}

// FMA peak loops, compiled for their ISA by function attribute so the
// repository's build flags stay untouched. Independent accumulators cover
// the FMA latency on every port; they are named variables (an array would
// live in memory) and an empty asm per iteration pins them in registers
// and stops the compiler from interchanging or folding iterations.
#define SERVEBENCH_ACC12(X) \
  X(0) X(1) X(2) X(3) X(4) X(5) X(6) X(7) X(8) X(9) X(10) X(11)
#define SERVEBENCH_ACC12_HI(X) \
  X(12) X(13) X(14) X(15) X(16) X(17) X(18) X(19) X(20) X(21) X(22) X(23)
#define SERVEBENCH_ACC24(X) SERVEBENCH_ACC12(X) SERVEBENCH_ACC12_HI(X)

__attribute__((target("avx512f"))) float FmaLoopAvx512(int64_t iters,
                                                        double* flops) {
#define DECLARE(j) __m512 acc##j = _mm512_set1_ps(0.001f * (j));
#define UPDATE(j) acc##j = _mm512_fmadd_ps(acc##j, a, b);
#define PIN(j) "+v"(acc##j),
#define SUM(j) sum = _mm512_add_ps(sum, acc##j);
  SERVEBENCH_ACC24(DECLARE)
  const __m512 a = _mm512_set1_ps(0.9999f);
  const __m512 b = _mm512_set1_ps(1e-4f);
  for (int64_t i = 0; i < iters; ++i) {
    SERVEBENCH_ACC24(UPDATE)
    // An asm statement takes at most 30 operands; "+" counts twice.
    asm volatile("" : SERVEBENCH_ACC12(PIN) "+r"(i));
    asm volatile("" : SERVEBENCH_ACC12_HI(PIN) "+r"(i));
  }
  __m512 sum = _mm512_setzero_ps();
  SERVEBENCH_ACC24(SUM)
#undef DECLARE
#undef UPDATE
#undef PIN
#undef SUM
  float lanes[16];
  _mm512_storeu_ps(lanes, sum);
  *flops = 2.0 * 16.0 * 24.0 * static_cast<double>(iters);
  float total = 0.0f;
  for (float v : lanes) total += v;
  return total;
}

__attribute__((target("avx2,fma"))) float FmaLoopAvx2(int64_t iters,
                                                       double* flops) {
#define DECLARE(j) __m256 acc##j = _mm256_set1_ps(0.001f * (j));
#define UPDATE(j) acc##j = _mm256_fmadd_ps(acc##j, a, b);
#define PIN(j) "+x"(acc##j),
#define SUM(j) sum = _mm256_add_ps(sum, acc##j);
  SERVEBENCH_ACC12(DECLARE)
  const __m256 a = _mm256_set1_ps(0.9999f);
  const __m256 b = _mm256_set1_ps(1e-4f);
  for (int64_t i = 0; i < iters; ++i) {
    SERVEBENCH_ACC12(UPDATE)
    asm volatile("" : SERVEBENCH_ACC12(PIN) "+r"(i));
  }
  __m256 sum = _mm256_setzero_ps();
  SERVEBENCH_ACC12(SUM)
#undef DECLARE
#undef UPDATE
#undef PIN
#undef SUM
  float lanes[8];
  _mm256_storeu_ps(lanes, sum);
  *flops = 2.0 * 8.0 * 12.0 * static_cast<double>(iters);
  float total = 0.0f;
  for (float v : lanes) total += v;
  return total;
}

#undef SERVEBENCH_ACC24
#undef SERVEBENCH_ACC12_HI
#undef SERVEBENCH_ACC12

float FmaLoopScalar(int64_t iters, double* flops) {
  constexpr int kAcc = 8;
  float acc[kAcc];
  for (int j = 0; j < kAcc; ++j) acc[j] = 0.001f * static_cast<float>(j);
  for (int64_t i = 0; i < iters; ++i) {
    for (float& v : acc) v = v * 0.9999f + 1e-4f;
  }
  *flops = 2.0 * kAcc * static_cast<double>(iters);
  float total = 0.0f;
  for (float v : acc) total += v;
  return total;
}

/// Median seconds of \p reps ForwardInference calls of \p model, each a
/// span carrying the call's analytic FLOPs.
double TimeForward(camal::core::ResNetClassifier* model, const Tensor& x,
                   double flops, int reps, const char* scale, Tracer* tracer) {
  model->ForwardInference(x);  // warm: scratch, pool threads
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span(tracer, scale);
    const double t0 = Now();
    const Tensor logits = model->ForwardInference(x);
    seconds.push_back(Now() - t0);
    span.Arg("flops", flops);
    Require(logits.numel() == x.dim(0) * 2, "unexpected logits shape");
  }
  return Median(seconds);
}

}  // namespace

std::vector<Metric> ReplayLayers(const ReplayInputs& in, Tracer* tracer) {
  Require(!in.scans.empty(), "replay needs at least one series");
  auto loaded = camal::core::LoadEnsemble(in.model_dir);
  Require(loaded.ok(), "LoadEnsemble: " + loaded.status().ToString());
  camal::core::CamalEnsemble ensemble = std::move(loaded).value();
  camal::serve::BatchRunner runner(&ensemble, in.runner);
  camal::core::CamalLocalizer localizer(&ensemble, in.runner.localizer);
  const camal::serve::WindowStreamOptions& stream = in.runner.stream;

  // The append history is committed at the full thread budget, untimed.
  camal::serve::SessionScanState state;
  runner.AppendScan(&state, in.history);
  std::vector<float> history(in.history.begin(), in.history.end());

  // From here on: one thread, like a service worker with one worker per
  // core.
  camal::ParallelBudgetScope budget(1);
  const int32_t root = tracer->Open("replay");
  runner.Scan(in.scans[0]);  // warm the runner's scratch

  // One-shot scans, and the same windows fed call by call. An overhead is
  // a small difference of two large timings, so the two sides alternate in
  // pairs and the metric is the median of the paired differences.
  std::vector<double> scan_overhead;
  for (size_t i = 0; i < in.scans.size(); ++i) {
    const auto request = static_cast<int64_t>(i);
    const SeriesView series = in.scans[i];
    // A series shorter than one window is scanned left-padded with zeros.
    std::vector<float> padded;
    SeriesView fed = series;
    if (series.size() < stream.window_length) {
      padded.assign(static_cast<size_t>(stream.window_length), 0.0f);
      std::copy(series.begin(), series.end(),
                padded.end() - static_cast<std::ptrdiff_t>(series.size()));
      fed = SeriesView(padded);
    }
    for (int r = 0; r < kPairReps; ++r) {
      double scan_seconds = 0.0;
      {
        ScopedSpan scan(tracer, "serve.BatchRunner::Scan", root, request);
        const double t0 = Now();
        runner.Scan(series);
        scan_seconds = Now() - t0;
      }
      ScopedSpan parts(tracer, "replay.scan_parts", root, request);
      MultiWindowStream windows({fed}, stream);
      FeedParts(&windows, &localizer, tracer, parts.id(), request);
      scan_overhead.push_back(scan_seconds - ChildSeconds(*tracer, parts.id()));
    }
  }
  double fill_seconds = 0.0, fill_windows = 0.0;
  for (const Span& span : tracer->Find("serve.MultiWindowStream::NextBatch")) {
    fill_seconds += span.seconds();
    fill_windows += span.arg("windows");
  }

  // The ensemble forward at a full batch and at batch 1, and Localize
  // (forward + CAM + attention) on the same full batch.
  Tensor full;
  {
    MultiWindowStream windows(in.scans, stream);
    std::vector<WindowRef> refs;
    windows.NextBatch(&full, &refs);
  }
  Tensor single({1, 1, stream.window_length});
  std::copy(full.data(), full.data() + stream.window_length, single.data());
  std::vector<double> forward, forward_b1, localize_extra;
  for (int r = 0; r < kForwardReps; ++r) {
    {
      ScopedSpan span(tracer, "core.CamalEnsemble::DetectProbabilityBatched",
                      root);
      const double t0 = Now();
      ensemble.DetectProbabilityBatched(full);
      forward.push_back(Now() - t0);
      span.Arg("batch", static_cast<double>(full.dim(0)));
    }
    {
      ScopedSpan span(tracer, "core.CamalEnsemble::DetectProbabilityBatched",
                      root);
      const double t0 = Now();
      ensemble.DetectProbabilityBatched(single);
      forward_b1.push_back(Now() - t0);
      span.Arg("batch", 1.0);
    }
    {
      ScopedSpan span(tracer, "core.CamalLocalizer::Localize", root);
      const double t0 = Now();
      localizer.Localize(full);
      localize_extra.push_back(Now() - t0 - forward.back());
      span.Arg("windows", static_cast<double>(full.dim(0)));
    }
  }

  // Appends at the workload's history, then the windows each one fed.
  std::vector<double> append, append_overhead;
  for (size_t a = 0; a < in.appends.size(); ++a) {
    const auto request = static_cast<int64_t>(a);
    int64_t fed = 0;
    double append_seconds = 0.0;
    {
      ScopedSpan span(tracer, "serve.BatchRunner::AppendScan", root, request);
      const double t0 = Now();
      fed = runner.AppendScan(&state, in.appends[a]).windows;
      append_seconds = Now() - t0;
      span.Arg("windows", static_cast<double>(fed));
    }
    history.insert(history.end(), in.appends[a].begin(), in.appends[a].end());
    const auto len = static_cast<int64_t>(history.size());
    // The windows an append feeds are the newest ones of the grown series.
    const std::vector<int64_t> offsets =
        WindowOffsets(len, stream.window_length, stream.stride);
    Require(fed <= static_cast<int64_t>(offsets.size()),
            "append fed more windows than the series has");
    std::vector<WindowRef> refs;
    for (size_t o = offsets.size() - static_cast<size_t>(fed);
         o < offsets.size(); ++o) {
      refs.push_back(WindowRef{0, offsets[o]});
    }
    ScopedSpan parts_span(tracer, "replay.append_parts", root, request);
    if (!refs.empty()) {
      MultiWindowStream windows({SeriesView(history)}, stream, std::move(refs));
      FeedParts(&windows, &localizer, tracer, parts_span.id(), request);
    }
    append.push_back(append_seconds);
  }
  const std::vector<Span> append_parts =
      tracer->Find("replay.append_parts", root);
  for (size_t a = 0; a < append_parts.size(); ++a) {
    append_overhead.push_back(append[a] -
                              ChildSeconds(*tracer, append_parts[a].id));
  }
  tracer->Close(root);

  return {
      {"serve.fill_us_per_window", fill_seconds / fill_windows * 1e6, "us"},
      {"serve.scan_overhead_ms", Median(scan_overhead) * 1e3, "ms"},
      {"serve.append_ms", Median(append) * 1e3, "ms"},
      {"serve.append_overhead_ms", Median(append_overhead) * 1e3, "ms"},
      {"core.forward_ms", Median(forward) * 1e3, "ms"},
      {"core.forward_b1_ms", Median(forward_b1) * 1e3, "ms"},
      {"core.localize_extra_ms", Median(localize_extra) * 1e3, "ms"},
  };
}

std::vector<Metric> MeasureKernels(Tracer* tracer) {
  // FMA peak of one thread: the best of a few repetitions.
  double peak = 0.0;
  float sink = 0.0f;
  const bool avx512 = __builtin_cpu_supports("avx512f");
  const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  for (int r = 0; r < 5; ++r) {
    ScopedSpan span(tracer, "nn.fma_loop");
    double flops = 0.0;
    const double t0 = Now();
    sink += avx512 ? FmaLoopAvx512(8'000'000, &flops)
            : avx2 ? FmaLoopAvx2(16'000'000, &flops)
                   : FmaLoopScalar(16'000'000, &flops);
    const double seconds = Now() - t0;
    span.Arg("flops", flops);
    peak = std::max(peak, flops / seconds / 1e9);
  }
  Require(sink > 0.0f, "FMA loop produced nothing");

  camal::Rng rng(17);
  // The served member's shape and a paper-scale member.
  camal::core::ResNetConfig served_config;
  served_config.base_filters = 16;
  served_config.kernel_size = 9;
  camal::core::ResNetClassifier served(served_config, &rng);
  served.SetTraining(false);
  camal::core::ResNetConfig paper_config;
  paper_config.base_filters = 64;
  paper_config.kernel_size = 7;
  camal::core::ResNetClassifier paper(paper_config, &rng);
  paper.SetTraining(false);
  const Tensor served_x = RandomInput(32, 128, 1);
  const Tensor paper_x = RandomInput(32, 512, 2);
  const double served_flops = ResNetConvFlops(16, 9, 128, 32);
  const double paper_flops = ResNetConvFlops(64, 7, 512, 32);

  // The calling thread at top level fans out to the whole pool.
  const double paper_4t =
      TimeForward(&paper, paper_x, paper_flops, 3,
                  "nn.ResNetClassifier::ForwardInference.paper_pool", tracer);
  double served_1t = 0.0, paper_1t = 0.0;
  {
    camal::ParallelBudgetScope budget(1);
    served_1t = TimeForward(&served, served_x, served_flops, kForwardReps,
                            "nn.ResNetClassifier::ForwardInference.served",
                            tracer);
    paper_1t = TimeForward(&paper, paper_x, paper_flops, 3,
                           "nn.ResNetClassifier::ForwardInference.paper",
                           tracer);
  }
  const double served_gflops = served_flops / served_1t / 1e9;
  const double paper_gflops = paper_flops / paper_1t / 1e9;
  return {
      {"nn.fma_peak_gflops", peak, "GFLOP/s"},
      {"nn.forward_gflops", served_gflops, "GFLOP/s"},
      {"nn.forward_peak_pct", 100.0 * served_gflops / peak, "%"},
      {"nn.paper_forward_gflops", paper_gflops, "GFLOP/s"},
      {"nn.paper_peak_pct", 100.0 * paper_gflops / peak, "%"},
      {"nn.paper_scaling_4t", paper_1t / paper_4t, "x"},
  };
}

}  // namespace servebench
