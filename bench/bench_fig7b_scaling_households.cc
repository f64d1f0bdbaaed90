// Reproduces Fig. 7(b): per-epoch training time versus the number of
// households, on synthetic white-noise data exactly as §V-H.3 describes
// (random consumption series with per-timestamp labels; strong baselines
// slice windows, weak methods consume whole sequences). Also measures the
// serving side of household scaling: end-to-end BatchRunner scans
// (detection + localization + power estimation) per household count,
// batched vs single-window.

#include <future>

#include "bench_common.h"
#include "common/parallel_for.h"
#include "common/stopwatch.h"
#include "core/resnet.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "serve/service.h"

namespace camal {
namespace {

// White-noise "household": one long series + random status labels.
data::WindowDataset WhiteNoiseWindows(int households, int64_t series_length,
                                      int64_t window, uint64_t seed) {
  Rng rng(seed);
  const int64_t per_house = series_length / window;
  const int64_t n = households * per_house;
  data::WindowDataset ds;
  ds.window_length = window;
  ds.appliance = {"noise", 300.0f, 800.0f};
  ds.inputs = nn::Tensor({n, 1, window});
  ds.status = nn::Tensor({n, window});
  ds.appliance_power = nn::Tensor({n, window});
  for (int64_t i = 0; i < n; ++i) {
    bool any = false;
    for (int64_t t = 0; t < window; ++t) {
      ds.inputs.at3(i, 0, t) = static_cast<float>(rng.Uniform(0.0, 1.0));
      const bool on = rng.Bernoulli(0.1);
      ds.status.at2(i, t) = on ? 1.0f : 0.0f;
      any = any || on;
    }
    ds.weak_labels.push_back(any ? 1 : 0);
    ds.house_ids.push_back(static_cast<int>(i / per_house));
  }
  return ds;
}

// One epoch of weak classifier training on whole sequences.
double CamalEpochSeconds(int households, int64_t series_length,
                         int64_t base_filters, uint64_t seed) {
  Rng rng(seed);
  core::ResNetConfig rc;
  rc.base_filters = base_filters;
  rc.kernel_size = 7;
  core::ResNetClassifier model(rc, &rng);
  nn::Adam adam(model.Parameters(), 1e-3f);
  // Whole-sequence input, one weak label per household; batch of 4 houses.
  Stopwatch watch;
  const int64_t batch = 4;
  for (int64_t begin = 0; begin < households; begin += batch) {
    const int64_t b = std::min<int64_t>(batch, households - begin);
    nn::Tensor x({b, 1, series_length});
    std::vector<int> labels;
    for (int64_t i = 0; i < b; ++i) {
      for (int64_t t = 0; t < series_length; ++t) {
        x.at3(i, 0, t) = static_cast<float>(rng.Uniform(0.0, 1.0));
      }
      labels.push_back(static_cast<int>(rng.UniformInt(0, 1)));
    }
    nn::Tensor logits = model.Forward(x);
    nn::LossResult loss = nn::SoftmaxCrossEntropy(logits, labels);
    adam.ZeroGrad();
    model.Backward(loss.grad);
    adam.Step();
  }
  return watch.ElapsedSeconds();
}

void Run() {
  bench::PrintHeader("Fig. 7(b) — per-epoch training time vs #households",
                     "Fig. 7(b) (scalability on synthetic white noise)");
  const eval::BenchParams params = eval::CurrentBenchParams();

  int64_t series_length = 1024;
  std::vector<int> household_counts = {2, 4, 8};
  if (params.mode == eval::BenchMode::kFull) {
    series_length = 17520;  // 30-min sampling for one year (the paper's)
    household_counts = {2, 4, 8, 16, 32};
  } else if (params.mode == eval::BenchMode::kSmoke) {
    series_length = 512;
    household_counts = {2, 4};
  }

  baselines::BaselineScale scale;
  scale.width = params.baseline_width;
  std::vector<baselines::BaselineKind> kinds = {
      baselines::BaselineKind::kCrnnWeak, baselines::BaselineKind::kTpnilm,
      baselines::BaselineKind::kBiGru};
  if (params.mode == eval::BenchMode::kFull) {
    kinds = baselines::AllBaselines();
  }

  TablePrinter table({"Method", "#Households", "Seconds/epoch"});
  std::vector<std::vector<std::string>> csv_rows{
      {"method", "households", "seconds_per_epoch"}};
  for (int h : household_counts) {
    // CamAL: one weak classifier over whole sequences (1 label/house).
    const double camal_s =
        CamalEpochSeconds(h, series_length, params.base_filters, 3);
    table.AddRow({"CamAL (1 ResNet, whole series)", FmtInt(h),
                  Fmt(camal_s, 3)});
    csv_rows.push_back({"CamAL", FmtInt(h), Fmt(camal_s, 4)});

    data::WindowDataset windows =
        WhiteNoiseWindows(h, series_length, params.window_length, 9);
    for (baselines::BaselineKind kind : kinds) {
      Rng rng(5);
      auto model = baselines::MakeBaseline(kind, scale, &rng);
      eval::TrainConfig one_epoch = params.train;
      one_epoch.max_epochs = 1;
      one_epoch.patience = 0;
      eval::TrainStats stats;
      if (baselines::IsWeaklySupervised(kind)) {
        stats = eval::TrainWeakMilModel(model.get(), windows, windows,
                                        one_epoch);
      } else {
        stats = eval::TrainStrongModel(model.get(), windows, windows,
                                       one_epoch);
      }
      table.AddRow({baselines::BaselineName(kind), FmtInt(h),
                    Fmt(stats.seconds_per_epoch, 3)});
      csv_rows.push_back({baselines::BaselineName(kind), FmtInt(h),
                          Fmt(stats.seconds_per_epoch, 4)});
    }
  }
  table.Print(stdout);
  bench::WriteCsv("fig7b_scaling_households", csv_rows);
  std::printf("\nShape check vs paper: CamAL's per-epoch cost grows with\n"
              "#households far more slowly than the strongly supervised\n"
              "sequence-to-sequence baselines (which train on every sliced\n"
              "window of every house).\n");

  // ------------------------------------------------------------------
  // Serving scalability: scan whole household series end to end through
  // the batched inference runtime (overlapping windows, ensemble
  // detection, CAM localization, power estimation) and through the same
  // pipeline one window at a time.
  // ------------------------------------------------------------------
  Rng member_rng(11);
  core::CamalEnsemble ensemble =
      bench::MakeBenchEnsemble({5, 7, 9}, params.base_filters, &member_rng);

  serve::BatchRunnerOptions batched_opt;
  batched_opt.stream.window_length = params.window_length;
  batched_opt.stream.stride = params.window_length / 2;
  batched_opt.stream.batch_size = 32;
  batched_opt.appliance_avg_power_w = 700.0f;
  serve::BatchRunnerOptions single_opt = batched_opt;
  single_opt.stream.batch_size = 1;
  serve::BatchRunner batched_runner(&ensemble, batched_opt);
  serve::BatchRunner single_runner(&ensemble, single_opt);

  TablePrinter serve_table(
      {"Serving mode", "#Households", "Windows/sec", "Households/sec"});
  std::vector<std::vector<std::string>> serve_csv{
      {"mode", "households", "windows_per_sec", "households_per_sec"}};
  for (int h : household_counts) {
    Rng series_rng(17);
    std::vector<std::vector<float>> cohort;
    cohort.reserve(static_cast<size_t>(h));
    for (int i = 0; i < h; ++i) {
      std::vector<float> series(static_cast<size_t>(series_length));
      for (auto& v : series) {
        v = static_cast<float>(series_rng.Uniform(0.0, 3000.0));
      }
      cohort.push_back(std::move(series));
    }
    for (bool batched : {false, true}) {
      serve::BatchRunner& runner = batched ? batched_runner : single_runner;
      runner.Scan(cohort.front());  // warm scratch + allocator
      Stopwatch watch;
      int64_t windows = 0;
      for (const auto& series : cohort) {
        windows += runner.Scan(series).windows;
      }
      const double seconds = watch.ElapsedSeconds();
      const double wps = seconds > 0.0 ? windows / seconds : 0.0;
      const double hps = seconds > 0.0 ? h / seconds : 0.0;
      serve_table.AddRow({batched ? "BatchRunner (batch 32)"
                                  : "BatchRunner (single-window)",
                          FmtInt(h), Fmt(wps, 1), Fmt(hps, 2)});
      serve_csv.push_back({batched ? "batched" : "single", FmtInt(h),
                           Fmt(wps, 2), Fmt(hps, 3)});
    }
  }
  std::printf("\nServing: end-to-end household scans (window=%lld, "
              "stride=%lld)\n",
              static_cast<long long>(batched_opt.stream.window_length),
              static_cast<long long>(batched_opt.stream.stride));
  serve_table.Print(stdout);
  bench::WriteCsv("fig7b_serving_households", serve_csv);

  // ------------------------------------------------------------------
  // Multi-core serving: households x worker-count scaling through the
  // async front-end. serve::Service feeds a worker pool (one BatchRunner
  // per worker, all over the one shared ensemble) from its admission
  // queue; the thread budget left over after the worker fan-out serves
  // the conv GEMMs inside each worker. Worker counts are capped by
  // CAMAL_THREADS — rerun with CAMAL_THREADS=4 (or more) to see the
  // multi-core speedup.
  // ------------------------------------------------------------------
  std::vector<int> worker_counts;
  for (int s : {1, 2, 4, 8}) {
    if (s == 1 || s <= NumThreads()) worker_counts.push_back(s);
  }
  TablePrinter serve_scale_table({"#Households", "Workers", "Inner threads",
                                  "Seconds", "Windows/sec", "Speedup vs 1"});
  std::vector<std::vector<std::string>> serve_scale_csv{
      {"households", "workers", "inner_threads", "seconds",
       "windows_per_sec", "speedup_vs_1"}};
  for (int h : household_counts) {
    Rng series_rng(17);
    std::vector<std::vector<float>> cohort;
    cohort.reserve(static_cast<size_t>(h));
    for (int i = 0; i < h; ++i) {
      std::vector<float> series(static_cast<size_t>(series_length));
      for (auto& v : series) {
        v = static_cast<float>(series_rng.Uniform(0.0, 3000.0));
      }
      cohort.push_back(std::move(series));
    }
    double base_seconds = 0.0;
    for (int s : worker_counts) {
      serve::ServiceOptions service_opt;
      service_opt.workers = s;
      service_opt.queue_capacity = 0;  // whole cohort at once
      serve::Service service(service_opt);
      CAMAL_CHECK(
          service.RegisterAppliance("noise", &ensemble, batched_opt).ok());
      CAMAL_CHECK(service.Start().ok());
      auto scan_cohort = [&] {
        std::vector<std::future<Result<serve::ScanResult>>> futures;
        futures.reserve(cohort.size());
        for (size_t i = 0; i < cohort.size(); ++i) {
          serve::ScanRequest request;
          request.household_id = FmtInt(static_cast<int64_t>(i));
          request.appliance = "noise";
          request.series = data::SeriesView(cohort[i]);
          futures.push_back(service.Submit(std::move(request)));
        }
        int64_t windows = 0;
        for (auto& future : futures) {
          windows += future.get().value().windows;
        }
        return windows;
      };
      scan_cohort();  // warm runner scratch, allocator
      Stopwatch watch;
      const int64_t windows = scan_cohort();
      const double seconds = watch.ElapsedSeconds();
      if (s == worker_counts.front()) base_seconds = seconds;
      const double wps = seconds > 0.0 ? windows / seconds : 0.0;
      const double speedup =
          seconds > 0.0 ? base_seconds / seconds : 0.0;
      const int inner = service.inner_budget();
      serve_scale_table.AddRow({FmtInt(h), FmtInt(s), FmtInt(inner),
                                Fmt(seconds, 3), Fmt(wps, 1),
                                Fmt(speedup, 2)});
      serve_scale_csv.push_back({FmtInt(h), FmtInt(s), FmtInt(inner),
                                 Fmt(seconds, 4), Fmt(wps, 2),
                                 Fmt(speedup, 3)});
    }
  }
  std::printf("\nAsync sharded serving (serve::Service, CAMAL_THREADS=%d)\n",
              NumThreads());
  serve_scale_table.Print(stdout);
  bench::WriteCsv("fig7b_sharded_serving", serve_scale_csv);
}

}  // namespace
}  // namespace camal

int main() {
  camal::Run();
  return 0;
}
