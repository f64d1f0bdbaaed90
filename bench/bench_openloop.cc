// Open-loop serving bench: offered-load sweep + QoS scenarios against
// serve::Service, driven by loadgen::OpenLoopDriver (Poisson arrivals
// scheduled up front, latency charged from the intended arrival — no
// coordinated omission). Three parts:
//   1. Sweep: calibrate a closed-loop capacity estimate, walk an
//      offered-load ladder around it, report p50/p95/p99 vs load and the
//      throughput knee (loadgen::RunLoadSweep).
//   2. Deadline shedding: overload a service whose per-request cost is
//      pinned by a pre-scan sleep, with a deadline the backlog must blow
//      through — most requests are shed with kDeadlineExceeded BEFORE
//      any scan runs, and the survivors' latency stays bounded.
//   3. Priorities: a high-priority trickle submitted concurrently with a
//      low-priority flood; the trickle's percentiles ride over the
//      backlog.
// Gates run in-binary and fail the process: the offered-load axis is
// monotone, a knee is detected, and overload+deadline actually sheds.
// Emits BENCH_openloop.json.

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/fault_injection.h"
#include "common/parallel_for.h"
#include "common/stopwatch.h"
#include "loadgen/open_loop.h"
#include "loadgen/sweep.h"
#include "serve/service.h"

namespace camal {
namespace {

std::vector<std::vector<float>> MakeCohort(int households,
                                           int64_t series_length, Rng* rng) {
  std::vector<std::vector<float>> cohort;
  cohort.reserve(static_cast<size_t>(households));
  for (int i = 0; i < households; ++i) {
    std::vector<float> series(static_cast<size_t>(series_length));
    for (auto& v : series) v = static_cast<float>(rng->Uniform(0.0, 3000.0));
    cohort.push_back(std::move(series));
  }
  return cohort;
}

std::vector<data::SeriesView> MakeViews(
    const std::vector<std::vector<float>>& cohort) {
  std::vector<data::SeriesView> views;
  views.reserve(cohort.size());
  for (const auto& series : cohort) views.emplace_back(series);
  return views;
}

std::string PointJson(const loadgen::LoadSweepPoint& point) {
  std::string json = "    {\"offered_rps\": " + Fmt(point.offered_rps, 1);
  json += ", \"achieved_rps\": " + Fmt(point.achieved_rps, 1);
  json += ", \"utilization\": " + Fmt(point.utilization, 3);
  json += ", \"requests\": " + FmtInt(point.requests);
  json += ", \"completed\": " + FmtInt(point.completed);
  json += ", \"shed_deadline\": " + FmtInt(point.shed_deadline);
  json += ", \"p50_ms\": " + Fmt(point.latency.p50_ms, 3);
  json += ", \"p95_ms\": " + Fmt(point.latency.p95_ms, 3);
  json += ", \"p99_ms\": " + Fmt(point.latency.p99_ms, 3);
  json += ", \"max_submit_lag_s\": " + Fmt(point.max_submit_lag_seconds, 4);
  json += "}";
  return json;
}

int Run() {
  bench::PrintHeader("Open-loop serving — offered-load sweep + QoS",
                     "serving extension (latency vs offered load, knee)");
  const eval::BenchParams params = eval::CurrentBenchParams();
  const int workers = std::min(2, NumThreads());

  double seconds_per_point = 1.0;
  int64_t max_requests_per_point = 2000;
  std::vector<double> multipliers{0.25, 0.5, 0.75, 1.0, 1.5};
  if (params.mode == eval::BenchMode::kSmoke) {
    seconds_per_point = 0.4;
    max_requests_per_point = 600;
    multipliers = {0.25, 0.5, 1.0, 1.5};
  } else if (params.mode == eval::BenchMode::kFull) {
    seconds_per_point = 2.5;
    max_requests_per_point = 4000;
    multipliers = {0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0};
  }

  Rng rng(31);
  core::CamalEnsemble ensemble =
      bench::MakeBenchEnsemble({5, 9}, params.base_filters, &rng);
  serve::BatchRunnerOptions runner;
  runner.stream.window_length = params.window_length;
  runner.stream.stride = params.window_length / 2;
  runner.stream.batch_size = 32;
  runner.appliance_avg_power_w = 700.0f;
  // One-window households: the latency-sensitive request shape (a big
  // cohort of short series), where queueing — not scan time — dominates
  // the tail and coalescing earns its keep.
  const std::vector<std::vector<float>> cohort =
      MakeCohort(64, params.window_length, &rng);
  const std::vector<data::SeriesView> views = MakeViews(cohort);

  // Closed-loop calibration: per-request service time on one worker,
  // scaled by the pool. The ladder brackets this estimate; the knee the
  // sweep finds is the measured answer.
  double per_scan_s;
  {
    serve::BatchRunner calibration(&ensemble, runner);
    calibration.Scan(views[0]);  // warm scratch
    const int reps = params.mode == eval::BenchMode::kSmoke ? 8 : 32;
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) {
      calibration.Scan(views[static_cast<size_t>(r) % views.size()]);
    }
    per_scan_s = watch.ElapsedSeconds() / reps;
  }
  const double capacity_rps =
      static_cast<double>(workers) / std::max(per_scan_s, 1e-6);
  std::printf("\ncalibration: %.3f ms per one-window scan -> ~%.0f req/s "
              "across %d workers\n",
              per_scan_s * 1e3, capacity_rps, workers);

  serve::ServiceOptions service_opt;
  service_opt.workers = workers;
  service_opt.queue_capacity = 0;  // overload shows as latency, not drops
  service_opt.coalesce_budget = 8;
  serve::Service service(service_opt);
  CAMAL_CHECK(service.RegisterAppliance("appliance", &ensemble, runner).ok());
  CAMAL_CHECK(service.Start().ok());
  for (size_t i = 0; i < 8; ++i) {  // warm every worker's runner scratch
    serve::ScanRequest request;
    request.appliance = "appliance";
    request.series = views[i % views.size()];
    CAMAL_CHECK(service.Submit(std::move(request)).get().ok());
  }

  loadgen::LoadSweepOptions sweep_opt;
  for (const double m : multipliers) {
    sweep_opt.offered_rps.push_back(m * capacity_rps);
  }
  sweep_opt.seconds_per_point = seconds_per_point;
  sweep_opt.max_requests_per_point = max_requests_per_point;
  sweep_opt.base.process = loadgen::ArrivalProcess::kPoisson;
  sweep_opt.base.seed = 17;
  sweep_opt.base.appliance = "appliance";
  const loadgen::LoadSweepResult sweep =
      loadgen::RunLoadSweep(&service, views, sweep_opt);
  service.Shutdown();

  TablePrinter table({"Offered/s", "Achieved/s", "Util", "p50 ms", "p95 ms",
                      "p99 ms", "Requests", "Max lag ms"});
  std::vector<std::vector<std::string>> csv_rows{
      {"offered_rps", "achieved_rps", "utilization", "p50_ms", "p95_ms",
       "p99_ms", "requests", "max_submit_lag_ms"}};
  for (const loadgen::LoadSweepPoint& point : sweep.points) {
    table.AddRow({Fmt(point.offered_rps, 0), Fmt(point.achieved_rps, 0),
                  Fmt(point.utilization, 2), Fmt(point.latency.p50_ms, 2),
                  Fmt(point.latency.p95_ms, 2), Fmt(point.latency.p99_ms, 2),
                  FmtInt(point.requests),
                  Fmt(point.max_submit_lag_seconds * 1e3, 2)});
    csv_rows.push_back(
        {Fmt(point.offered_rps, 1), Fmt(point.achieved_rps, 1),
         Fmt(point.utilization, 3), Fmt(point.latency.p50_ms, 3),
         Fmt(point.latency.p95_ms, 3), Fmt(point.latency.p99_ms, 3),
         FmtInt(point.requests), Fmt(point.max_submit_lag_seconds * 1e3, 3)});
  }
  table.Print(stdout);
  bench::WriteCsv("openloop", csv_rows);
  std::printf("\nknee: ~%.0f offered req/s (%s) — below it the service "
              "keeps up,\nabove it achieved throughput flattens and the "
              "tail explodes.\n",
              sweep.knee_rps, sweep.knee_basis.c_str());

  // ---- QoS scenarios on a pinned-cost service: a pre-scan sleep fixes
  // the per-request service time, so overload (and therefore shedding
  // and priority inversionless-ness) is deterministic enough to gate.
  const double kPinnedScanSeconds = 2e-3;
  FaultInjector pinned_cost;
  pinned_cost.set_scan_hook([&](const std::string&) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kPinnedScanSeconds));
  });
  serve::ServiceOptions qos_opt;
  qos_opt.workers = workers;
  qos_opt.queue_capacity = 0;
  qos_opt.coalesce_budget = 1;  // per-request cost stays exactly pinned
  qos_opt.fault_injector = &pinned_cost;
  serve::Service qos_service(qos_opt);
  CAMAL_CHECK(
      qos_service.RegisterAppliance("appliance", &ensemble, runner).ok());
  CAMAL_CHECK(qos_service.Start().ok());
  const double qos_capacity =
      static_cast<double>(workers) / kPinnedScanSeconds;

  // Deadline shedding at 4x the pinned capacity: the backlog grows ~3x
  // capacity per second, so queue waits blow through the deadline within
  // the first tenth of the run and most of the flood is shed pre-scan.
  const double deadline_seconds = 10.0 * kPinnedScanSeconds;
  loadgen::OpenLoopOptions flood;
  flood.offered_rps = 4.0 * qos_capacity;
  flood.requests = params.mode == eval::BenchMode::kSmoke ? 400 : 1200;
  flood.seed = 41;
  flood.appliance = "appliance";
  flood.deadline_seconds = deadline_seconds;
  loadgen::OpenLoopDriver deadline_driver(&qos_service, views, flood);
  const loadgen::OpenLoopResult deadline_run = deadline_driver.Run();
  const double shed_fraction =
      deadline_run.intended > 0
          ? static_cast<double>(deadline_run.shed_deadline) /
                static_cast<double>(deadline_run.intended)
          : 0.0;
  const loadgen::LatencySummary survivor = deadline_run.latency.Summary();
  std::printf("\ndeadline shedding at %.0fx capacity, %.0f ms deadline: "
              "%lld/%lld shed pre-scan (%.0f%%),\nsurvivor p99 %.1f ms "
              "(the backlog died in the queue, not in the scanners)\n",
              4.0, deadline_seconds * 1e3,
              static_cast<long long>(deadline_run.shed_deadline),
              static_cast<long long>(deadline_run.intended),
              shed_fraction * 100.0, survivor.p99_ms);

  // Priorities: a high-priority trickle against a low-priority flood,
  // concurrently, mildly overloaded in total. High requests overtake the
  // low backlog at every dequeue, so their tail tracks the service time
  // while the flood absorbs the queueing.
  loadgen::OpenLoopOptions high;
  high.offered_rps = 0.1 * qos_capacity;
  high.requests = params.mode == eval::BenchMode::kSmoke ? 40 : 120;
  high.seed = 43;
  high.appliance = "appliance";
  high.priority = serve::RequestPriority::kHigh;
  loadgen::OpenLoopOptions low = high;
  low.offered_rps = 1.1 * qos_capacity;
  low.requests = params.mode == eval::BenchMode::kSmoke ? 300 : 900;
  low.seed = 44;
  low.priority = serve::RequestPriority::kLow;
  loadgen::OpenLoopDriver high_driver(&qos_service, views, high);
  loadgen::OpenLoopDriver low_driver(&qos_service, views, low);
  loadgen::OpenLoopResult high_run, low_run;
  std::thread low_thread([&] { low_run = low_driver.Run(); });
  high_run = high_driver.Run();
  low_thread.join();
  qos_service.Shutdown();
  const loadgen::LatencySummary high_latency = high_run.latency.Summary();
  const loadgen::LatencySummary low_latency = low_run.latency.Summary();
  const serve::ServiceStats qos_stats = qos_service.stats();
  std::printf("\npriorities under a low-priority flood (%.0f + %.0f "
              "offered req/s):\n  high p95 %.1f ms over %lld requests, "
              "low p95 %.1f ms over %lld requests\n  served by class: "
              "%lld high / %lld normal / %lld low, %lld shed\n",
              high.offered_rps, low.offered_rps, high_latency.p95_ms,
              static_cast<long long>(high_run.completed), low_latency.p95_ms,
              static_cast<long long>(low_run.completed),
              static_cast<long long>(qos_stats.completed_high),
              static_cast<long long>(qos_stats.completed_normal),
              static_cast<long long>(qos_stats.completed_low),
              static_cast<long long>(qos_stats.shed_deadline));

  // ---- Gates.
  bool axis_monotone = true;
  for (size_t i = 1; i < sweep.points.size(); ++i) {
    axis_monotone = axis_monotone && sweep.points[i].offered_rps >
                                         sweep.points[i - 1].offered_rps;
  }
  const bool knee_detected =
      sweep.knee_index >= 0 &&
      sweep.knee_index < static_cast<int>(sweep.points.size()) &&
      sweep.knee_rps > 0.0;
  const bool shedding_works = deadline_run.shed_deadline > 0 &&
                              deadline_run.completed > 0 &&
                              deadline_run.failed == 0;
  std::printf("\n[gate] offered-load axis monotone: %s\n",
              axis_monotone ? "PASS" : "FAIL");
  std::printf("[gate] knee detected: %s (~%.0f req/s, basis %s)\n",
              knee_detected ? "PASS" : "FAIL", sweep.knee_rps,
              sweep.knee_basis.c_str());
  std::printf("[gate] deadline shedding under overload: %s "
              "(%lld shed, %lld served, 0 failed)\n",
              shedding_works ? "PASS" : "FAIL",
              static_cast<long long>(deadline_run.shed_deadline),
              static_cast<long long>(deadline_run.completed));

  std::string json = "{\n";
  json += "  \"bench\": \"openloop\",\n";
  json += "  \"mode\": \"" +
          std::string(eval::BenchModeName(params.mode)) + "\",\n";
  json += "  \"workers\": " + FmtInt(workers) + ",\n";
  json += "  \"process\": \"poisson\",\n";
  json += "  \"calibrated_capacity_rps\": " + Fmt(capacity_rps, 1) + ",\n";
  json += "  \"points\": [\n";
  for (size_t i = 0; i < sweep.points.size(); ++i) {
    json += PointJson(sweep.points[i]);
    json += i + 1 < sweep.points.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"knee_rps\": " + Fmt(sweep.knee_rps, 1) + ",\n";
  json += "  \"knee_index\": " + FmtInt(sweep.knee_index) + ",\n";
  json += "  \"knee_basis\": \"" + sweep.knee_basis + "\",\n";
  json += "  \"qos\": {\n";
  json += "    \"pinned_scan_ms\": " + Fmt(kPinnedScanSeconds * 1e3, 1) +
          ",\n";
  json += "    \"deadline_ms\": " + Fmt(deadline_seconds * 1e3, 1) + ",\n";
  json += "    \"deadline_offered_rps\": " + Fmt(flood.offered_rps, 1) +
          ",\n";
  json += "    \"deadline_requests\": " + FmtInt(deadline_run.intended) +
          ",\n";
  json += "    \"shed_deadline\": " + FmtInt(deadline_run.shed_deadline) +
          ",\n";
  json += "    \"shed_fraction\": " + Fmt(shed_fraction, 3) + ",\n";
  json += "    \"survivor_p99_ms\": " + Fmt(survivor.p99_ms, 3) + ",\n";
  json += "    \"high_p95_ms\": " + Fmt(high_latency.p95_ms, 3) + ",\n";
  json += "    \"low_p95_ms\": " + Fmt(low_latency.p95_ms, 3) + ",\n";
  json += "    \"completed_high\": " + FmtInt(qos_stats.completed_high) +
          ",\n";
  json += "    \"completed_low\": " + FmtInt(qos_stats.completed_low) + "\n";
  json += "  }\n";
  json += "}\n";
  bench::WriteTextFile("BENCH_openloop.json", json);

  if (!axis_monotone || !knee_detected || !shedding_works) {
    std::fprintf(stderr, "bench_openloop: gate failed\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace camal

int main() { return camal::Run(); }
