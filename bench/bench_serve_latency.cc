// Serving latency of the async front-end (serve::Service): per-request
// p50/p95/p99 latency and aggregate throughput versus worker count, for a
// burst of household scan requests. Latency is measured by the service
// itself (ScanResult::latency_seconds = admission-queue wait + scan), so
// under a full burst it includes the queueing the last requests see —
// the figure an operator sizing the worker pool cares about.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/parallel_for.h"
#include "common/stopwatch.h"
#include "serve/service.h"

namespace camal {
namespace {

/// Deep queue of small households: each request carries only a few
/// windows, so per-request scans run tiny, underfilled GEMM batches even
/// when requests are plentiful. Cross-request coalescing
/// (ServiceOptions::coalesce_budget) merges the backlog's windows into
/// shared batches; this scenario sweeps the budget on a fixed worker
/// count and reports throughput plus the observed group occupancy.
void DeepQueueScenario(const eval::BenchParams& params,
                       core::CamalEnsemble* ensemble,
                       const serve::BatchRunnerOptions& runner) {
  int requests = 192;
  if (params.mode == eval::BenchMode::kSmoke) {
    requests = 48;
  } else if (params.mode == eval::BenchMode::kFull) {
    requests = 768;
  }
  // One window per request — the short-household extreme: a per-request
  // scan runs every forward pass at batch size 1 against a stream batch
  // size of 32, paying the full per-batch overhead (layer output
  // allocations, member/CAM setup, stitch bookkeeping) for every single
  // window. Coalescing is what fills these batches; longer households
  // amortize the overhead by themselves.
  const int64_t series_length = params.window_length;

  Rng rng(11);
  std::vector<std::vector<float>> cohort;
  cohort.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    std::vector<float> series(static_cast<size_t>(series_length));
    for (auto& v : series) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
    cohort.push_back(std::move(series));
  }
  const int workers = std::min(2, NumThreads());

  std::printf("\nDeep queue, small households — cross-request coalescing\n"
              "(%d requests of %lld samples each, %d workers)\n",
              requests, static_cast<long long>(series_length), workers);
  TablePrinter table({"Coalesce", "Req/sec", "Windows/sec", "p50 ms",
                      "Groups", "Occupancy"});
  std::vector<std::vector<std::string>> csv_rows{
      {"coalesce_budget", "requests_per_sec", "windows_per_sec", "p50_ms",
       "coalesced_groups", "mean_group_occupancy"}};
  double baseline_rps = 0.0, best_rps = 0.0;
  for (int budget : {1, 8, 32}) {
    serve::ServiceOptions service_opt;
    service_opt.workers = workers;
    service_opt.queue_capacity = 0;  // measure coalescing, not rejections
    service_opt.coalesce_budget = budget;
    serve::Service service(service_opt);
    CAMAL_CHECK(
        service.RegisterAppliance("appliance", ensemble, runner).ok());
    CAMAL_CHECK(service.Start().ok());

    auto burst = [&] {
      std::vector<std::future<Result<serve::ScanResult>>> futures;
      futures.reserve(cohort.size());
      for (size_t i = 0; i < cohort.size(); ++i) {
        serve::ScanRequest request;
        request.household_id = FmtInt(static_cast<int64_t>(i));
        request.appliance = "appliance";
        request.series = data::SeriesView(cohort[i]);
        futures.push_back(service.Submit(std::move(request)));
      }
      std::vector<serve::ScanResult> results;
      results.reserve(futures.size());
      for (auto& future : futures) {
        results.push_back(std::move(future.get()).value());
      }
      return results;
    };
    burst();  // warm runner scratch, allocator
    // Counters are cumulative since Start; snapshot after the warm-up so
    // the table reports the timed burst alone.
    const serve::ServiceStats warm = service.stats();

    Stopwatch watch;
    std::vector<serve::ScanResult> results = burst();
    const double wall = watch.ElapsedSeconds();
    service.Shutdown();

    std::vector<double> latencies_ms;
    latencies_ms.reserve(results.size());
    int64_t windows = 0;
    for (const serve::ScanResult& result : results) {
      latencies_ms.push_back(result.latency_seconds * 1e3);
      windows += result.windows;
    }
    const loadgen::LatencySummary latency =
        bench::SummarizeLatenciesMs(latencies_ms);
    const serve::ServiceStats stats = service.stats();
    const int64_t groups = stats.coalesced_groups - warm.coalesced_groups;
    const int64_t grouped_requests =
        stats.coalesced_requests - warm.coalesced_requests;
    const double occupancy =
        groups > 0 ? static_cast<double>(grouped_requests) /
                         static_cast<double>(groups)
                   : 1.0;
    const double rps = wall > 0.0 ? requests / wall : 0.0;
    if (budget == 1) baseline_rps = rps;
    best_rps = std::max(best_rps, rps);
    const double wps = wall > 0.0 ? static_cast<double>(windows) / wall : 0.0;
    table.AddRow({FmtInt(budget), Fmt(rps, 1), Fmt(wps, 1),
                  Fmt(latency.p50_ms, 1), FmtInt(groups),
                  Fmt(occupancy, 1)});
    csv_rows.push_back({FmtInt(budget), Fmt(rps, 2), Fmt(wps, 2),
                        Fmt(latency.p50_ms, 2), FmtInt(groups),
                        Fmt(occupancy, 2)});
  }
  table.Print(stdout);
  bench::WriteCsv("serve_deep_queue", csv_rows);
  if (baseline_rps > 0.0) {
    std::printf("\ncoalescing speedup (best budget vs off): %.2fx — merged\n"
                "windows fill the GEMM batches that per-request scans of\n"
                "%lld-sample households leave mostly empty.\n",
                best_rps / baseline_rps,
                static_cast<long long>(series_length));
  }
}

/// Resident set size in KB from /proc/self/status, or -1 where the file
/// does not exist (non-Linux).
int64_t ReadVmRssKb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return -1;
  char line[256];
  long long kb = -1;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::sscanf(line, "VmRSS: %lld", &kb) == 1) break;
  }
  std::fclose(file);
  return kb;
}

/// Long-lived streaming sessions under Poisson-arriving appends: each
/// household holds a serve::Session and keeps appending tail-sized deltas
/// (one stride of samples), so the incremental path re-feeds only the
/// window grid the new tail touches instead of rescanning the whole
/// series. Reports steady-state append latency, resident memory at
/// start/mid/end of the soak (which should stay flat: per-session stitch
/// state is one window, whatever the history), and the measured speedup of
/// incremental appends over from-scratch rescans of the same prefixes.
///
/// The soak is OPEN-LOOP and charges latency from each append's intended
/// Poisson arrival time: the whole schedule is laid out up front, the
/// submit loop sleeps until each intended time regardless of how far the
/// service has fallen behind, and a slow append inflates the measured
/// latency of the appends queued behind it instead of silently delaying
/// their arrivals. (The scenario previously slept per-submission and
/// harvested in rounds — coordinated omission: every stall paused the
/// arrival process itself and vanished from the percentiles.)
void SoakScenario(const eval::BenchParams& params,
                  core::CamalEnsemble* ensemble,
                  const serve::BatchRunnerOptions& runner) {
  int sessions = 192;
  int appends = 12;
  if (params.mode == eval::BenchMode::kSmoke) {
    sessions = 128;  // the CI gate wants >= 100 sessions, ~10 appends
    appends = 10;
  } else if (params.mode == eval::BenchMode::kFull) {
    sessions = 512;
    appends = 16;
  }
  const auto append_samples = static_cast<size_t>(runner.stream.stride);
  const int workers = std::min(2, NumThreads());
  // Poisson process over the whole fleet: fleet-wide arrival rate of one
  // append per 100us keeps a deep, never-empty queue without letting the
  // arrival loop outrun the workers entirely.
  const double arrivals_per_second = 10'000.0;

  std::printf("\nStreaming session soak — incremental append-and-rescan\n"
              "(%d sessions x %d appends of %zu samples each, Poisson\n"
              "arrivals at %.0f appends/sec, %d workers)\n",
              sessions, appends, append_samples, arrivals_per_second,
              workers);

  serve::ServiceOptions service_opt;
  service_opt.workers = workers;
  service_opt.queue_capacity = 0;  // session flow control bounds appends
  service_opt.coalesce_budget = 8;
  serve::Service service(service_opt);
  CAMAL_CHECK(service.RegisterAppliance("appliance", ensemble, runner).ok());
  CAMAL_CHECK(service.Start().ok());

  Rng rng(23);
  std::vector<std::shared_ptr<serve::Session>> fleet;
  fleet.reserve(static_cast<size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    serve::SessionOptions session_opt;
    session_opt.household_id = "house_" + FmtInt(s);
    fleet.push_back(service.CreateSession("appliance", session_opt).value());
  }
  auto make_chunk = [&] {
    std::vector<float> chunk(append_samples);
    for (auto& v : chunk) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
    return chunk;
  };

  // Warm-up round (runner scratch, per-session state) before the RSS
  // baseline, so "growth" below measures the steady state, not the first
  // allocations.
  {
    std::vector<std::future<Result<serve::ScanResult>>> futures;
    for (auto& session : fleet) {
      futures.push_back(session->AppendReadings(make_chunk()));
    }
    for (auto& future : futures) CAMAL_CHECK(future.get().ok());
  }
  const int64_t rss_start_kb = ReadVmRssKb();
  int64_t rss_mid_kb = rss_start_kb;

  // The fleet-wide Poisson schedule, intended arrival offsets laid out
  // before the first submission; appends rotate through the sessions.
  const int total_appends = sessions * appends;
  std::vector<double> intended;
  intended.reserve(static_cast<size_t>(total_appends));
  double next_arrival = 0.0;
  for (int k = 0; k < total_appends; ++k) {
    next_arrival += rng.Exponential(arrivals_per_second);
    intended.push_back(next_arrival);
  }

  std::vector<std::future<Result<serve::ScanResult>>> futures;
  std::vector<double> submit_offsets;
  futures.reserve(static_cast<size_t>(total_appends));
  submit_offsets.reserve(static_cast<size_t>(total_appends));
  Stopwatch watch;
  const auto soak_t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < total_appends; ++k) {
    std::this_thread::sleep_until(
        soak_t0 +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(intended[static_cast<size_t>(k)])));
    submit_offsets.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      soak_t0)
            .count());
    futures.push_back(
        fleet[static_cast<size_t>(k % sessions)]->AppendReadings(
            make_chunk()));
    if (k == total_appends / 2) rss_mid_kb = ReadVmRssKb();
  }
  loadgen::LatencyHistogram latency_hist;
  for (int k = 0; k < total_appends; ++k) {
    Result<serve::ScanResult> result = futures[static_cast<size_t>(k)].get();
    CAMAL_CHECK(result.ok());
    // Intended-arrival latency: schedule slip the driver accumulated plus
    // the service's own admission-to-completion measurement.
    latency_hist.Record(std::max(
        0.0, submit_offsets[static_cast<size_t>(k)] -
                 intended[static_cast<size_t>(k)] +
                 result.value().latency_seconds));
  }
  const double soak_wall = watch.ElapsedSeconds();
  const int64_t rss_end_kb = ReadVmRssKb();
  const serve::ServiceStats stats = service.stats();

  // Lifecycle sweep: half the fleet closes like polite clients, the rest
  // go silent and are reclaimed by the idle sweep.
  for (int s = 0; s < sessions / 2; ++s) CAMAL_CHECK(fleet[s]->Close().ok());
  const int64_t evicted = service.EvictIdleSessions(0.0);
  CAMAL_CHECK(service.live_sessions() == 0);
  service.Shutdown();

  // Incremental-vs-rescan speedup, measured directly on a BatchRunner
  // (the service is down, so the shared ensemble is free): replay one
  // session's append sequence, then from-scratch scan every prefix.
  const int replay = appends + 1;
  serve::BatchRunner incremental(ensemble, runner);
  serve::BatchRunner reference(ensemble, runner);
  std::vector<std::vector<float>> chunks;
  for (int k = 0; k < replay; ++k) chunks.push_back(make_chunk());
  serve::SessionScanState state;
  Stopwatch incremental_watch;
  for (const auto& chunk : chunks) incremental.AppendScan(&state, chunk);
  const double incremental_s = incremental_watch.ElapsedSeconds();
  std::vector<float> prefix;
  Stopwatch rescan_watch;
  for (const auto& chunk : chunks) {
    prefix.insert(prefix.end(), chunk.begin(), chunk.end());
    reference.Scan(prefix);
  }
  const double rescan_s = rescan_watch.ElapsedSeconds();
  const double speedup = incremental_s > 0.0 ? rescan_s / incremental_s : 0.0;

  const loadgen::LatencySummary latency = latency_hist.Summary();
  const double p50 = latency.p50_ms;
  const double p95 = latency.p95_ms;
  const double p99 = latency.p99_ms;
  const double aps = soak_wall > 0.0
                         ? static_cast<double>(latency.count) / soak_wall
                         : 0.0;
  const double growth_pct =
      rss_mid_kb > 0 ? 100.0 *
                           static_cast<double>(rss_end_kb - rss_mid_kb) /
                           static_cast<double>(rss_mid_kb)
                     : 0.0;

  TablePrinter table({"Appends", "Appends/sec", "p50 ms", "p95 ms", "p99 ms",
                      "Windows saved"});
  table.AddRow({FmtInt(latency.count), Fmt(aps, 1), Fmt(p50, 1), Fmt(p95, 1),
                Fmt(p99, 1), FmtInt(stats.incremental_windows_saved)});
  table.Print(stdout);
  std::printf("\nsteady-state RSS: start %lld KB, mid %lld KB, end %lld KB "
              "(growth after mid-soak %.1f%%)\n",
              static_cast<long long>(rss_start_kb),
              static_cast<long long>(rss_mid_kb),
              static_cast<long long>(rss_end_kb), growth_pct);
  std::printf("sessions: %lld created, %lld closed by clients, %lld "
              "reclaimed by the idle sweep, %lld readings appended\n",
              static_cast<long long>(stats.sessions_created),
              static_cast<long long>(sessions) -
                  static_cast<long long>(evicted),
              static_cast<long long>(evicted),
              static_cast<long long>(stats.appended_readings));
  std::printf("incremental speedup vs full rescan: %.2fx over %d tail-sized "
              "appends (%.3fs incremental, %.3fs rescans)\n",
              speedup, replay, incremental_s, rescan_s);

  std::string json = "{\n";
  json += "  \"bench\": \"serve_soak\",\n";
  json += "  \"sessions\": " + FmtInt(sessions) + ",\n";
  json += "  \"appends_per_session\": " + FmtInt(appends) + ",\n";
  json += "  \"append_samples\": " +
          FmtInt(static_cast<int64_t>(append_samples)) + ",\n";
  json += "  \"appends_per_sec\": " + Fmt(aps, 2) + ",\n";
  // Latency is charged from the intended Poisson arrival time (open-loop;
  // no coordinated omission). Earlier artifacts measured from submission
  // of a closed-loop-per-round driver, so percentiles are not comparable
  // across that change.
  json += "  \"latency_measured_from\": \"intended_arrival\",\n";
  json += "  \"p50_ms\": " + Fmt(p50, 3) + ",\n";
  json += "  \"p95_ms\": " + Fmt(p95, 3) + ",\n";
  json += "  \"p99_ms\": " + Fmt(p99, 3) + ",\n";
  json += "  \"rss_start_kb\": " + FmtInt(rss_start_kb) + ",\n";
  json += "  \"rss_mid_kb\": " + FmtInt(rss_mid_kb) + ",\n";
  json += "  \"rss_end_kb\": " + FmtInt(rss_end_kb) + ",\n";
  json += "  \"rss_growth_after_mid_pct\": " + Fmt(growth_pct, 2) + ",\n";
  json += "  \"incremental_windows_saved\": " +
          FmtInt(stats.incremental_windows_saved) + ",\n";
  json += "  \"sessions_evicted\": " + FmtInt(evicted) + ",\n";
  json += "  \"incremental_seconds\": " + Fmt(incremental_s, 4) + ",\n";
  json += "  \"rescan_seconds\": " + Fmt(rescan_s, 4) + ",\n";
  json += "  \"incremental_speedup\": " + Fmt(speedup, 3) + "\n";
  json += "}\n";
  bench::WriteTextFile("BENCH_soak.json", json);
}

/// Crash-recovery phase: stream a session fleet, checkpoint it, kill the
/// service, and time how long a cold service takes to restore the whole
/// fleet and resume streaming — the recovery wall-time an operator sizes
/// their restart budget by. Emits BENCH_recovery.json.
void RecoveryScenario(const eval::BenchParams& params,
                      core::CamalEnsemble* ensemble,
                      const serve::BatchRunnerOptions& runner) {
  int sessions = 96;
  int appends = 4;
  if (params.mode == eval::BenchMode::kSmoke) {
    sessions = 64;
    appends = 3;
  } else if (params.mode == eval::BenchMode::kFull) {
    sessions = 256;
    appends = 6;
  }
  const auto append_samples = static_cast<size_t>(runner.stream.stride);
  const std::string dir = "bench_recovery_ckpt";

  std::printf("\nCrash recovery — session checkpoint/restore\n"
              "(%d sessions x %d appends of %zu samples, then checkpoint,\n"
              "kill, and cold restore)\n",
              sessions, appends, append_samples);

  serve::ServiceOptions service_opt;
  service_opt.workers = std::min(2, NumThreads());
  service_opt.queue_capacity = 0;
  service_opt.coalesce_budget = 8;

  Rng rng(29);
  auto make_chunk = [&] {
    std::vector<float> chunk(append_samples);
    for (auto& v : chunk) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
    return chunk;
  };

  double checkpoint_s = 0.0;
  int64_t checkpoint_bytes = 0;
  {
    serve::Service service(service_opt);
    CAMAL_CHECK(
        service.RegisterAppliance("appliance", ensemble, runner).ok());
    CAMAL_CHECK(service.Start().ok());
    std::vector<std::shared_ptr<serve::Session>> fleet;
    fleet.reserve(static_cast<size_t>(sessions));
    for (int s = 0; s < sessions; ++s) {
      serve::SessionOptions session_opt;
      session_opt.household_id = "house_" + FmtInt(s);
      fleet.push_back(
          service.CreateSession("appliance", session_opt).value());
    }
    for (int round = 0; round < appends; ++round) {
      std::vector<std::future<Result<serve::ScanResult>>> futures;
      futures.reserve(fleet.size());
      for (auto& session : fleet) {
        futures.push_back(session->AppendReadings(make_chunk()));
      }
      for (auto& future : futures) CAMAL_CHECK(future.get().ok());
    }
    Stopwatch checkpoint_watch;
    CAMAL_CHECK(service.CheckpointSessions(dir).ok());
    checkpoint_s = checkpoint_watch.ElapsedSeconds();
    checkpoint_bytes = static_cast<int64_t>(
        std::filesystem::file_size(serve::Service::CheckpointFile(dir)));
    service.Shutdown();  // the "crash": only the snapshot survives
  }

  serve::Service revived(service_opt);
  CAMAL_CHECK(revived.RegisterAppliance("appliance", ensemble, runner).ok());
  CAMAL_CHECK(revived.Start().ok());
  Stopwatch restore_watch;
  Result<int64_t> restored = revived.RestoreSessions(dir);
  const double restore_s = restore_watch.ElapsedSeconds();
  CAMAL_CHECK(restored.ok());
  CAMAL_CHECK(restored.value() == sessions);

  // The fleet streams on: one more append per restored session.
  {
    std::vector<std::future<Result<serve::ScanResult>>> futures;
    futures.reserve(static_cast<size_t>(sessions));
    for (int s = 0; s < sessions; ++s) {
      auto session = revived.GetSession("house_" + FmtInt(s));
      CAMAL_CHECK(session.ok());
      futures.push_back(session.value()->AppendReadings(make_chunk()));
    }
    for (auto& future : futures) CAMAL_CHECK(future.get().ok());
  }
  const serve::ServiceStats stats = revived.stats();
  revived.Shutdown();
  std::filesystem::remove_all(dir);

  const double restore_rate =
      restore_s > 0.0 ? sessions / restore_s : 0.0;
  TablePrinter table({"Sessions", "Checkpoint ms", "Snapshot KB",
                      "Restore ms", "Sessions/s restored"});
  table.AddRow({FmtInt(sessions), Fmt(checkpoint_s * 1e3, 2),
                FmtInt(checkpoint_bytes / 1024), Fmt(restore_s * 1e3, 2),
                Fmt(restore_rate, 0)});
  table.Print(stdout);
  std::printf("restored %lld sessions in %.2f ms; every one resumed "
              "streaming after the cold restore\n",
              static_cast<long long>(stats.sessions_restored),
              restore_s * 1e3);

  std::string json = "{\n";
  json += "  \"bench\": \"serve_recovery\",\n";
  json += "  \"sessions\": " + FmtInt(sessions) + ",\n";
  json += "  \"appends_per_session\": " + FmtInt(appends) + ",\n";
  json += "  \"append_samples\": " +
          FmtInt(static_cast<int64_t>(append_samples)) + ",\n";
  json += "  \"checkpoint_seconds\": " + Fmt(checkpoint_s, 4) + ",\n";
  json += "  \"checkpoint_bytes\": " + FmtInt(checkpoint_bytes) + ",\n";
  json += "  \"restore_seconds\": " + Fmt(restore_s, 4) + ",\n";
  json += "  \"sessions_restored\": " + FmtInt(stats.sessions_restored) +
          ",\n";
  json += "  \"restore_sessions_per_sec\": " + Fmt(restore_rate, 1) + "\n";
  json += "}\n";
  bench::WriteTextFile("BENCH_recovery.json", json);
}

void Run() {
  bench::PrintHeader("Serving latency — async serve::Service",
                     "serving extension (request latency vs workers)");
  const eval::BenchParams params = eval::CurrentBenchParams();

  int requests = 48;
  int64_t series_length = 2048;
  if (params.mode == eval::BenchMode::kSmoke) {
    requests = 12;
    series_length = 512;
  } else if (params.mode == eval::BenchMode::kFull) {
    requests = 256;
    series_length = 17520;  // 30-min sampling for one year
  }

  Rng rng(7);
  core::CamalEnsemble ensemble =
      bench::MakeBenchEnsemble({5, 7, 9}, params.base_filters, &rng);
  serve::BatchRunnerOptions runner;
  runner.stream.window_length = params.window_length;
  runner.stream.stride = params.window_length / 2;
  runner.stream.batch_size = 32;
  runner.appliance_avg_power_w = 700.0f;

  std::vector<std::vector<float>> cohort;
  cohort.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    std::vector<float> series(static_cast<size_t>(series_length));
    for (auto& v : series) v = static_cast<float>(rng.Uniform(0.0, 3000.0));
    cohort.push_back(std::move(series));
  }

  std::vector<int> worker_counts;
  for (int w : {1, 2, 4, 8}) {
    if (w == 1 || w <= NumThreads()) worker_counts.push_back(w);
  }

  TablePrinter table({"Workers", "Requests", "p50 ms", "p95 ms", "p99 ms",
                      "Req/sec", "Windows/sec"});
  std::vector<std::vector<std::string>> csv_rows{
      {"workers", "requests", "p50_ms", "p95_ms", "p99_ms",
       "requests_per_sec", "windows_per_sec"}};
  serve::ServiceStats totals;
  for (int workers : worker_counts) {
    serve::ServiceOptions service_opt;
    service_opt.workers = workers;
    service_opt.queue_capacity = 0;  // measure queueing, not rejections
    // This scenario isolates worker scaling on large households; the
    // coalescing win on small ones is measured by DeepQueueScenario.
    service_opt.coalesce_budget = 1;
    serve::Service service(service_opt);
    CAMAL_CHECK(
        service.RegisterAppliance("appliance", &ensemble, runner).ok());
    CAMAL_CHECK(service.Start().ok());

    auto burst = [&] {
      std::vector<std::future<Result<serve::ScanResult>>> futures;
      futures.reserve(cohort.size());
      for (size_t i = 0; i < cohort.size(); ++i) {
        serve::ScanRequest request;
        request.household_id = FmtInt(static_cast<int64_t>(i));
        request.appliance = "appliance";
        request.series = data::SeriesView(cohort[i]);
        futures.push_back(service.Submit(std::move(request)));
      }
      std::vector<serve::ScanResult> results;
      results.reserve(futures.size());
      for (auto& future : futures) {
        results.push_back(std::move(future.get()).value());
      }
      return results;
    };
    burst();  // warm runner scratch, allocator
    // Counters are cumulative since Start; snapshot after the warm-up so
    // the sweep totals below cover the timed bursts alone.
    const serve::ServiceStats warm = service.stats();

    Stopwatch watch;
    std::vector<serve::ScanResult> results = burst();
    const double wall = watch.ElapsedSeconds();

    std::vector<double> latencies_ms;
    latencies_ms.reserve(results.size());
    int64_t windows = 0;
    for (const serve::ScanResult& result : results) {
      latencies_ms.push_back(result.latency_seconds * 1e3);
      windows += result.windows;
    }
    const loadgen::LatencySummary latency =
        bench::SummarizeLatenciesMs(latencies_ms);
    const double rps = wall > 0.0 ? requests / wall : 0.0;
    const double wps = wall > 0.0 ? windows / wall : 0.0;
    table.AddRow({FmtInt(workers), FmtInt(requests), Fmt(latency.p50_ms, 1),
                  Fmt(latency.p95_ms, 1), Fmt(latency.p99_ms, 1), Fmt(rps, 1),
                  Fmt(wps, 1)});
    csv_rows.push_back({FmtInt(workers), FmtInt(requests),
                        Fmt(latency.p50_ms, 2), Fmt(latency.p95_ms, 2),
                        Fmt(latency.p99_ms, 2), Fmt(rps, 2), Fmt(wps, 2)});
    const serve::ServiceStats stats = service.stats();
    totals.accepted += stats.accepted - warm.accepted;
    totals.completed += stats.completed - warm.completed;
    totals.rejected_invalid += stats.rejected_invalid - warm.rejected_invalid;
    totals.rejected_backpressure +=
        stats.rejected_backpressure - warm.rejected_backpressure;
  }
  table.Print(stdout);
  bench::WriteCsv("serve_latency", csv_rows);
  std::printf("\nacross the sweep: %lld accepted, %lld completed, "
              "%lld rejected invalid, %lld rejected by backpressure\n",
              static_cast<long long>(totals.accepted),
              static_cast<long long>(totals.completed),
              static_cast<long long>(totals.rejected_invalid),
              static_cast<long long>(totals.rejected_backpressure));
  std::printf("\nShape check: aggregate throughput should grow with the\n"
              "worker count (until CAMAL_THREADS=%d saturates) while burst\n"
              "p95/p99 latency shrinks — more workers drain the admission\n"
              "queue faster.\n",
              NumThreads());

  DeepQueueScenario(params, &ensemble, runner);
  SoakScenario(params, &ensemble, runner);
  RecoveryScenario(params, &ensemble, runner);
}

}  // namespace
}  // namespace camal

int main() {
  camal::Run();
  return 0;
}
