// camal_cli — train, persist, and apply CamAL models from the command line
// on CSV smart-meter data (the workflow an electricity supplier would run).
//
// Commands:
//   camal_cli simulate <dir> [--profile NAME] [--scale S] [--seed N]
//       Simulate a cohort and export it as house_*.csv files.
//   camal_cli train <data_dir> <model_dir> --appliance NAME
//       [--window L] [--epochs E] [--members N] [--filters F] [--seed N]
//       Train a CamAL ensemble on weak labels derived from the submeter
//       columns and save it.
//   camal_cli localize <model_dir> <house.csv> --appliance NAME [--window L]
//       Load a saved ensemble and print per-window detections and the
//       localized activation timeline for one household.
//   camal_cli serve <model_dir> <data_dir> --appliance NAME [--window L]
//       [--workers N] [--queue N] [--avg-power W] [--store 1]
//       Load a saved ensemble, start the asynchronous serve::Service, scan
//       every house_*.csv through the request queue, and print
//       per-request latency. With --store 1, <data_dir> holds
//       house_*.cstore files instead and every scan runs straight off the
//       memory mapping (zero-copy).
//   camal_cli convert <src> <dst> [--house-id N] [--chunk N] [--to-csv 1]
//       Convert between CSV households and binary column stores. <src>
//       may be one file or a directory of house_*.csv / house_*.cstore
//       files; the direction is inferred from the .cstore extension or
//       forced with --to-csv 1.
//   camal_cli loadgen <model_dir> <data_dir> --appliance NAME
//       [--rps 25,50,100,200] [--seconds 1.0] [--process poisson]
//       [--deadline S] [--priority normal] [--window L] [--workers N]
//       [--coalesce 8] [--store 1]
//       Open-loop load sweep: drive the serving stack at each offered
//       rate on its intended Poisson (or fixed) schedule without waiting
//       for completions, and report p50/p95/p99 latency vs load plus the
//       throughput knee.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel_for.h"
#include "data/balance.h"
#include "data/column_store.h"
#include "data/csv_loader.h"
#include "data/split.h"
#include "core/localizer.h"
#include "core/model_io.h"
#include "loadgen/sweep.h"
#include "serve/service.h"
#include "simulate/profiles.h"

namespace {

using namespace camal;

// Minimal flag parser: positional args plus --key value pairs.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::string Flag(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  double FlagDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
  }
  int64_t FlagInt(const std::string& key, int64_t fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : std::atoll(it->second.c_str());
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0 && i + 1 < argc) {
      args.flags[argv[i] + 2] = argv[i + 1];
      ++i;
    } else {
      args.positional.push_back(argv[i]);
    }
  }
  return args;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

simulate::DatasetProfile ProfileByName(const std::string& name) {
  if (name == "ukdale") return simulate::UkdaleProfile();
  if (name == "ideal") return simulate::IdealProfile();
  if (name == "edf_ev") return simulate::EdfEvProfile();
  if (name == "edf_weak") return simulate::EdfWeakProfile();
  return simulate::RefitProfile();
}

int CmdSimulate(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: camal_cli simulate <dir> [--profile refit]"
                         " [--scale 0.3] [--seed 1]\n");
    return 1;
  }
  const auto profile = ProfileByName(args.Flag("profile", "refit"));
  auto houses = simulate::SimulateDataset(
      profile, args.FlagDouble("scale", 0.3),
      static_cast<uint64_t>(args.FlagInt("seed", 1)));
  (void)std::system(("mkdir -p " + args.positional[0]).c_str());
  for (const auto& house : houses) {
    char name[64];
    std::snprintf(name, sizeof(name), "/house_%03d.csv", house.house_id);
    Status st = data::WriteHouseCsv(house, args.positional[0] + name);
    if (!st.ok()) return Fail(st);
  }
  std::printf("wrote %zu houses (%s profile) to %s\n", houses.size(),
              profile.name.c_str(), args.positional[0].c_str());
  return 0;
}

int CmdTrain(const Args& args) {
  if (args.positional.size() < 2 || args.Flag("appliance", "").empty()) {
    std::fprintf(stderr,
                 "usage: camal_cli train <data_dir> <model_dir> --appliance "
                 "NAME [--window 128] [--epochs 8] [--members 3] "
                 "[--filters 16] [--seed 7]\n");
    return 1;
  }
  auto houses_result = data::LoadDatasetDir(args.positional[0]);
  if (!houses_result.ok()) return Fail(houses_result.status());
  auto houses = std::move(houses_result).value();
  std::printf("loaded %zu houses from %s\n", houses.size(),
              args.positional[0].c_str());

  data::ApplianceSpec spec;
  spec.name = args.Flag("appliance", "");
  // Look the spec up from the built-in Table I; unknown names use generic
  // thresholds.
  spec.on_threshold_w = 300.0f;
  spec.avg_power_w = 800.0f;
  for (auto type : {simulate::ApplianceType::kDishwasher,
                    simulate::ApplianceType::kKettle,
                    simulate::ApplianceType::kMicrowave,
                    simulate::ApplianceType::kWashingMachine,
                    simulate::ApplianceType::kShower,
                    simulate::ApplianceType::kElectricVehicle}) {
    if (simulate::ApplianceName(type) == spec.name) {
      spec = simulate::SpecFor(type);
    }
  }

  const auto seed = static_cast<uint64_t>(args.FlagInt("seed", 7));
  Rng rng(seed);
  const auto n = static_cast<int64_t>(houses.size());
  auto split_result = data::SplitHouses(
      houses, std::max<int64_t>(1, n / 5), 0, &rng);
  if (!split_result.ok()) return Fail(split_result.status());
  data::BuildOptions opt;
  opt.window_length = args.FlagInt("window", 128);
  auto train = data::BuildWindowDataset(split_result.value().train, spec, opt);
  auto valid = data::BuildWindowDataset(split_result.value().valid, spec, opt);
  if (!train.ok()) return Fail(train.status());
  if (!valid.ok()) return Fail(valid.status());
  data::WindowDataset balanced =
      data::BalanceByWeakLabel(train.value(), &rng);
  std::printf("training on %lld balanced windows (%lld weak labels)\n",
              static_cast<long long>(balanced.size()),
              static_cast<long long>(balanced.size()));

  core::EnsembleConfig config;
  config.kernel_sizes = {5, 9, 15};
  config.trials_per_kernel = 1;
  config.ensemble_size = static_cast<int>(args.FlagInt("members", 3));
  config.base_filters = args.FlagInt("filters", 16);
  config.train.max_epochs = static_cast<int>(args.FlagInt("epochs", 8));
  auto ensemble = core::CamalEnsemble::Train(balanced, valid.value(), config,
                                             seed);
  if (!ensemble.ok()) return Fail(ensemble.status());
  Status st = core::SaveEnsemble(ensemble.value(), args.positional[1]);
  if (!st.ok()) return Fail(st);
  std::printf("saved %zu-member ensemble (%lld parameters) to %s\n",
              ensemble.value().members().size(),
              static_cast<long long>(ensemble.value().NumParameters()),
              args.positional[1].c_str());
  return 0;
}

int CmdLocalize(const Args& args) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "usage: camal_cli localize <model_dir> <house.csv> "
                         "--appliance NAME [--window 128]\n");
    return 1;
  }
  auto ensemble_result = core::LoadEnsemble(args.positional[0]);
  if (!ensemble_result.ok()) return Fail(ensemble_result.status());
  core::CamalEnsemble ensemble = std::move(ensemble_result).value();
  auto house_result = data::LoadHouseCsv(args.positional[1], 1);
  if (!house_result.ok()) return Fail(house_result.status());
  const data::HouseRecord& house = house_result.value();

  data::ApplianceSpec spec;
  spec.name = args.Flag("appliance", "appliance");
  data::BuildOptions opt;
  opt.window_length = args.FlagInt("window", 128);
  opt.possession_labels = true;  // no submeter needed to localize
  auto windows_result = data::BuildWindowDataset({house}, spec, opt);
  if (!windows_result.ok()) return Fail(windows_result.status());
  const data::WindowDataset& windows = windows_result.value();

  core::CamalLocalizer localizer(&ensemble);
  core::LocalizationResult result = localizer.Localize(windows.inputs);
  int64_t detected = 0, on_samples = 0;
  for (int64_t i = 0; i < windows.size(); ++i) {
    const bool present = result.probabilities.at(i) > 0.5f;
    detected += present;
    int64_t window_on = 0;
    for (int64_t t = 0; t < windows.window_length; ++t) {
      window_on += result.status.at2(i, t) > 0.5f ? 1 : 0;
    }
    on_samples += window_on;
    if (present) {
      std::printf("window %4lld: P(%s)=%.2f, %lld/%lld timestamps ON\n",
                  static_cast<long long>(i), spec.name.c_str(),
                  result.probabilities.at(i),
                  static_cast<long long>(window_on),
                  static_cast<long long>(windows.window_length));
    }
  }
  std::printf("summary: detected in %lld/%lld windows; ~%.1f hours of use\n",
              static_cast<long long>(detected),
              static_cast<long long>(windows.size()),
              static_cast<double>(on_samples) * house.interval_seconds /
                  3600.0);
  return 0;
}

// Lists <prefix>*<suffix> files in \p dir, sorted by name (the order
// LoadDatasetDir and OpenStoreDir assign household indices in).
Result<std::vector<std::string>> ListFiles(const std::string& dir,
                                           const std::string& prefix,
                                           const std::string& suffix) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > prefix.size() + suffix.size() &&
        name.rfind(prefix, 0) == 0 &&
        name.substr(name.size() - suffix.size()) == suffix) {
      files.push_back(entry.path().string());
    }
  }
  if (files.empty()) {
    return Status::NotFound("no " + prefix + "*" + suffix + " files in " +
                            dir);
  }
  std::sort(files.begin(), files.end());
  return files;
}

int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(bytes);
}

int CmdConvert(const Args& args) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr,
                 "usage: camal_cli convert <src> <dst> [--house-id 1] "
                 "[--chunk 262144] [--to-csv 1]\n"
                 "  <src>/<dst> are files, or directories of house_*.csv "
                 "(or house_*.cstore with --to-csv 1)\n");
    return 1;
  }
  const std::string& src = args.positional[0];
  const std::string& dst = args.positional[1];
  data::ColumnStoreWriteOptions options;
  options.chunk_samples = args.FlagInt("chunk", options.chunk_samples);
  const bool to_csv =
      args.FlagInt("to-csv", 0) != 0 ||
      (src.size() > 7 && src.substr(src.size() - 7) == ".cstore");

  std::error_code ec;
  if (!std::filesystem::is_directory(src, ec)) {
    // Single file: csv -> cstore (or the inverse with --to-csv 1).
    Status st = to_csv
                    ? data::ConvertStoreToCsv(src, dst)
                    : data::ConvertCsvToStore(
                          src, dst,
                          static_cast<int>(args.FlagInt("house-id", 1)),
                          options);
    if (!st.ok()) return Fail(st);
    std::printf("converted %s (%lld bytes) -> %s (%lld bytes)\n", src.c_str(),
                static_cast<long long>(FileBytes(src)), dst.c_str(),
                static_cast<long long>(FileBytes(dst)));
    return 0;
  }

  // Directory mode: convert the whole cohort, one file per household.
  (void)std::system(("mkdir -p " + dst).c_str());
  int64_t src_bytes = 0, dst_bytes = 0;
  size_t converted = 0;
  if (to_csv) {
    auto files = ListFiles(src, "house_", ".cstore");
    if (!files.ok()) return Fail(files.status());
    for (const std::string& file : files.value()) {
      // The output name carries the id the store was written with, so a
      // round trip reproduces the original cohort layout.
      auto store = data::ColumnStore::Open(file);
      if (!store.ok()) return Fail(store.status());
      char name[64];
      std::snprintf(name, sizeof(name), "/house_%03d.csv",
                    store.value().house_id());
      Status st = data::WriteHouseCsv(store.value().ToHouseRecord(),
                                      dst + name);
      if (!st.ok()) return Fail(st);
      src_bytes += FileBytes(file);
      dst_bytes += FileBytes(dst + name);
      ++converted;
    }
  } else {
    auto files = ListFiles(src, "house_", ".csv");
    if (!files.ok()) return Fail(files.status());
    // Sequential ids, mirroring LoadDatasetDir: `serve --store` over the
    // converted directory reports the same household ids as `serve` over
    // the CSV directory.
    int next_id = 1;
    for (const std::string& file : files.value()) {
      char name[64];
      std::snprintf(name, sizeof(name), "/house_%03d.cstore", next_id);
      Status st = data::ConvertCsvToStore(file, dst + name, next_id, options);
      if (!st.ok()) return Fail(st);
      src_bytes += FileBytes(file);
      dst_bytes += FileBytes(dst + name);
      ++next_id;
      ++converted;
    }
  }
  std::printf("converted %zu households: %s (%lld bytes) -> %s (%lld "
              "bytes, %.2fx)\n",
              converted, src.c_str(), static_cast<long long>(src_bytes),
              dst.c_str(), static_cast<long long>(dst_bytes),
              dst_bytes > 0 ? static_cast<double>(src_bytes) /
                                  static_cast<double>(dst_bytes)
                            : 0.0);
  return 0;
}

// A serving cohort: (id, SeriesView) pairs whose views borrow from the
// owning `houses` (CSV data plane, parsed into owned vectors) or `stores`
// (mapped column stores, zero-copy) — both live here so the views stay
// valid for as long as the cohort does. Shared by `serve` and `loadgen`.
struct ServingCohort {
  std::vector<data::HouseRecord> houses;
  std::vector<data::ColumnStore> stores;
  std::vector<int> house_ids;
  std::vector<data::SeriesView> views;
};

Result<ServingCohort> LoadServingCohort(const std::string& data_dir,
                                        bool use_store) {
  ServingCohort cohort;
  if (use_store) {
    auto stores_result = data::OpenStoreDir(data_dir);
    if (!stores_result.ok()) return stores_result.status();
    cohort.stores = std::move(stores_result).value();
    for (const data::ColumnStore& store : cohort.stores) {
      cohort.house_ids.push_back(store.house_id());
      cohort.views.push_back(store.aggregate());
    }
  } else {
    auto houses_result = data::LoadDatasetDir(data_dir);
    if (!houses_result.ok()) return houses_result.status();
    cohort.houses = std::move(houses_result).value();
    for (const data::HouseRecord& house : cohort.houses) {
      cohort.house_ids.push_back(house.house_id);
      cohort.views.push_back(data::SeriesView(house.aggregate));
    }
  }
  return cohort;
}

// Table I average power for a known appliance name, overridable with
// --avg-power; unknown names fall back to a generic 800 W.
float ResolveAvgPowerW(const Args& args, const std::string& appliance) {
  float avg_power_w = 800.0f;
  for (auto type : {simulate::ApplianceType::kDishwasher,
                    simulate::ApplianceType::kKettle,
                    simulate::ApplianceType::kMicrowave,
                    simulate::ApplianceType::kWashingMachine,
                    simulate::ApplianceType::kShower,
                    simulate::ApplianceType::kElectricVehicle}) {
    if (simulate::ApplianceName(type) == appliance) {
      avg_power_w = simulate::SpecFor(type).avg_power_w;
    }
  }
  return static_cast<float>(
      args.FlagDouble("avg-power", static_cast<double>(avg_power_w)));
}

int CmdServe(const Args& args) {
  if (args.positional.size() < 2 || args.Flag("appliance", "").empty()) {
    std::fprintf(stderr,
                 "usage: camal_cli serve <model_dir> <data_dir> --appliance "
                 "NAME [--window 128] [--workers 0] [--queue 0] "
                 "[--coalesce 8] [--avg-power 800] [--session-chunk 0] "
                 "[--store 1] [--checkpoint-dir DIR] "
                 "[--checkpoint-interval 30]\n");
    return 1;
  }
  auto ensemble_result = core::LoadEnsemble(args.positional[0]);
  if (!ensemble_result.ok()) return Fail(ensemble_result.status());
  core::CamalEnsemble ensemble = std::move(ensemble_result).value();

  const bool use_store = args.FlagInt("store", 0) != 0;
  auto cohort_result = LoadServingCohort(args.positional[1], use_store);
  if (!cohort_result.ok()) return Fail(cohort_result.status());
  const std::vector<int>& house_ids = cohort_result.value().house_ids;
  const std::vector<data::SeriesView>& cohort = cohort_result.value().views;
  const std::string appliance = args.Flag("appliance", "");
  const float avg_power_w = ResolveAvgPowerW(args, appliance);

  serve::ServiceOptions service_opt;
  service_opt.workers = static_cast<int>(args.FlagInt("workers", 0));
  // This command submits the whole directory in one burst, so the queue
  // is unbounded by default — every house gets scanned. Pass --queue N to
  // bound admission and see the backpressure contract instead (overflow
  // requests are rejected with FailedPrecondition and reported below).
  service_opt.queue_capacity = args.FlagInt("queue", 0);
  // Cross-request coalescing: a worker drains up to N-1 queued requests
  // into one shared-GEMM scan. Results are bitwise-identical either way;
  // --coalesce 1 disables (per-request scans).
  service_opt.coalesce_budget = static_cast<int>(args.FlagInt("coalesce", 8));
  // Crash safety: with --checkpoint-dir, live sessions are periodically
  // snapshotted there (and flushed on Shutdown), and a snapshot left by a
  // previous run is restored right after Start — streams resume where
  // the crash cut them, bitwise-identical from there on.
  service_opt.checkpoint_dir = args.Flag("checkpoint-dir", "");
  service_opt.checkpoint_interval_seconds =
      args.FlagDouble("checkpoint-interval", 30.0);
  serve::Service service(service_opt);
  serve::BatchRunnerOptions runner;
  runner.stream.window_length = args.FlagInt("window", 128);
  runner.stream.stride = runner.stream.window_length / 2;
  runner.appliance_avg_power_w = avg_power_w;
  Status st = service.RegisterAppliance(appliance, &ensemble, runner);
  if (!st.ok()) return Fail(st);
  st = service.Start();
  if (!st.ok()) return Fail(st);
  if (!service_opt.checkpoint_dir.empty()) {
    Result<int64_t> restored =
        service.RestoreSessions(service_opt.checkpoint_dir);
    if (!restored.ok()) {
      // Graceful degradation: a corrupt snapshot is reported and the
      // service boots with fresh sessions instead of crashing.
      std::printf("checkpoint restore skipped: %s\n",
                  restored.status().ToString().c_str());
    } else if (restored.value() > 0) {
      std::printf("restored %lld session(s) from %s\n",
                  static_cast<long long>(restored.value()),
                  service_opt.checkpoint_dir.c_str());
    }
  }
  const std::string capacity =
      service_opt.queue_capacity > 0
          ? std::to_string(service_opt.queue_capacity)
          : "unbounded";
  std::printf("serving '%s' on %d workers (queue capacity %s), "
              "%zu households%s\n",
              appliance.c_str(), service.workers(), capacity.c_str(),
              cohort.size(),
              use_store ? " (mapped stores, zero-copy)" : "");

  // Streaming mode (--session-chunk N): one serve::Session per household,
  // its aggregate replayed in N-sample deltas as if the meter reported
  // live. Every append rescans only the windows the new tail touches and
  // returns the stretch of the result it changed; written in order, the
  // appends' results rebuild the one-shot scan below bit for bit.
  const int64_t session_chunk = args.FlagInt("session-chunk", 0);
  // Per household: its one-shot scan, or its session's appends in order.
  std::vector<std::vector<std::future<Result<serve::ScanResult>>>> futures;
  futures.resize(cohort.size());
  std::vector<std::shared_ptr<serve::Session>> sessions;
  if (session_chunk > 0) {
    sessions.reserve(cohort.size());
    for (size_t h = 0; h < cohort.size(); ++h) {
      serve::SessionOptions session_opt;
      session_opt.household_id = "house_" + std::to_string(house_ids[h]);
      // Every chunk of the replay is admitted up front; the session
      // serializer parks them, so the park must hold the whole backlog.
      session_opt.max_pending_appends = cohort[h].size() / session_chunk + 1;
      auto session_result = service.CreateSession(appliance, session_opt);
      if (!session_result.ok()) return Fail(session_result.status());
      sessions.push_back(std::move(session_result).value());
    }
    for (size_t h = 0; h < cohort.size(); ++h) {
      const data::SeriesView series = cohort[h];
      const int64_t n = series.size();
      for (int64_t begin = 0; begin < n || begin == 0;
           begin += session_chunk) {
        const int64_t len = std::min(session_chunk, n - begin);
        futures[h].push_back(
            sessions[h]->AppendReadings(series.data() + begin, len));
      }
      // The sessions close after the harvest — closing now would fail
      // the parked appends behind the one in flight.
    }
  } else {
    // The async path end to end: submit every household, then harvest the
    // futures in admission order and report per-request latency.
    for (size_t h = 0; h < cohort.size(); ++h) {
      serve::ScanRequest request;
      request.household_id = "house_" + std::to_string(house_ids[h]);
      request.appliance = appliance;
      request.series = cohort[h];
      futures[h].push_back(service.Submit(std::move(request)));
    }
  }
  double total_latency_s = 0.0;
  int64_t served = 0;
  for (size_t h = 0; h < cohort.size(); ++h) {
    // Each result covers [from, from + T) of the household's timeline:
    // writing them in order at their `from` rebuilds its whole status (a
    // one-shot scan is the single result from 0).
    Result<serve::ScanResult> result(Status::Internal("no scan ran"));
    std::vector<float> status;
    for (auto& future : futures[h]) {
      result = future.get();
      if (!result.ok()) break;
      const nn::Tensor& part = result.value().status;
      status.resize(static_cast<size_t>(result.value().from));
      status.insert(status.end(), part.data(), part.data() + part.numel());
    }
    if (!result.ok()) {
      std::printf("house %-3d: rejected: %s\n", house_ids[h],
                  result.status().ToString().c_str());
      continue;
    }
    const serve::ScanResult& scan = result.value();
    int64_t on_samples = 0;
    for (float s : status) on_samples += s > 0.5f ? 1 : 0;
    // In streaming mode the harvested result is the LAST append: report
    // the windows covering the whole series (windows_full), not the
    // handful the incremental tail rescan actually fed.
    std::printf("house %-3d: %6lld windows, %6lld samples ON, "
                "latency %8.1f ms (%.0f windows/s)\n",
                house_ids[h],
                static_cast<long long>(session_chunk > 0 ? scan.windows_full
                                                         : scan.windows),
                static_cast<long long>(on_samples),
                scan.latency_seconds * 1e3, scan.WindowsPerSecond());
    total_latency_s += scan.latency_seconds;
    ++served;
  }
  for (auto& session : sessions) {
    Status closed = session->Close();
    if (!closed.ok()) return Fail(closed);
  }
  const serve::ServiceStats stats = service.stats();
  if (session_chunk > 0) {
    std::printf("sessions: %lld created, %lld closed, %lld appends "
                "(%lld readings), %lld windows saved vs full rescans\n",
                static_cast<long long>(stats.sessions_created),
                static_cast<long long>(stats.sessions_closed),
                static_cast<long long>(stats.session_appends),
                static_cast<long long>(stats.appended_readings),
                static_cast<long long>(stats.incremental_windows_saved));
  }
  std::printf("served %lld/%zu requests, mean latency %.1f ms "
              "(%lld rejected invalid, %lld rejected by backpressure)\n",
              static_cast<long long>(served), cohort.size(),
              served > 0 ? total_latency_s * 1e3 / served : 0.0,
              static_cast<long long>(stats.rejected_invalid),
              static_cast<long long>(stats.rejected_backpressure));
  if (stats.coalesced_groups > 0) {
    std::printf("coalescing: %lld requests served in %lld shared scans "
                "(mean occupancy %.1f)\n",
                static_cast<long long>(stats.coalesced_requests),
                static_cast<long long>(stats.coalesced_groups),
                static_cast<double>(stats.coalesced_requests) /
                    static_cast<double>(stats.coalesced_groups));
  }
  service.Shutdown();  // flushes a final session snapshot if checkpointing
  if (!service_opt.checkpoint_dir.empty()) {
    const serve::ServiceStats final_stats = service.stats();
    std::printf("checkpoints: %lld written (%lld failures), "
                "%lld session(s) restored, snapshot at %s\n",
                static_cast<long long>(final_stats.checkpoints_written),
                static_cast<long long>(final_stats.checkpoint_failures),
                static_cast<long long>(final_stats.sessions_restored),
                serve::Service::CheckpointFile(service_opt.checkpoint_dir)
                    .c_str());
  }
  return 0;
}

// Comma-separated doubles ("25,50,100") -> vector, for the --rps ladder.
std::vector<double> ParseRates(const std::string& list) {
  std::vector<double> rates;
  std::string token;
  for (size_t i = 0; i <= list.size(); ++i) {
    if (i == list.size() || list[i] == ',') {
      if (!token.empty()) rates.push_back(std::atof(token.c_str()));
      token.clear();
    } else {
      token.push_back(list[i]);
    }
  }
  return rates;
}

int CmdLoadgen(const Args& args) {
  if (args.positional.size() < 2 || args.Flag("appliance", "").empty()) {
    std::fprintf(stderr,
                 "usage: camal_cli loadgen <model_dir> <data_dir> "
                 "--appliance NAME [--rps 25,50,100,200] [--seconds 1.0] "
                 "[--process poisson|fixed] [--deadline 0] "
                 "[--priority high|normal|low] [--seed 1] [--window 128] "
                 "[--workers 0] [--queue 0] [--coalesce 8] "
                 "[--avg-power 800] [--store 1]\n");
    return 1;
  }
  auto ensemble_result = core::LoadEnsemble(args.positional[0]);
  if (!ensemble_result.ok()) return Fail(ensemble_result.status());
  core::CamalEnsemble ensemble = std::move(ensemble_result).value();
  auto cohort_result = LoadServingCohort(args.positional[1],
                                         args.FlagInt("store", 0) != 0);
  if (!cohort_result.ok()) return Fail(cohort_result.status());
  const std::string appliance = args.Flag("appliance", "");

  serve::ServiceOptions service_opt;
  service_opt.workers = static_cast<int>(args.FlagInt("workers", 0));
  service_opt.queue_capacity = args.FlagInt("queue", 0);
  service_opt.coalesce_budget = static_cast<int>(args.FlagInt("coalesce", 8));
  serve::Service service(service_opt);
  serve::BatchRunnerOptions runner;
  runner.stream.window_length = args.FlagInt("window", 128);
  runner.stream.stride = runner.stream.window_length / 2;
  runner.appliance_avg_power_w = ResolveAvgPowerW(args, appliance);
  Status st = service.RegisterAppliance(appliance, &ensemble, runner);
  if (!st.ok()) return Fail(st);
  st = service.Start();
  if (!st.ok()) return Fail(st);

  loadgen::LoadSweepOptions sweep;
  sweep.offered_rps = ParseRates(args.Flag("rps", "25,50,100,200"));
  if (sweep.offered_rps.empty()) {
    return Fail(Status::InvalidArgument("--rps needs at least one rate"));
  }
  sweep.seconds_per_point = args.FlagDouble("seconds", 1.0);
  sweep.base.appliance = appliance;
  sweep.base.seed = static_cast<uint64_t>(args.FlagInt("seed", 1));
  sweep.base.process = args.Flag("process", "poisson") == "fixed"
                           ? loadgen::ArrivalProcess::kFixedRate
                           : loadgen::ArrivalProcess::kPoisson;
  sweep.base.deadline_seconds = args.FlagDouble("deadline", 0.0);
  const std::string priority = args.Flag("priority", "normal");
  sweep.base.priority = priority == "high"
                            ? serve::RequestPriority::kHigh
                            : (priority == "low"
                                   ? serve::RequestPriority::kLow
                                   : serve::RequestPriority::kNormal);

  std::printf("open-loop sweep: '%s' on %d workers, %zu households, %s "
              "arrivals, %.1fs per point\n",
              appliance.c_str(), service.workers(),
              cohort_result.value().views.size(),
              sweep.base.process == loadgen::ArrivalProcess::kPoisson
                  ? "poisson"
                  : "fixed",
              sweep.seconds_per_point);
  const loadgen::LoadSweepResult result =
      loadgen::RunLoadSweep(&service, cohort_result.value().views, sweep);
  std::printf("%10s %10s %6s %8s %8s %8s %8s %6s %6s\n", "offered", "achieved",
              "util", "p50ms", "p95ms", "p99ms", "maxms", "shed", "rej");
  for (const loadgen::LoadSweepPoint& point : result.points) {
    std::printf("%10.1f %10.1f %6.2f %8.2f %8.2f %8.2f %8.2f %6lld %6lld\n",
                point.offered_rps, point.achieved_rps, point.utilization,
                point.latency.p50_ms, point.latency.p95_ms,
                point.latency.p99_ms, point.latency.max_ms,
                static_cast<long long>(point.shed_deadline),
                static_cast<long long>(point.rejected_backpressure));
  }
  std::printf("knee: %.1f rps (%s)\n", result.knee_rps,
              result.knee_basis.c_str());
  const serve::ServiceStats stats = service.stats();
  std::printf("service: %lld completed (%lld high / %lld normal / %lld "
              "low), %lld shed on deadline, %lld backpressure\n",
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.completed_high),
              static_cast<long long>(stats.completed_normal),
              static_cast<long long>(stats.completed_low),
              static_cast<long long>(stats.shed_deadline),
              static_cast<long long>(stats.rejected_backpressure));
  service.Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: camal_cli "
                 "<simulate|train|localize|serve|convert|loadgen> ...\n");
    return 1;
  }
  const Args args = ParseArgs(argc, argv);
  const std::string command = argv[1];
  if (command == "simulate") return CmdSimulate(args);
  if (command == "train") return CmdTrain(args);
  if (command == "localize") return CmdLocalize(args);
  if (command == "serve") return CmdServe(args);
  if (command == "convert") return CmdConvert(args);
  if (command == "loadgen") return CmdLoadgen(args);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 1;
}
