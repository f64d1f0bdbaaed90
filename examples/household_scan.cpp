// Household scan (DeviceScope-style demo [41]): train one CamAL model per
// appliance, register them all with the asynchronous serving front-end
// (serve::Service), and scan a cohort of household recordings through it —
// every (house, appliance) pair is one ScanRequest, admitted through the
// bounded queue and served by the worker pool concurrently. The report
// says, per house and appliance, whether it was used, when, and how much
// power it drew — from the aggregate signal only.

#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel_for.h"
#include "data/balance.h"
#include "data/column_store.h"
#include "data/split.h"
#include "eval/experiment.h"
#include "serve/service.h"
#include "simulate/profiles.h"

namespace {

// A session append returns the stretch [from, len) of the household's
// result its readings changed; every earlier timestamp keeps what an
// earlier append returned. Writing each result at its `from` rebuilds
// the whole series' result.
struct Timeline {
  std::vector<float> detection, status, power;

  void Overlay(const camal::serve::ScanResult& part) {
    Put(part.from, part.detection, &detection);
    Put(part.from, part.status, &status);
    Put(part.from, part.power, &power);
  }

  // Bitwise equal to \p want at every timestamp.
  bool Matches(const camal::serve::ScanResult& want) const {
    if (static_cast<int64_t>(detection.size()) != want.detection.numel()) {
      return false;
    }
    for (int64_t t = 0; t < want.detection.numel(); ++t) {
      const auto s = static_cast<size_t>(t);
      if (detection[s] != want.detection.at(t)) return false;
      if (status[s] != want.status.at(t)) return false;
      if (power[s] != want.power.at(t)) return false;
    }
    return true;
  }

  // Writes \p values over \p out from index \p from on.
  static void Put(int64_t from, const camal::nn::Tensor& values,
                  std::vector<float>* out) {
    out->resize(static_cast<size_t>(from));
    out->insert(out->end(), values.data(), values.data() + values.numel());
  }
};

}  // namespace

int main() {
  using namespace camal;
  std::printf("Household scan: which appliances ran, and when?\n");
  std::printf("------------------------------------------------\n");

  const auto profile = simulate::RefitProfile();
  auto houses = simulate::SimulateDataset(profile, 0.3, 3);
  Rng rng(4);
  const int64_t n_test =
      std::min<int64_t>(3, static_cast<int64_t>(houses.size()) - 2);
  auto split = data::SplitHouses(houses, 1, n_test, &rng).value();

  constexpr int64_t kWindow = 128;

  // Train one ensemble per appliance up front; the service borrows them,
  // so they must outlive it.
  struct TrainedAppliance {
    data::ApplianceSpec spec;
    core::CamalEnsemble ensemble;
  };
  std::vector<TrainedAppliance> trained;
  for (simulate::ApplianceType type :
       {simulate::ApplianceType::kDishwasher, simulate::ApplianceType::kKettle,
        simulate::ApplianceType::kMicrowave,
        simulate::ApplianceType::kWashingMachine}) {
    const data::ApplianceSpec spec = simulate::SpecFor(type);
    data::BuildOptions opt;
    opt.window_length = kWindow;
    auto train_r = data::BuildWindowDataset(split.train, spec, opt);
    auto valid_r = data::BuildWindowDataset(split.valid, spec, opt);
    if (!train_r.ok() || !valid_r.ok()) {
      std::printf("%-16s: no training data in this cohort\n",
                  spec.name.c_str());
      continue;
    }
    if (!data::IsBalanceable(train_r.value())) {
      std::printf("%-16s: weak labels are single-class; skipping\n",
                  spec.name.c_str());
      continue;
    }
    data::WindowDataset train = data::BalanceByWeakLabel(train_r.value(), &rng);

    core::EnsembleConfig config;
    config.kernel_sizes = {5, 9, 15};
    config.trials_per_kernel = 1;
    config.ensemble_size = 3;
    config.base_filters = 16;
    config.train.max_epochs = 6;
    auto ensemble_result =
        core::CamalEnsemble::Train(train, valid_r.value(), config, 5);
    if (!ensemble_result.ok()) {
      std::printf("%-16s: training failed\n", spec.name.c_str());
      continue;
    }
    trained.push_back({spec, std::move(ensemble_result).value()});
  }
  if (trained.empty()) {
    std::printf("no appliance could be trained on this cohort\n");
    return 0;
  }

  // One service for every appliance: each worker owns a BatchRunner per
  // appliance, all of them reading the one registered ensemble, and
  // requests are admitted as they arrive instead of whole-cohort batches.
  serve::Service service;  // workers = CAMAL_THREADS, queue capacity 256
  for (TrainedAppliance& appliance : trained) {
    serve::BatchRunnerOptions runner;
    runner.stream.window_length = kWindow;
    runner.stream.stride = kWindow / 2;
    runner.stream.batch_size = 32;
    runner.appliance_avg_power_w = appliance.spec.avg_power_w;
    // Registration borrows the ensemble; every worker reads it, and
    // Start copies nothing.
    Status st = service.RegisterAppliance(appliance.spec.name,
                                          &appliance.ensemble, runner);
    if (!st.ok()) {
      std::fprintf(stderr, "register %s: %s\n", appliance.spec.name.c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }
  Status started = service.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("Scanning %zu houses x %zu appliances across %d workers "
              "(CAMAL_THREADS=%d).\n",
              split.test.size(), trained.size(), service.workers(),
              NumThreads());

  // Submit every (house, appliance) pair asynchronously, then harvest.
  struct Pending {
    size_t appliance;
    size_t house;
    std::future<Result<serve::ScanResult>> future;
  };
  std::vector<Pending> pending;
  for (size_t a = 0; a < trained.size(); ++a) {
    for (size_t h = 0; h < split.test.size(); ++h) {
      serve::ScanRequest request;
      request.household_id = "house_" + std::to_string(h);
      request.appliance = trained[a].spec.name;
      request.series = data::SeriesView(split.test[h].aggregate);
      pending.push_back({a, h, service.Submit(std::move(request))});
    }
  }

  size_t printed_appliance = trained.size();
  for (Pending& p : pending) {
    if (p.appliance != printed_appliance) {
      std::printf("%-16s:\n", trained[p.appliance].spec.name.c_str());
      printed_appliance = p.appliance;
    }
    Result<serve::ScanResult> result = p.future.get();
    if (!result.ok()) {
      std::printf("  house %-3d: request failed: %s\n",
                  split.test[p.house].house_id,
                  result.status().ToString().c_str());
      continue;
    }
    const serve::ScanResult& scan = result.value();
    const data::HouseRecord& house = split.test[p.house];
    int64_t on_samples = 0;
    double energy_wh = 0.0;
    for (int64_t t = 0; t < scan.status.numel(); ++t) {
      on_samples += scan.status.at(t) > 0.5f ? 1 : 0;
      energy_wh += scan.power.at(t) * profile.interval_seconds / 3600.0;
    }
    const double hours = static_cast<double>(on_samples) *
                         profile.interval_seconds / 3600.0;
    const bool owned = house.Owns(trained[p.appliance].spec.name);
    std::printf("  house %-3d: ~%.1f h of use, ~%.1f kWh estimated "
                "(%lld windows, %.0f ms latency; actually owns it: %s)\n",
                house.house_id, hours, energy_wh / 1000.0,
                static_cast<long long>(scan.windows),
                scan.latency_seconds * 1e3, owned ? "yes" : "no");
  }
  const serve::ServiceStats stats = service.stats();
  std::printf("service: %lld accepted, %lld completed, %lld rejected "
              "(%lld invalid, %lld backpressure)\n",
              static_cast<long long>(stats.accepted),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.rejected_total()),
              static_cast<long long>(stats.rejected_invalid),
              static_cast<long long>(stats.rejected_backpressure));

  // Streaming epilogue: replay one household through a serve::Session in
  // live-meter-sized chunks. The incremental path rescans only the
  // windows each new tail touches and returns only what it changed, yet
  // the appends' results, rebuilt into one timeline, must be
  // bitwise-identical to the one-shot scan of the same series — the
  // streaming path and the batch path are one pipeline.
  {
    const data::HouseRecord& house = split.test.front();
    const std::string& name = trained.front().spec.name;
    Result<serve::ScanResult> oneshot =
        service.Submit(name, house.aggregate).get();
    if (!oneshot.ok()) {
      std::fprintf(stderr, "one-shot scan: %s\n",
                   oneshot.status().ToString().c_str());
      return 1;
    }
    serve::SessionOptions session_opt;
    session_opt.household_id = "stream_demo";
    auto session_result = service.CreateSession(name, session_opt);
    if (!session_result.ok()) {
      std::fprintf(stderr, "create session: %s\n",
                   session_result.status().ToString().c_str());
      return 1;
    }
    std::shared_ptr<serve::Session> session = session_result.value();
    const auto n = static_cast<int64_t>(house.aggregate.size());
    const int64_t chunk = std::max<int64_t>(int64_t{1}, n / 4);
    int64_t appends = 0;
    Timeline streamed;
    for (int64_t begin = 0; begin < n; begin += chunk) {
      const int64_t count = std::min(chunk, n - begin);
      Result<serve::ScanResult> part =
          session->AppendReadings(house.aggregate.data() + begin, count).get();
      if (!part.ok()) {
        std::fprintf(stderr, "append: %s\n",
                     part.status().ToString().c_str());
        return 1;
      }
      streamed.Overlay(part.value());
      ++appends;
    }
    const bool identical = streamed.Matches(oneshot.value());
    std::printf("streaming session (%s, house %d): %lld appends, %lld "
                "readings, appends' results rebuild the one-shot scan "
                "bitwise: %s\n",
                name.c_str(), house.house_id,
                static_cast<long long>(appends),
                static_cast<long long>(session->readings()),
                identical ? "yes" : "NO");
    if (!identical) return 1;
    if (!session->Close().ok()) return 1;

    // Zero-copy store epilogue: persist the same household as a mapped
    // column store and scan it straight off the file. The request borrows
    // a SeriesView into the mapping — no parse, no copy — and must still
    // produce bitwise the same result as the in-memory one-shot scan.
    const std::string store_path = "/tmp/household_scan_house.cstore";
    Status wrote = data::WriteColumnStore(house, store_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "write store: %s\n", wrote.ToString().c_str());
      return 1;
    }
    auto store_result = data::ColumnStore::Open(store_path);
    if (!store_result.ok()) {
      std::fprintf(stderr, "open store: %s\n",
                   store_result.status().ToString().c_str());
      return 1;
    }
    const data::ColumnStore& store = store_result.value();
    serve::ScanRequest request;
    request.household_id = "store_demo";
    request.appliance = name;
    request.series = store.aggregate();
    Result<serve::ScanResult> mapped = service.Submit(std::move(request)).get();
    if (!mapped.ok()) {
      std::fprintf(stderr, "mapped scan: %s\n",
                   mapped.status().ToString().c_str());
      return 1;
    }
    Timeline from_store;  // a one-shot scan is one result from 0
    from_store.Overlay(mapped.value());
    const bool store_identical = from_store.Matches(oneshot.value());
    std::printf("mapped store scan (%lld samples, %lld bytes on disk, "
                "%lld chunks): bitwise-identical to the in-memory scan: %s\n",
                static_cast<long long>(store.num_samples()),
                static_cast<long long>(store.file_bytes()),
                static_cast<long long>(store.num_chunks()),
                store_identical ? "yes" : "NO");
    std::remove(store_path.c_str());
    if (!store_identical) return 1;

    // Crash-and-restore epilogue: stream the first half of the same
    // household, checkpoint the live session, then "kill" the server and
    // boot a fresh Service that restores the snapshot and streams the
    // rest. The rebuilt timeline must still be bitwise-identical to the
    // one-shot scan — a crash in the middle of a stream loses nothing.
    const std::string ckpt_dir = "/tmp/household_scan_ckpt";
    serve::SessionOptions crash_opt;
    crash_opt.household_id = "crash_demo";
    auto crash_result = service.CreateSession(name, crash_opt);
    if (!crash_result.ok()) {
      std::fprintf(stderr, "create crash session: %s\n",
                   crash_result.status().ToString().c_str());
      return 1;
    }
    const int64_t half = n / 2;
    Result<serve::ScanResult> first_half =
        crash_result.value()->AppendReadings(house.aggregate.data(), half)
            .get();
    if (!first_half.ok()) {
      std::fprintf(stderr, "first-half append: %s\n",
                   first_half.status().ToString().c_str());
      return 1;
    }
    Status checkpointed = service.CheckpointSessions(ckpt_dir);
    if (!checkpointed.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n",
                   checkpointed.ToString().c_str());
      return 1;
    }
    // The "restarted server": a brand-new Service over the same trained
    // ensemble revives the session from the snapshot alone.
    serve::Service revived;
    serve::BatchRunnerOptions crash_runner;
    crash_runner.stream.window_length = kWindow;
    crash_runner.stream.stride = kWindow / 2;
    crash_runner.stream.batch_size = 32;
    crash_runner.appliance_avg_power_w = trained.front().spec.avg_power_w;
    if (!revived.RegisterAppliance(name, &trained.front().ensemble,
                                   crash_runner)
             .ok() ||
        !revived.Start().ok()) {
      std::fprintf(stderr, "revived service failed to start\n");
      return 1;
    }
    Result<int64_t> restored = revived.RestoreSessions(ckpt_dir);
    if (!restored.ok() || restored.value() != 1) {
      std::fprintf(stderr, "restore: %s\n",
                   restored.ok() ? "wrong session count"
                                 : restored.status().ToString().c_str());
      return 1;
    }
    auto revived_session = revived.GetSession("crash_demo");
    if (!revived_session.ok()) {
      std::fprintf(stderr, "revived session lookup: %s\n",
                   revived_session.status().ToString().c_str());
      return 1;
    }
    Result<serve::ScanResult> resumed =
        revived_session.value()
            ->AppendReadings(house.aggregate.data() + half, n - half)
            .get();
    if (!resumed.ok()) {
      std::fprintf(stderr, "post-restore append: %s\n",
                   resumed.status().ToString().c_str());
      return 1;
    }
    // The timeline spans the crash: the first half's result, then what
    // the restored session's append changed.
    Timeline recovered;
    recovered.Overlay(first_half.value());
    recovered.Overlay(resumed.value());
    const bool crash_identical = recovered.Matches(oneshot.value());
    std::printf("crash-and-restore (%lld of %lld readings checkpointed): "
                "resumed stream bitwise-identical to the one-shot scan: %s\n",
                static_cast<long long>(half), static_cast<long long>(n),
                crash_identical ? "yes" : "NO");
    revived.Shutdown();
    std::remove(serve::Service::CheckpointFile(ckpt_dir).c_str());
    if (!crash_identical) return 1;
  }
  service.Shutdown();
  return 0;
}
