#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>

#include "common/parallel_for.h"
#include "core/model_io.h"
#include "data/column_store.h"
#include "driver.h"
#include "inputs.h"
#include "layers.h"
#include "serve/service.h"

namespace servebench {
namespace {

using camal::core::CamalEnsemble;
using camal::data::ColumnStore;
using camal::data::SeriesView;
using camal::serve::ScanRequest;
using camal::serve::ScanResult;
using camal::serve::Service;
using camal::serve::ServiceStats;
using camal::serve::Session;

constexpr int kWorkers = 4;
constexpr int kSetupReps = 5;
/// Restarts are timed at least this many times and for at least
/// kRecoverySeconds: one restart of a sessionless service takes ~8 ms,
/// and a median over a few milliseconds of a shared host moved ±20%
/// between runs.
constexpr int kRecoveryReps = 11;
constexpr double kRecoverySeconds = 1.0;
/// Latency limit of the capacity search.
constexpr double kLimitSeconds = 0.05;

struct Appliance {
  std::string name;
  float avg_power_w = 0.0f;
};

/// One live serving stack.
struct Stack {
  std::vector<std::unique_ptr<CamalEnsemble>> models;  ///< per appliance
  std::vector<ColumnStore> stores;
  std::unique_ptr<Service> service;
  std::vector<std::shared_ptr<Session>> sessions;
};

/// A driven phase with the service counters around it.
struct Phase {
  PhaseRun run;
  double readings = 0.0;  ///< readings of the successful operations.
  ServiceStats before;
  ServiceStats after;
  int32_t span = -1;
};

/// Newest readings of a result, indexed from its end: what the streaming
/// gate compares, so it holds whether an append returns the full series
/// or only its changed suffix.
struct Suffix {
  int64_t committed = 0;  ///< readings the session held at that point.
  std::vector<float> detection, status, power;
};

constexpr int64_t kSuffix = 4096;

Suffix TakeSuffix(const ScanResult& result, int64_t committed) {
  const int64_t len = result.detection.numel();
  const int64_t n = std::min(len, kSuffix);
  auto tail = [&](const camal::nn::Tensor& t) {
    return std::vector<float>(t.data() + (len - n), t.data() + len);
  };
  return Suffix{committed, tail(result.detection), tail(result.status),
                tail(result.power)};
}

bool SameBits(const float* a, const float* b, int64_t n) {
  return n == 0 ||
         std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

bool SuffixMatches(const Suffix& got, const ScanResult& want) {
  const auto n = static_cast<int64_t>(got.detection.size());
  const int64_t len = want.detection.numel();
  if (n == 0 || n > len || len != got.committed) return false;
  return SameBits(got.detection.data(), want.detection.data() + (len - n), n) &&
         SameBits(got.status.data(), want.status.data() + (len - n), n) &&
         SameBits(got.power.data(), want.power.data() + (len - n), n);
}

bool ResultMatches(const ScanResult& got, const ScanResult& want) {
  const int64_t n = want.detection.numel();
  return got.detection.numel() == n && got.status.numel() == n &&
         got.power.numel() == n &&
         SameBits(got.detection.data(), want.detection.data(), n) &&
         SameBits(got.status.data(), want.status.data(), n) &&
         SameBits(got.power.data(), want.power.data(), n);
}

double Ms(double seconds) { return seconds * 1e3; }

/// Runs \p jobs gate checks on kWorkers threads, each with its own model
/// and a one-thread budget like a service worker; check(runner, j) does
/// job j's reference scans on \p runner and Fail()s on a mismatch.
void RunChecks(
    const std::string& model_dir,
    const camal::serve::BatchRunnerOptions& options, size_t jobs,
    const std::function<void(camal::serve::BatchRunner*, size_t)>& check) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&] {
      auto model = camal::core::LoadEnsemble(model_dir);
      Require(model.ok(), "LoadEnsemble: " + model.status().ToString());
      camal::serve::BatchRunner runner(&model.value(), options);
      camal::ParallelBudgetScope budget(1);
      for (size_t j = next++; j < jobs; j = next++) check(&runner, j);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

/// Exact percentile \p p of the latencies of a phase's successful
/// operations.
double LatencyPercentile(const PhaseRun& run, double p) {
  std::vector<double> latencies;
  latencies.reserve(run.ops.size());
  for (const Op& op : run.ops) {
    if (op.ok) latencies.push_back(op.latency());
  }
  return Percentile(std::move(latencies), p);
}

/// Operations a closed-loop phase completed per second while it ran,
/// counted from its first completion, so the fill of an empty pipeline at
/// the start does not count as slowness.
double CompletionRate(const PhaseRun& run) {
  double first = run.stop;
  for (const Op& op : run.ops) first = std::min(first, op.done);
  int64_t completed = 0;
  for (const Op& op : run.ops) {
    completed += (op.ok && op.done > first && op.done <= run.stop) ? 1 : 0;
  }
  Require(completed > 0, "a closed-loop phase completed nothing");
  return static_cast<double>(completed) / (run.stop - first);
}

/// Readings an open-loop phase's successful operations carried, per
/// second from the phase start to its last completion.
double ReadingsRate(const Phase& phase) {
  return phase.readings / (phase.run.last_done() - phase.run.start);
}

class Harness {
 public:
  Harness(const RunConfig& config, Tracer* tracer,
          std::vector<Appliance> appliances)
      : config_(config),
        tracer_(tracer),
        appliances_(std::move(appliances)),
        model_dir_(config.work_dir + "/model"),
        store_dir_(config.work_dir + "/stores"),
        checkpoint_dir_(config.work_dir + "/checkpoint") {
    WriteModel(spec_, config.seed, model_dir_);
  }

  Tracer* tracer() { return tracer_; }
  const ModelSpec& spec() const { return spec_; }
  const std::string& store_dir() const { return store_dir_; }
  const std::vector<Appliance>& appliances() const { return appliances_; }
  double seconds() const { return config_.seconds; }

  /// Seeded generator for one numbered stream of the run.
  std::mt19937_64 Generator(uint64_t stream) const {
    return std::mt19937_64(config_.seed * 0x9E3779B97F4A7C15ULL + stream);
  }

  /// Set-up, repeated \p reps times: LoadEnsemble per appliance,
  /// OpenStoreDir, Service::Start and \p warm. Keeps the last stack.
  std::unique_ptr<Stack> SetUp(
      int reps, const std::function<void(Stack*, int32_t)>& warm) {
    std::unique_ptr<Stack> stack;
    for (int r = 0; r < reps; ++r) {
      if (stack != nullptr) Teardown(std::move(stack));
      ScopedSpan span(tracer_, "setup");
      const double t0 = Now();
      stack = std::make_unique<Stack>();
      LoadModels(stack.get(), span.id());
      {
        ScopedSpan open(tracer_, "data.OpenStoreDir", span.id());
        auto stores = camal::data::OpenStoreDir(store_dir_);
        Require(stores.ok(), "OpenStoreDir: " + stores.status().ToString());
        stack->stores = std::move(stores).value();
      }
      Start(stack.get(), span.id());
      {
        ScopedSpan warm_span(tracer_, "warmup", span.id());
        warm(stack.get(), warm_span.id());
      }
      setup_seconds_.push_back(Now() - t0);
    }
    return stack;
  }

  /// Checkpoints the sessions, shuts the service down, then times the
  /// way back repeatedly (see kRecoveryReps): LoadEnsemble + Start +
  /// RestoreSessions.
  /// Returns the last recovered stack (its stores are the old stack's).
  std::unique_ptr<Stack> Recover(std::unique_ptr<Stack> stack) {
    {
      ScopedSpan span(tracer_, "serve.CheckpointSessions");
      const camal::Status st =
          stack->service->CheckpointSessions(checkpoint_dir_);
      Require(st.ok(), "CheckpointSessions: " + st.ToString());
      span.Arg("bytes", static_cast<double>(std::filesystem::file_size(
                            Service::CheckpointFile(checkpoint_dir_))));
    }
    const int64_t sessions = static_cast<int64_t>(stack->sessions.size());
    std::vector<ColumnStore> stores = std::move(stack->stores);
    Teardown(std::move(stack));
    const double t_start = Now();
    for (int r = 0; r < kRecoveryReps || Now() - t_start < kRecoverySeconds;
         ++r) {
      // Untrimmed: every restart then pays the same, warm, allocation cost.
      if (stack != nullptr) Teardown(std::move(stack), /*trim=*/false);
      ScopedSpan span(tracer_, "recovery");
      const double t0 = Now();
      stack = std::make_unique<Stack>();
      LoadModels(stack.get(), span.id());
      Start(stack.get(), span.id());
      {
        ScopedSpan restore(tracer_, "serve.RestoreSessions", span.id());
        auto restored = stack->service->RestoreSessions(checkpoint_dir_);
        Require(restored.ok() && restored.value() == sessions,
                "RestoreSessions did not restore every session");
      }
      recovery_seconds_.push_back(Now() - t0);
    }
    stack->stores = std::move(stores);
    return stack;
  }

  /// Shuts \p stack down and frees it; \p trim also hands the freed heap
  /// back to the OS, so the next stack's RSS growth is its own.
  void Teardown(std::unique_ptr<Stack> stack, bool trim = true) {
    stack->sessions.clear();
    if (stack->service != nullptr) stack->service->Shutdown();
    stack.reset();
    if (trim) malloc_trim(0);
  }

  /// Waits for \p futures outside any timed phase, counting them.
  std::vector<ScanResult> Await(std::vector<OutcomeFuture>* futures) {
    std::vector<ScanResult> results;
    for (OutcomeFuture& future : *futures) {
      Outcome outcome = future.get();
      ++attempted_;
      Require(outcome.ok(), "untimed operation failed: " +
                                outcome.status().ToString());
      results.push_back(std::move(outcome).value());
    }
    futures->clear();
    return results;
  }

  /// Runs one timed phase and records it (and, traced, its requests).
  /// Arrivals an aborted phase never issued count as failed operations,
  /// except in a capacity \p probe, where failing is how the search finds
  /// the bound.
  Phase Drive(const char* name, Stack* stack,
              const std::function<PhaseRun()>& body, bool probe = false) {
    Phase phase;
    phase.before = stack->service->stats();
    phase.span = tracer_->Open(name);
    const HostCpu cpu_before = ReadHostCpu();
    phase.run = body();
    const HostCpu cpu_after = ReadHostCpu();
    stolen_ += cpu_after.steal - cpu_before.steal;
    host_total_ += cpu_after.total - cpu_before.total;
    tracer_->Close(phase.span);
    phase.after = stack->service->stats();
    const int64_t unissued = probe ? 0 : phase.run.unissued;
    attempted_ += static_cast<int64_t>(phase.run.ops.size()) + unissued;
    failed_ += phase.run.failed() + unissued;
    aborted_ += phase.run.aborted ? 1 : 0;
    lag_max_ = std::max(lag_max_, phase.run.lag_max);
    if (tracer_->enabled()) RecordRequests(phase, stack->sessions.empty());
    return phase;
  }

  /// Highest Poisson rate in [lo, hi] whose phase keeps p99 within the
  /// limit with no failed operation and no runaway backlog, by geometric
  /// bisection over \p probes probes of \p probe_seconds each. Reports the
  /// offered rate of the best passing probe as realized by its schedule
  /// (lo when none passed).
  double SearchCapacity(
      Stack* stack, double lo, double hi, int probes, double probe_seconds,
      const std::function<PhaseRun(int, const std::vector<double>&)>& probe) {
    double best = lo;
    for (int p = 0; p < probes; ++p) {
      const double rate = std::sqrt(lo * hi);
      std::mt19937_64 rng = Generator(1000 + static_cast<uint64_t>(p));
      const std::vector<double> arrivals =
          PoissonArrivals(rate, probe_seconds, &rng);
      const auto n = static_cast<int64_t>(arrivals.size());
      Phase phase = Drive(
          "phase.capacity_probe", stack, [&] { return probe(p, arrivals); },
          /*probe=*/true);
      const PhaseRun& run = phase.run;
      const bool pass = !run.aborted && run.failed() == 0 &&
                        LatencyPercentile(run, 0.99) <= kLimitSeconds;
      tracer_->Arg(phase.span, "rate", rate);
      tracer_->Arg(phase.span, "pass", pass ? 1.0 : 0.0);
      if (pass) {
        lo = rate;
        best = static_cast<double>(n) / (arrivals.back() - arrivals.front());
      } else {
        hi = rate;
      }
    }
    return best;
  }

  /// The end-to-end metrics into \p report, and the tail latencies and
  /// recovery time, which only the traced run reports: on a shared VM a
  /// tail percentile over a run's ~10^3 samples is set by the few requests
  /// a host hiccup catches, and moved ±40% between runs with almost no
  /// steal; a restart is ~8-80 ms of mostly one thread, whose median moved
  /// up to ±30% between runs of the sessionless workloads.
  void AddEndToEnd(RunReport* report, double readings_per_s,
                   const PhaseRun& nominal, const PhaseRun& heavy,
                   double capacity_rps) const {
    auto ms = [&](const PhaseRun& run, double p) {
      return Ms(LatencyPercentile(run, p));
    };
    report->tails = {{"p99_ms", ms(nominal, 0.99), "ms"},
                     {"heavy_p99_ms", ms(heavy, 0.99), "ms"},
                     {"recovery_s", Median(recovery_seconds_), "s"}};
    std::vector<Metric>* out = &report->end_to_end;
    out->push_back({"setup_s", Median(setup_seconds_), "s"});
    out->push_back({"readings_per_s", readings_per_s, "readings/s"});
    out->push_back({"p50_ms", ms(nominal, 0.5), "ms"});
    out->push_back({"heavy_p50_ms", ms(heavy, 0.5), "ms"});
    out->push_back({"capacity_rps", capacity_rps, "req/s"});
    out->push_back(
        {"rss_mb", static_cast<double>(ProcStatusKb("VmHWM")) / 1024.0, "MB"});
  }

  /// Per-layer metrics measured from this run's spans; \p phases are the
  /// nominal and heavy phases.
  void AddServeLayers(std::vector<Metric>* out,
                      const std::vector<const Phase*>& phases) const;

  void Finish(RunReport* report) const {
    report->attempted = attempted_;
    report->failed = failed_;
    report->lag_max = lag_max_;
    report->steal_share = host_total_ > 0 ? stolen_ / host_total_ : 0.0;
    report->aborted_phases = aborted_;
  }

 private:
  void LoadModels(Stack* stack, int32_t parent) {
    for (size_t a = 0; a < appliances_.size(); ++a) {
      ScopedSpan span(tracer_, "core.LoadEnsemble", parent);
      auto model = camal::core::LoadEnsemble(model_dir_);
      Require(model.ok(), "LoadEnsemble: " + model.status().ToString());
      stack->models.push_back(
          std::make_unique<CamalEnsemble>(std::move(model).value()));
    }
  }

  void Start(Stack* stack, int32_t parent) {
    camal::serve::ServiceOptions options;
    options.workers = kWorkers;
    stack->service = std::make_unique<Service>(options);
    for (size_t a = 0; a < appliances_.size(); ++a) {
      const camal::Status st = stack->service->RegisterAppliance(
          appliances_[a].name, stack->models[a].get(),
          RunnerOptions(spec_, appliances_[a].avg_power_w));
      Require(st.ok(), "RegisterAppliance: " + st.ToString());
    }
    ScopedSpan span(tracer_, "serve.Service::Start", parent);
    const camal::Status st = stack->service->Start();
    Require(st.ok(), "Start: " + st.ToString());
  }

  void RecordRequests(const Phase& phase, bool one_shot) {
    const char* submit = one_shot ? "serve.Submit" : "serve.AppendReadings";
    tracer_->Arg(phase.span, "lag_max", phase.run.lag_max);
    for (size_t k = 0; k < phase.run.ops.size(); ++k) {
      const Op& op = phase.run.ops[k];
      Span request;
      request.name = "request";
      request.start = op.intended;
      request.end = op.done;
      request.parent = phase.span;
      request.request = next_request_ + static_cast<int64_t>(k);
      request.args = {{{"ok", op.ok ? 1.0 : 0.0},
                       {"pass", op.pass},
                       {"service_latency", op.service_latency},
                       {"windows", static_cast<double>(op.windows)}}};
      request.nargs = 4;
      const int32_t id = tracer_->Record(request);
      Span call;
      call.name = submit;
      call.start = op.submitted;
      call.end = op.submitted + op.admit;
      call.parent = id;
      call.request = request.request;
      call.args[0] = {"windows_full", static_cast<double>(op.windows_full)};
      call.nargs = 1;
      tracer_->Record(call);
    }
    next_request_ += static_cast<int64_t>(phase.run.ops.size());
  }

  const RunConfig& config_;
  Tracer* tracer_;
  const ModelSpec spec_;
  const std::vector<Appliance> appliances_;
  const std::string model_dir_;
  const std::string store_dir_;
  const std::string checkpoint_dir_;
  std::vector<double> setup_seconds_;
  std::vector<double> recovery_seconds_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  double lag_max_ = 0.0;
  int64_t aborted_ = 0;
  double stolen_ = 0.0;      ///< host CPU time stolen during timed phases
  double host_total_ = 0.0;  ///< all host CPU time during timed phases
  int64_t next_request_ = 0;
};

void Harness::AddServeLayers(std::vector<Metric>* out,
                             const std::vector<const Phase*>& phases) const {
  // The issuing call of each request, by the request span it belongs to.
  std::unordered_map<int32_t, Span> calls;
  for (const char* name : {"serve.Submit", "serve.AppendReadings"}) {
    for (Span& call : tracer_->Find(name)) calls.emplace(call.parent, call);
  }
  std::vector<double> admit, wait, pass;
  double windows = 0.0, windows_full = 0.0;
  int64_t completed = 0, coalesced_requests = 0, coalesced_groups = 0;
  int64_t saved = 0;
  for (const Phase* phase : phases) {
    for (const Span& request : tracer_->Find("request", phase->span)) {
      if (request.arg("ok") == 0.0) continue;
      wait.push_back(request.arg("service_latency") - request.arg("pass"));
      pass.push_back(request.arg("pass"));
      windows += request.arg("windows");
      const Span& call = calls.at(request.id);
      admit.push_back(call.seconds());
      windows_full += call.arg("windows_full");
    }
    completed += phase->after.completed - phase->before.completed;
    coalesced_requests +=
        phase->after.coalesced_requests - phase->before.coalesced_requests;
    coalesced_groups +=
        phase->after.coalesced_groups - phase->before.coalesced_groups;
    saved += phase->after.incremental_windows_saved -
             phase->before.incremental_windows_saved;
  }
  const int64_t passes = completed - coalesced_requests + coalesced_groups;
  out->push_back({"serve.admit_us", Median(admit) * 1e6, "us"});
  out->push_back({"serve.wait_p50_ms", Ms(Percentile(wait, 0.5)), "ms"});
  out->push_back({"serve.wait_p99_ms", Ms(Percentile(wait, 0.99)), "ms"});
  out->push_back({"serve.pass_p50_ms", Ms(Median(pass)), "ms"});
  out->push_back({"serve.windows_per_pass",
                  passes > 0 ? windows / static_cast<double>(passes) : 0.0,
                  "windows"});
  out->push_back({"serve.coalesced_share",
                  completed > 0 ? static_cast<double>(coalesced_requests) /
                                      static_cast<double>(completed)
                                : 0.0,
                  "share"});
  out->push_back({"serve.windows_saved_share",
                  windows_full > 0.0 ? static_cast<double>(saved) / windows_full
                                     : 0.0,
                  "share"});
  double session_mb = 0.0;
  for (const Span& prefill : tracer_->Find("prefill")) {
    session_mb = (prefill.arg("rss_after_kb") - prefill.arg("rss_before_kb")) /
                 1024.0 / prefill.arg("sessions");
    break;  // the first set-up: later ones reuse freed pages
  }
  out->push_back({"serve.session_mb", session_mb, "MB"});
  out->push_back({"serve.start_ms",
                  Ms(Median(tracer_->Seconds("serve.Service::Start"))), "ms"});
  const std::vector<Span> checkpoint =
      tracer_->Find("serve.CheckpointSessions");
  Require(checkpoint.size() == 1, "expected one checkpoint span");
  out->push_back({"serve.checkpoint_ms", Ms(checkpoint[0].seconds()), "ms"});
  out->push_back({"serve.checkpoint_mb", checkpoint[0].arg("bytes") / 1048576.0,
                  "MB"});
  out->push_back({"serve.restore_ms",
                  Ms(Median(tracer_->Seconds("serve.RestoreSessions"))), "ms"});
  out->push_back({"core.model_load_ms",
                  Ms(Median(tracer_->Seconds("core.LoadEnsemble"))), "ms"});
  out->push_back({"data.store_open_ms",
                  Ms(Median(tracer_->Seconds("data.OpenStoreDir"))), "ms"});
}

/// Appends the per-layer rows every workload shares, then the replay and
/// the kernel rows, then the traced run's own end-to-end values.
void AddLayers(Harness* h, RunReport* report,
               const std::vector<const Phase*>& phases,
               const ReplayInputs& replay) {
  h->AddServeLayers(&report->per_layer, phases);
  for (Metric& m : ReplayLayers(replay, h->tracer())) {
    report->per_layer.push_back(std::move(m));
  }
  for (Metric& m : MeasureKernels(h->tracer())) {
    report->per_layer.push_back(std::move(m));
  }
  report->per_layer.push_back({"driver.lag_max_ms", Ms(report->lag_max), "ms"});
  for (const std::vector<Metric>* list :
       {&report->end_to_end, &report->tails}) {
    for (const Metric& m : *list) {
      report->per_layer.push_back({"traced." + m.name, m.value, m.unit});
    }
  }
}

// ------------------------------------------------------------ fleet_batch

RunReport RunFleetBatch(const RunConfig& config, Tracer* tracer) {
  constexpr int kHouseholds = 32;
  constexpr int64_t kReadings = 17520;  // one year at 30-min
  // One household per worker keeps every worker busy with no queue, so
  // nominal latency is one household's scan. (Eight in flight on four
  // workers makes it bimodal: some coalesce into groups, some run alone.)
  constexpr int kClients = kWorkers;
  // A deep backlog: every worker drains full coalesced groups.
  constexpr int kHeavyClients = 32;
  constexpr int64_t kWarmReadings = 1024;
  constexpr int kSampled = 4;
  Harness h(config, tracer, {{"dishwasher", 1200.0f}});
  WriteCohort({kHouseholds, kReadings, 1800.0}, config.seed, h.store_dir());
  const std::string appliance = h.appliances()[0].name;

  auto request = [&](const Stack& stack, int64_t household) {
    ScanRequest r;
    r.household_id = "house_" + std::to_string(household);
    r.appliance = appliance;
    r.series = stack.stores[static_cast<size_t>(household)].aggregate();
    return r;
  };
  std::unique_ptr<Stack> stack =
      h.SetUp(kSetupReps, [&](Stack* s, int32_t) {
        std::vector<OutcomeFuture> futures;
        for (int i = 0; i < 2 * kWorkers; ++i) {
          ScanRequest r = request(*s, i);
          r.series = r.series->subview(0, kWarmReadings);
          futures.push_back(s->service->Submit(std::move(r)));
        }
        h.Await(&futures);
      });

  // The gate samples the first result of a few seeded households.
  std::mt19937_64 rng = h.Generator(1);
  std::vector<int64_t> sampled;
  while (static_cast<int>(sampled.size()) < kSampled) {
    const auto hh = static_cast<int64_t>(rng() % kHouseholds);
    if (std::find(sampled.begin(), sampled.end(), hh) == sampled.end()) {
      sampled.push_back(hh);
    }
  }
  std::mutex kept_mu;
  std::map<int64_t, ScanResult> kept;
  int64_t base = 0;  // household of op 0 of the current phase
  const IssueFn issue = [&](int64_t k) {
    return stack->service->Submit(request(*stack, (base + k) % kHouseholds));
  };
  const DoneFn done = [&](int64_t k, Outcome& outcome) {
    const int64_t household = (base + k) % kHouseholds;
    if (!outcome.ok() ||
        std::find(sampled.begin(), sampled.end(), household) == sampled.end()) {
      return;
    }
    std::lock_guard<std::mutex> lock(kept_mu);
    if (kept.count(household) == 0) {
      kept.emplace(household, std::move(outcome).value());
    }
  };

  const Phase nominal = h.Drive("phase.nominal", stack.get(), [&] {
    return RunClosedLoop(kClients, 0.5 * h.seconds(), issue, done);
  });
  base = static_cast<int64_t>(nominal.run.ops.size()) % kHouseholds;
  const Phase heavy = h.Drive("phase.heavy", stack.get(), [&] {
    return RunClosedLoop(kHeavyClients, 0.5 * h.seconds(), issue, done);
  });

  // One household per worker: readings localized per second at the
  // nominal load. The deep backlog of the heavy loop measures capacity on
  // its own, with coalesced groups.
  const double readings_per_s =
      CompletionRate(nominal.run) * static_cast<double>(kReadings);
  const double capacity_rps = CompletionRate(heavy.run);

  stack = h.Recover(std::move(stack));
  {
    std::vector<OutcomeFuture> futures;
    futures.push_back(stack->service->Submit(request(*stack, sampled[0])));
    std::vector<ScanResult> after = h.Await(&futures);
    std::lock_guard<std::mutex> lock(kept_mu);
    kept.emplace(-1, std::move(after[0]));  // -1: served after recovery
  }

  RunReport report;
  h.AddEndToEnd(&report, readings_per_s, nominal.run, heavy.run,
                capacity_rps);
  std::vector<ColumnStore> stores = std::move(stack->stores);
  h.Teardown(std::move(stack));

  // Correctness gate: a sequential BatchRunner::Scan of the same series.
  {
    auto model = camal::core::LoadEnsemble(config.work_dir + "/model");
    Require(model.ok(), "LoadEnsemble: " + model.status().ToString());
    camal::serve::BatchRunner reference(
        &model.value(), RunnerOptions(h.spec(), h.appliances()[0].avg_power_w));
    Require(static_cast<int>(kept.size()) == kSampled + 1,
            "fleet_batch: a sampled household never completed");
    for (const auto& [household, result] : kept) {
      const int64_t hh = household < 0 ? sampled[0] : household;
      const ScanResult want =
          reference.Scan(stores[static_cast<size_t>(hh)].aggregate());
      Require(ResultMatches(result, want),
              "fleet_batch: household " + std::to_string(hh) +
                  " differs from a sequential scan");
    }
  }
  report.correct = true;
  h.Finish(&report);
  if (config.trace) {
    ReplayInputs replay;
    replay.spec = h.spec();
    replay.model_dir = config.work_dir + "/model";
    replay.runner = RunnerOptions(h.spec(), h.appliances()[0].avg_power_w);
    for (const int64_t hh : {sampled[0], sampled[1]}) {
      replay.scans.push_back(stores[static_cast<size_t>(hh)].aggregate());
    }
    const SeriesView year = stores[static_cast<size_t>(sampled[2])].aggregate();
    replay.history = year.subview(0, kReadings - 16 * 64);
    for (int a = 0; a < 16; ++a) {
      replay.appends.push_back(year.subview(kReadings - (16 - a) * 64, 64));
    }
    AddLayers(&h, &report, {&nominal, &heavy}, replay);
  }
  return report;
}

// ------------------------------------------------------------ interactive

struct Query {
  int appliance = 0;
  int household = 0;
  int64_t offset = 0;
  int64_t length = 0;
};

RunReport RunInteractive(const RunConfig& config, Tracer* tracer) {
  constexpr int kHouseholds = 16;
  constexpr int64_t kReadings = 14 * 1440;  // two weeks at 1-min
  constexpr int64_t kMinLength = 64;
  constexpr int64_t kMaxLength = 512;
  constexpr double kLightRps = 400.0;
  // Twice the light rate: ~50% of the workers' time, so the heavy phase
  // still coalesces requests without sitting at the knee, where a few
  // percent of host slowdown doubled its latency.
  constexpr double kHeavyRps = 800.0;
  constexpr int kProbes = 6;
  constexpr int kSampleEvery = 16;
  Harness h(config, tracer,
            {{"dishwasher", 1200.0f}, {"kettle", 2000.0f},
             {"washing_machine", 500.0f}});
  WriteCohort({kHouseholds, kReadings, 60.0}, config.seed, h.store_dir());
  const int num_appliances = static_cast<int>(h.appliances().size());

  auto make_queries = [&](size_t n, uint64_t stream) {
    std::mt19937_64 rng = h.Generator(stream);
    std::vector<Query> queries(n);
    for (Query& q : queries) {
      q.appliance =
          static_cast<int>(rng() % static_cast<uint64_t>(num_appliances));
      q.household = static_cast<int>(rng() % kHouseholds);
      q.length = kMinLength + static_cast<int64_t>(
                                  rng() % (kMaxLength - kMinLength + 1));
      q.offset = static_cast<int64_t>(
          rng() % static_cast<uint64_t>(kReadings - q.length + 1));
    }
    return queries;
  };
  auto series_of = [](const std::vector<ColumnStore>& stores, const Query& q) {
    return stores[static_cast<size_t>(q.household)].aggregate().subview(
        q.offset, q.length);
  };
  auto submit = [&](Stack* stack, const Query& q) {
    ScanRequest r;
    r.household_id = "house_" + std::to_string(q.household);
    r.appliance = h.appliances()[static_cast<size_t>(q.appliance)].name;
    r.series = series_of(stack->stores, q);  // zero-copy, into the mapping
    return stack->service->Submit(std::move(r));
  };
  std::unique_ptr<Stack> stack = h.SetUp(kSetupReps, [&](Stack* s, int32_t) {
    std::vector<OutcomeFuture> futures;
    for (const Query& q : make_queries(96, 2)) futures.push_back(submit(s, q));
    h.Await(&futures);
  });

  std::mutex kept_mu;
  std::vector<std::pair<Query, ScanResult>> kept;
  const std::vector<Query>* queries = nullptr;  // the current phase's
  const IssueFn issue = [&](int64_t k) {
    return submit(stack.get(), (*queries)[static_cast<size_t>(k)]);
  };
  const DoneFn done = [&](int64_t k, Outcome& outcome) {
    if (!outcome.ok() || k % kSampleEvery != 0) return;
    std::lock_guard<std::mutex> lock(kept_mu);
    kept.emplace_back((*queries)[static_cast<size_t>(k)],
                      std::move(outcome).value());
  };
  auto open_loop = [&](const char* name, double rate, double seconds,
                       uint64_t stream) {
    std::mt19937_64 rng = h.Generator(stream);
    const std::vector<double> arrivals = PoissonArrivals(rate, seconds, &rng);
    const std::vector<Query> phase_queries =
        make_queries(arrivals.size(), stream + 1);
    queries = &phase_queries;
    Phase phase = h.Drive(name, stack.get(),
                          [&] { return RunOpenLoop(arrivals, issue, done); });
    queries = nullptr;
    for (size_t k = 0; k < phase.run.ops.size(); ++k) {
      if (phase.run.ops[k].ok) {
        phase.readings += static_cast<double>(phase_queries[k].length);
      }
    }
    return phase;
  };
  const Phase light =
      open_loop("phase.nominal", kLightRps, 0.3 * h.seconds(), 10);
  const Phase heavy =
      open_loop("phase.heavy", kHeavyRps, 0.2 * h.seconds(), 20);
  std::vector<Query> probe_queries;
  const double capacity_rps = h.SearchCapacity(
      stack.get(), 500.0, 2500.0, kProbes, 0.5 * h.seconds() / kProbes,
      [&](int probe, const std::vector<double>& arrivals) {
        probe_queries = make_queries(arrivals.size(),
                                     2000 + static_cast<uint64_t>(probe));
        queries = &probe_queries;
        PhaseRun run = RunOpenLoop(arrivals, issue, done);
        queries = nullptr;
        return run;
      });

  const double readings_per_s = ReadingsRate(heavy);

  stack = h.Recover(std::move(stack));
  const Query after_query = make_queries(1, 40)[0];
  {
    std::vector<OutcomeFuture> futures;
    futures.push_back(submit(stack.get(), after_query));
    std::vector<ScanResult> after = h.Await(&futures);
    kept.emplace_back(after_query, std::move(after[0]));
  }
  RunReport report;
  h.AddEndToEnd(&report, readings_per_s, light.run, heavy.run,
                capacity_rps);
  std::vector<ColumnStore> stores = std::move(stack->stores);
  h.Teardown(std::move(stack));

  {
    std::vector<CamalEnsemble> models;
    std::vector<std::unique_ptr<camal::serve::BatchRunner>> references;
    models.reserve(h.appliances().size());
    for (const Appliance& a : h.appliances()) {
      auto model = camal::core::LoadEnsemble(config.work_dir + "/model");
      Require(model.ok(), "LoadEnsemble: " + model.status().ToString());
      models.push_back(std::move(model).value());
      references.push_back(std::make_unique<camal::serve::BatchRunner>(
          &models.back(), RunnerOptions(h.spec(), a.avg_power_w)));
    }
    Require(kept.size() > 1, "interactive: no sampled result");
    for (const auto& [q, result] : kept) {
      const ScanResult want =
          references[static_cast<size_t>(q.appliance)]->Scan(
              series_of(stores, q));
      Require(ResultMatches(result, want),
              "interactive: a request differs from a sequential scan");
    }
  }
  report.correct = true;
  h.Finish(&report);
  if (config.trace) {
    ReplayInputs replay;
    replay.spec = h.spec();
    replay.model_dir = config.work_dir + "/model";
    replay.runner = RunnerOptions(h.spec(), h.appliances()[0].avg_power_w);
    for (const Query& q : make_queries(48, 50)) {
      replay.scans.push_back(series_of(stores, q));
    }
    const SeriesView house = stores[0].aggregate();
    replay.history = house.subview(0, kMaxLength);
    for (int a = 0; a < 16; ++a) {
      replay.appends.push_back(house.subview(kMaxLength + a * 64, 64));
    }
    AddLayers(&h, &report, {&light, &heavy}, replay);
  }
  return report;
}

// -------------------------------------------------------------- streaming

RunReport RunStreaming(const RunConfig& config, Tracer* tracer) {
  constexpr int kSessions = 8;
  constexpr int64_t kPrefill = 131072;  // ~91 days at 1-min
  constexpr int64_t kAppend = 64;
  constexpr double kNominalRate = 400.0;
  constexpr double kHeavyRate = 1000.0;
  constexpr double kCapacityLo = 750.0;
  constexpr double kCapacityHi = 6000.0;
  constexpr int kProbes = 6;
  Harness h(config, tracer, {{"dishwasher", 1200.0f}});
  const double probe_seconds = 0.5 * h.seconds() / kProbes;
  // Every phase and probe appends to the prefilled history afresh (see
  // reset below), so a store holds the prefill plus the appends of the
  // largest phase, with slack for Poisson counts above their mean, and
  // the one append after recovery.
  const double max_arrivals =
      std::max({0.3 * h.seconds() * kNominalRate,
                0.2 * h.seconds() * kHeavyRate, probe_seconds * kCapacityHi});
  const int64_t readings =
      kPrefill +
      kAppend * static_cast<int64_t>(1.3 * max_arrivals / kSessions + 65.0);
  WriteCohort({kSessions, readings, 60.0}, config.seed, h.store_dir());
  const std::string appliance = h.appliances()[0].name;

  // Appends issued per session since the last reset; a session's readings
  // are its store's first kPrefill + kAppend * chunks[s] samples, in order.
  std::vector<int64_t> chunks(kSessions, 0);
  auto chunk_of = [&](const Stack& stack, int session, int64_t chunk) {
    Require(kPrefill + (chunk + 1) * kAppend <= readings,
            "streaming: store exhausted");
    return stack.stores[static_cast<size_t>(session)].aggregate().subview(
        kPrefill + chunk * kAppend, kAppend);
  };
  auto committed_after = [&](int64_t chunk) {
    return kPrefill + (chunk + 1) * kAppend;
  };
  // Each set-up prefills 1M readings, so it is repeated three times, not
  // five.
  std::unique_ptr<Stack> stack = h.SetUp(3, [&](Stack* s, int32_t parent) {
    ScopedSpan prefill(tracer, "prefill", parent);
    malloc_trim(0);
    prefill.Arg("rss_before_kb", static_cast<double>(ProcStatusKb("VmRSS")));
    // Prefill in waves of one session per worker: a burst of all eight
    // would be coalesced unevenly by the adaptive drain, and set-up time
    // would depend on how the groups happened to fall.
    std::vector<OutcomeFuture> futures;
    for (int i = 0; i < kSessions; ++i) {
      camal::serve::SessionOptions options;
      options.household_id = "meter_" + std::to_string(i);
      auto session = s->service->CreateSession(appliance, options);
      Require(session.ok(), "CreateSession: " + session.status().ToString());
      s->sessions.push_back(session.value());
      futures.push_back(s->sessions.back()->AppendReadings(
          s->stores[static_cast<size_t>(i)].aggregate().subview(0, kPrefill)));
      if (futures.size() == kWorkers) h.Await(&futures);  // results released
    }
    h.Await(&futures);
    malloc_trim(0);
    prefill.Arg("rss_after_kb", static_cast<double>(ProcStatusKb("VmRSS")));
    prefill.Arg("sessions", kSessions);
  });

  // Results are harvested as they complete; only the newest readings of
  // each session's latest append are kept for the gate.
  std::mutex kept_mu;
  std::vector<int64_t> kept_chunk(kSessions, -1);
  std::vector<Suffix> kept(kSessions);
  std::vector<std::pair<int, int64_t>> meta;  // op -> (session, chunk)
  int64_t next_session = 0;

  // Each append re-finalizes its session's whole history, so the history
  // length sets the work. Every phase and probe therefore starts from the
  // prefilled state: the sessions are closed and revived from a checkpoint
  // taken right after set-up. A phase's appends then do the same work
  // whatever the phases before it did, or how far an aborted probe got.
  const std::string prefilled_dir = config.work_dir + "/prefilled";
  Require(stack->service->CheckpointSessions(prefilled_dir).ok(),
          "streaming: cannot checkpoint the prefilled sessions");
  auto reset = [&] {
    ScopedSpan span(tracer, "streaming.reset");
    for (const std::shared_ptr<Session>& session : stack->sessions) {
      Require(session->Close().ok(), "streaming: CloseSession failed");
    }
    stack->sessions.clear();
    auto restored = stack->service->RestoreSessions(prefilled_dir);
    Require(restored.ok() && restored.value() == kSessions,
            "streaming: the prefilled sessions were not all restored");
    for (int i = 0; i < kSessions; ++i) {
      auto session = stack->service->GetSession("meter_" + std::to_string(i));
      Require(session.ok(), "GetSession: " + session.status().ToString());
      stack->sessions.push_back(session.value());
    }
    std::fill(chunks.begin(), chunks.end(), 0);
    std::fill(kept_chunk.begin(), kept_chunk.end(), -1);
    next_session = 0;
  };

  const IssueFn issue = [&](int64_t k) {
    const int session = static_cast<int>(next_session++ % kSessions);
    const int64_t chunk = chunks[static_cast<size_t>(session)]++;
    meta[static_cast<size_t>(k)] = {session, chunk};
    return stack->sessions[static_cast<size_t>(session)]->AppendReadings(
        chunk_of(*stack, session, chunk));
  };
  const DoneFn done = [&](int64_t k, Outcome& outcome) {
    if (!outcome.ok()) return;
    const auto [session, chunk] = meta[static_cast<size_t>(k)];
    Suffix suffix = TakeSuffix(outcome.value(), committed_after(chunk));
    std::lock_guard<std::mutex> lock(kept_mu);
    if (chunk > kept_chunk[static_cast<size_t>(session)]) {
      kept_chunk[static_cast<size_t>(session)] = chunk;
      kept[static_cast<size_t>(session)] = std::move(suffix);
    }
  };
  // Resets, then drives; the reset ends before the open loop's clock
  // starts.
  auto drive = [&](const std::vector<double>& arrivals) {
    reset();
    meta.assign(arrivals.size(), {0, 0});
    return RunOpenLoop(arrivals, issue, done);
  };
  auto open_loop = [&](const char* name, double rate, double seconds,
                       uint64_t stream) {
    std::mt19937_64 rng = h.Generator(stream);
    const std::vector<double> arrivals = PoissonArrivals(rate, seconds, &rng);
    Phase phase = h.Drive(name, stack.get(),
                          [&] { return drive(arrivals); });
    for (const Op& op : phase.run.ops) {
      phase.readings += op.ok ? static_cast<double>(kAppend) : 0.0;
    }
    return phase;
  };
  const Phase nominal =
      open_loop("phase.nominal", kNominalRate, 0.3 * h.seconds(), 10);
  const Phase heavy =
      open_loop("phase.heavy", kHeavyRate, 0.2 * h.seconds(), 20);
  const double capacity_rps = h.SearchCapacity(
      stack.get(), kCapacityLo, kCapacityHi, kProbes, probe_seconds,
      [&](int, const std::vector<double>& arrivals) {
        return drive(arrivals);
      });
  const double readings_per_s = ReadingsRate(heavy);

  // Gate inputs before the restart: each session's last append of the
  // last probe.
  Require(*std::min_element(kept_chunk.begin(), kept_chunk.end()) >= 0,
          "streaming: a session got no append in the last probe");
  const std::vector<Suffix> before = kept;
  stack = h.Recover(std::move(stack));
  std::vector<Suffix> after;
  {
    std::vector<OutcomeFuture> futures;
    std::vector<int64_t> committed;
    for (int i = 0; i < kSessions; ++i) {
      auto session = stack->service->GetSession("meter_" + std::to_string(i));
      Require(session.ok(), "GetSession after restore: " +
                                session.status().ToString());
      const int64_t chunk = chunks[static_cast<size_t>(i)]++;
      futures.push_back(
          session.value()->AppendReadings(chunk_of(*stack, i, chunk)));
      committed.push_back(committed_after(chunk));
    }
    std::vector<ScanResult> results = h.Await(&futures);
    for (int i = 0; i < kSessions; ++i) {
      after.push_back(TakeSuffix(results[static_cast<size_t>(i)],
                                 committed[static_cast<size_t>(i)]));
    }
  }
  RunReport report;
  h.AddEndToEnd(&report, readings_per_s, nominal.run, heavy.run,
                capacity_rps);
  std::vector<ColumnStore> stores = std::move(stack->stores);
  h.Teardown(std::move(stack));

  // Gate: every session, before and after the restart, against a
  // from-scratch scan of all the readings it had committed.
  RunChecks(config.work_dir + "/model",
            RunnerOptions(h.spec(), h.appliances()[0].avg_power_w),
            2 * kSessions, [&](camal::serve::BatchRunner* reference, size_t j) {
              const size_t i = j / 2;
              const Suffix& got = j % 2 == 0 ? before[i] : after[i];
              const ScanResult want = reference->Scan(
                  stores[i].aggregate().subview(0, got.committed));
              Require(SuffixMatches(got, want),
                      "streaming: session " + std::to_string(i) +
                          " differs from a from-scratch scan at " +
                          std::to_string(got.committed) + " readings");
            });
  report.correct = true;
  h.Finish(&report);
  if (config.trace) {
    ReplayInputs replay;
    replay.spec = h.spec();
    replay.model_dir = config.work_dir + "/model";
    replay.runner = RunnerOptions(h.spec(), h.appliances()[0].avg_power_w);
    for (int i = 0; i < 4; ++i) {
      replay.scans.push_back(
          stores[static_cast<size_t>(i)].aggregate().subview(kPrefill - 4096,
                                                             4096));
    }
    const SeriesView meter = stores[0].aggregate();
    replay.history = meter.subview(0, kPrefill);
    for (int a = 0; a < 16; ++a) {
      replay.appends.push_back(meter.subview(kPrefill + a * kAppend, kAppend));
    }
    AddLayers(&h, &report, {&nominal, &heavy}, replay);
  }
  return report;
}

}  // namespace

RunReport RunWorkload(const RunConfig& config, Tracer* tracer) {
  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);
  RunReport report;
  if (config.workload == "fleet_batch") {
    report = RunFleetBatch(config, tracer);
  } else if (config.workload == "interactive") {
    report = RunInteractive(config, tracer);
  } else if (config.workload == "streaming") {
    report = RunStreaming(config, tracer);
  } else {
    Fail("unknown workload " + config.workload);
  }
  std::filesystem::remove_all(config.work_dir);
  return report;
}

}  // namespace servebench
