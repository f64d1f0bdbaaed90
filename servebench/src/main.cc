// servebench: the serving benchmark of the CamAL runtime.
//
//   servebench --workload fleet_batch|interactive|streaming --seed N
//              --seconds S --trace 0|1 [--work-dir DIR] [--trace-file PATH]
//
// Prints a per-run record, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones, and the
// spans go to --trace-file. Exits non-zero, printing no result, when set-up
// fails or any sampled output differs from a sequential scan.
#include <sys/prctl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/parallel_for.h"
#include "inputs.h"
#include "nn/gemm.h"
#include "trace.h"
#include "util.h"
#include "workloads.h"

namespace servebench {
namespace {

constexpr int kThreads = 4;

const char* GemmTier() {
  if (camal::nn::internal::HasAvx512Gemm()) return "avx512";
  if (camal::nn::internal::HasAvx2Gemm()) return "avx2";
  return "portable";
}

void PrintJson(const RunReport& report, const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + FormatNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string trace_file;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
      have_seconds = config.seconds > 0.0;
    } else if (flag == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  Require(have_workload && have_seed && have_seconds && have_trace &&
              argc % 2 == 1,
          "usage: servebench --workload W --seed N --seconds S --trace 0|1 "
          "[--work-dir DIR] [--trace-file PATH]");
  if (config.work_dir.empty()) {
    config.work_dir = "servebench_work_" + std::to_string(getpid());
  }
  // One service worker per core with the conv GEMMs run inline.
  setenv("CAMAL_THREADS", std::to_string(kThreads).c_str(), 1);
  Require(camal::NumThreads() == kThreads, "CAMAL_THREADS was not honoured");
  // Wake the open-loop generator within a microsecond of each arrival.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  Tracer tracer(config.trace);
  const RunReport report = RunWorkload(config, &tracer);

  std::printf("record: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
              "CAMAL_THREADS=%d workers=4 gemm=%s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              camal::NumThreads(), GemmTier());
  std::printf("record: model=%s\n", ModelSpec().Describe().c_str());
  std::printf("record: ops workload=%s attempted=%lld succeeded=%lld "
              "failed=%lld aborted_phases=%lld driver.lag_max_ms=%.3f "
              "host_steal_pct=%.1f\n",
              config.workload.c_str(),
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.attempted - report.failed),
              static_cast<long long>(report.failed),
              static_cast<long long>(report.aborted_phases),
              report.lag_max * 1e3, 100.0 * report.steal_share);
  const std::vector<Metric>& metrics =
      config.trace ? report.per_layer : report.end_to_end;
  for (const Metric& m : metrics) {
    std::printf("metric: %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (config.trace) {
    Require(!trace_file.empty(), "--trace 1 needs --trace-file");
    const std::filesystem::path parent =
        std::filesystem::path(trace_file).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    Require(tracer.WriteChromeTrace(trace_file), "cannot write " + trace_file);
    std::printf("record: trace=%s spans=%lld\n", trace_file.c_str(),
                static_cast<long long>(tracer.size()));
  }
  PrintJson(report, metrics);
  std::fflush(stdout);
  // Skip static destructors: the thread pool is process-lifetime.
  std::_Exit(0);
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
