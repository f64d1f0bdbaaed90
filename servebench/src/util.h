// Small helpers the benchmark owns outright: its clock, exact percentiles,
// /proc readers and the metric list it prints. Nothing here comes from the
// library under test, so a change to the library cannot change how the
// benchmark measures it.
#ifndef SERVEBENCH_UTIL_H_
#define SERVEBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace servebench {

/// Seconds on the benchmark's own monotonic clock, from an arbitrary epoch.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact nearest-rank percentile (p in [0, 1]) of raw samples; 0 for none.
double Percentile(std::vector<double> values, double p);
/// Median of raw samples, the mean of the middle two for an even count;
/// 0 for none.
double Median(std::vector<double> values);

/// A kB field of /proc/self/status ("VmHWM", "VmRSS"); -1 if unreadable.
int64_t ProcStatusKb(const char* field);

/// Cumulative CPU time of the whole (virtual) machine from /proc/stat, in
/// clock ticks: `steal` is time the hypervisor ran other guests instead.
struct HostCpu {
  double steal = 0.0;
  double total = 0.0;
};
HostCpu ReadHostCpu();

/// Aborts the run without printing a result: a benchmark that cannot set
/// itself up or sees a wrong answer must not report numbers.
[[noreturn]] void Fail(const std::string& message);

/// Fails the run when \p condition is false.
inline void Require(bool condition, const std::string& message) {
  if (!condition) Fail(message);
}

/// One named number of the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Formats \p value with every significant digit (round-trips a double).
std::string FormatNumber(double value);

}  // namespace servebench

#endif  // SERVEBENCH_UTIL_H_
