#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace servebench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const double n = static_cast<double>(values.size());
  const auto rank = static_cast<size_t>(
      std::clamp(std::ceil(p * n), 1.0, n));  // 1-based nearest rank
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

int64_t ProcStatusKb(const char* field) {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return -1;
  const size_t field_len = std::strlen(field);
  char line[256];
  long long kb = -1;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      kb = std::atoll(line + field_len + 1);
      break;
    }
  }
  std::fclose(file);
  return kb;
}

HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return cpu;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) cpu.total += static_cast<double>(x);
    cpu.steal = static_cast<double>(v[7]);
  }
  std::fclose(file);
  return cpu;
}

void Fail(const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::fflush(stderr);
  // _Exit, not exit: service worker threads may still be running, and
  // static destructors must not race them.
  std::_Exit(1);
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) Fail("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace servebench
