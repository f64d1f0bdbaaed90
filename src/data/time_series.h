#ifndef CAMAL_DATA_TIME_SERIES_H_
#define CAMAL_DATA_TIME_SERIES_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace camal::data {

/// Sentinel for a missing smart-meter reading.
inline constexpr float kMissingValue = std::numeric_limits<float>::quiet_NaN();

/// True when \p v is not a finite number: a missing reading (NaN), or a
/// +-Inf no meter can have measured. Every reader of a reading asks this
/// one predicate, so both are treated alike everywhere: windows zero-fill
/// them, served power is 0 there, averages skip them, and the CSV writer
/// leaves their cells empty.
inline bool IsMissing(float v) { return !std::isfinite(v); }

/// A regularly sampled univariate power series (the smart-meter signal of
/// Section II): values[i] is the average power (Watts) over interval i.
/// Missing readings are kMissingValue.
struct TimeSeries {
  double interval_seconds = 60.0;
  std::vector<float> values;

  int64_t size() const { return static_cast<int64_t>(values.size()); }

  /// Number of missing readings.
  int64_t MissingCount() const;
};

/// Per-appliance submeter trace plus its name ("dishwasher", "kettle", ...).
struct ApplianceTrace {
  std::string name;
  std::vector<float> power;  ///< Watts, aligned with the house aggregate.
};

/// One household's recording: the aggregate smart-meter series, optional
/// submetered appliance traces (strong ground truth), and possession flags
/// (the weak "does this house own appliance X" survey answer of §V-H).
struct HouseRecord {
  int house_id = 0;
  double interval_seconds = 60.0;
  std::vector<float> aggregate;             ///< Watts; may contain missing.
  std::vector<ApplianceTrace> appliances;   ///< empty when not submetered
  std::vector<std::string> owned_appliances;

  /// Returns the submeter trace for \p name, or nullptr when the house is
  /// not instrumented for that appliance.
  const ApplianceTrace* FindAppliance(const std::string& name) const;

  /// True when the possession questionnaire marks \p name as owned.
  bool Owns(const std::string& name) const;
};

}  // namespace camal::data

#endif  // CAMAL_DATA_TIME_SERIES_H_
