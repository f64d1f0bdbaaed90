#ifndef CAMAL_DATA_CSV_LOADER_H_
#define CAMAL_DATA_CSV_LOADER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/time_series.h"

namespace camal::data {

/// Most readings a loaded household series may hold: 2^27, over four
/// years of 1 Hz data and 512 MiB per channel. It bounds what a gap
/// between two timestamps can expand into.
inline constexpr int64_t kMaxHouseReadings = int64_t{1} << 27;

/// Loads one household recording from a CSV file so the library can run on
/// real smart-meter exports (UK-DALE/REFIT-style per-house dumps) instead
/// of the built-in simulator.
///
/// Expected format (header row required):
///   timestamp,aggregate[,appliance_1[,appliance_2...]]
/// - `timestamp`: integer seconds (unix or relative). Rows must be sorted;
///   the sampling interval is inferred from the first two rows and gaps are
///   expanded into missing readings. A non-finite gap, or one that would
///   grow the series past kMaxHouseReadings, is rejected with
///   kInvalidArgument before any reading is added.
/// - `aggregate` and appliance columns: Watts; empty cells are missing.
/// Appliance column names become ApplianceTrace names.
Result<HouseRecord> LoadHouseCsv(const std::string& path, int house_id);

/// Parses the same format from an in-memory string (for tests and pipes).
Result<HouseRecord> ParseHouseCsv(const std::string& text, int house_id);

/// Loads every `house_*.csv` file in \p directory (sorted by name) as one
/// cohort. House ids are assigned from the file order (1-based).
Result<std::vector<HouseRecord>> LoadDatasetDir(const std::string& directory);

/// Writes a HouseRecord back to CSV (inverse of LoadHouseCsv); useful for
/// exporting simulated cohorts to disk for external tools.
Status WriteHouseCsv(const HouseRecord& house, const std::string& path);

/// Possession survey file: one `house_id,appliance,owned` row per answer
/// (owned in {0,1}). Applies the answers to the matching houses in
/// \p houses (by house_id); unknown ids are reported as errors.
Status ApplyPossessionSurvey(const std::string& path,
                             std::vector<HouseRecord>* houses);

}  // namespace camal::data

#endif  // CAMAL_DATA_CSV_LOADER_H_
