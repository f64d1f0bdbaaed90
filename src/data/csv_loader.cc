#include "data/csv_loader.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/csv.h"

namespace camal::data {
namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::string text;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  // fread returns 0 for EOF and for a read error alike; only ferror tells
  // them apart. A silently-truncated read must not parse as a shorter
  // (but well-formed) household.
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("read error on " + path);
  return text;
}

Result<double> ParseNumber(const std::string& cell, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (end == cell.c_str() || *end != '\0') {
    return Status::InvalidArgument(std::string("malformed ") + what + ": '" +
                                   cell + "'");
  }
  return v;
}

}  // namespace

Result<HouseRecord> ParseHouseCsv(const std::string& text, int house_id) {
  CAMAL_ASSIGN_OR_RETURN(auto rows, ParseCsv(text));
  if (rows.size() < 3) {
    return Status::InvalidArgument("need a header plus at least two rows");
  }
  const auto& header = rows[0];
  if (header.size() < 2 || header[0] != "timestamp" ||
      header[1] != "aggregate") {
    return Status::InvalidArgument(
        "header must start with 'timestamp,aggregate'");
  }
  const size_t n_appliances = header.size() - 2;

  // Infer the interval from the first two data rows.
  CAMAL_ASSIGN_OR_RETURN(double t0, ParseNumber(rows[1][0], "timestamp"));
  CAMAL_ASSIGN_OR_RETURN(double t1, ParseNumber(rows[2][0], "timestamp"));
  const double interval = t1 - t0;
  if (interval <= 0.0) {
    return Status::InvalidArgument("timestamps must be strictly increasing");
  }

  HouseRecord house;
  house.house_id = house_id;
  house.interval_seconds = interval;
  for (size_t a = 0; a < n_appliances; ++a) {
    ApplianceTrace trace;
    trace.name = header[2 + a];
    house.appliances.push_back(std::move(trace));
    house.owned_appliances.push_back(header[2 + a]);
  }

  double expected_t = t0;
  for (size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != header.size()) {
      return Status::InvalidArgument("row " + std::to_string(r) +
                                     " has wrong arity");
    }
    CAMAL_ASSIGN_OR_RETURN(double ts, ParseNumber(row[0], "timestamp"));
    if (r > 1 && ts <= expected_t - interval + 1e-9) {
      return Status::InvalidArgument("timestamps must be strictly increasing");
    }
    // Expand gaps into missing readings: one per interval slot before
    // ts's own. The count is bounded before anything is added, so a
    // corrupt timestamp cannot size an allocation.
    const double slots = (ts - expected_t) / interval - 0.5;
    if (!std::isfinite(slots)) {
      return Status::InvalidArgument("row " + std::to_string(r) +
                                     ": non-finite timestamp gap");
    }
    const double missing = slots > 0.0 ? std::ceil(slots) : 0.0;
    if (missing + static_cast<double>(house.aggregate.size()) + 1.0 >
        static_cast<double>(kMaxHouseReadings)) {
      return Status::InvalidArgument("row " + std::to_string(r) +
                                     ": timestamp gap past kMaxHouseReadings");
    }
    for (int64_t m = 0; m < static_cast<int64_t>(missing); ++m) {
      house.aggregate.push_back(kMissingValue);
      for (auto& trace : house.appliances) {
        trace.power.push_back(kMissingValue);
      }
      expected_t += interval;
    }
    if (row[1].empty()) {
      house.aggregate.push_back(kMissingValue);
    } else {
      CAMAL_ASSIGN_OR_RETURN(double agg, ParseNumber(row[1], "aggregate"));
      house.aggregate.push_back(static_cast<float>(agg));
    }
    for (size_t a = 0; a < n_appliances; ++a) {
      if (row[2 + a].empty()) {
        house.appliances[a].power.push_back(kMissingValue);
      } else {
        CAMAL_ASSIGN_OR_RETURN(double w,
                               ParseNumber(row[2 + a], "appliance power"));
        house.appliances[a].power.push_back(static_cast<float>(w));
      }
    }
    expected_t += interval;
  }
  return house;
}

Result<HouseRecord> LoadHouseCsv(const std::string& path, int house_id) {
  CAMAL_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseHouseCsv(text, house_id);
}

Result<std::vector<HouseRecord>> LoadDatasetDir(
    const std::string& directory) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(directory, ec)) {
    return Status::NotFound("not a directory: " + directory);
  }
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("house_", 0) == 0 && name.size() > 4 &&
        name.substr(name.size() - 4) == ".csv") {
      files.push_back(entry.path().string());
    }
  }
  if (files.empty()) {
    return Status::NotFound("no house_*.csv files in " + directory);
  }
  std::sort(files.begin(), files.end());
  std::vector<HouseRecord> houses;
  int next_id = 1;
  for (const std::string& file : files) {
    CAMAL_ASSIGN_OR_RETURN(HouseRecord house, LoadHouseCsv(file, next_id));
    houses.push_back(std::move(house));
    ++next_id;
  }
  return houses;
}

Status WriteHouseCsv(const HouseRecord& house, const std::string& path) {
  CsvWriter writer(path);
  std::vector<std::string> header{"timestamp", "aggregate"};
  for (const auto& trace : house.appliances) header.push_back(trace.name);
  writer.AddRow(header);
  for (size_t i = 0; i < house.aggregate.size(); ++i) {
    std::vector<std::string> row;
    row.push_back(std::to_string(
        static_cast<int64_t>(i * house.interval_seconds)));
    const float agg = house.aggregate[i];
    row.push_back(IsMissing(agg) ? "" : std::to_string(agg));
    for (const auto& trace : house.appliances) {
      const float v = trace.power[i];
      row.push_back(IsMissing(v) ? "" : std::to_string(v));
    }
    writer.AddRow(row);
  }
  return writer.Write();
}

Status ApplyPossessionSurvey(const std::string& path,
                             std::vector<HouseRecord>* houses) {
  CAMAL_CHECK(houses != nullptr);
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  auto rows = ParseCsv(text.value());
  if (!rows.ok()) return rows.status();
  for (size_t r = 0; r < rows.value().size(); ++r) {
    const auto& row = rows.value()[r];
    if (r == 0 && !row.empty() && row[0] == "house_id") continue;  // header
    if (row.size() != 3) {
      return Status::InvalidArgument("survey row " + std::to_string(r) +
                                     " must be house_id,appliance,owned");
    }
    // Not atoi: "12x" or "kitchen" would silently map to an id (12 / 0)
    // and mis-attribute the answer to the wrong house.
    CAMAL_ASSIGN_OR_RETURN(const double id_value,
                           ParseNumber(row[0], "survey house_id"));
    const int id = static_cast<int>(id_value);
    if (static_cast<double>(id) != id_value) {
      return Status::InvalidArgument("malformed survey house_id: '" + row[0] +
                                     "'");
    }
    HouseRecord* house = nullptr;
    for (auto& h : *houses) {
      if (h.house_id == id) house = &h;
    }
    if (house == nullptr) {
      return Status::NotFound("survey references unknown house " + row[0]);
    }
    const bool owned = row[2] == "1" || row[2] == "true";
    auto& owned_list = house->owned_appliances;
    const auto it =
        std::find(owned_list.begin(), owned_list.end(), row[1]);
    if (owned && it == owned_list.end()) {
      owned_list.push_back(row[1]);
    } else if (!owned && it != owned_list.end()) {
      owned_list.erase(it);
    }
  }
  return Status::OK();
}

}  // namespace camal::data
