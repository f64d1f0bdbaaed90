#include "inputs.h"

#include <cstdio>
#include <filesystem>
#include <memory>

#include "common/rng.h"
#include "core/model_io.h"
#include "core/resnet.h"
#include "data/column_store.h"
#include "simulate/household.h"
#include "util.h"

namespace servebench {

std::string ModelSpec::Describe() const {
  std::string kernels_text;
  for (const int64_t k : kernels) {
    kernels_text += (kernels_text.empty() ? "" : ",") + std::to_string(k);
  }
  return "fast: " + std::to_string(kernels.size()) + " ResNet members f=" +
         std::to_string(base_filters) + " k={" + kernels_text +
         "} window=" + std::to_string(window) +
         " stride=" + std::to_string(stride) +
         " batch=" + std::to_string(batch);
}

camal::serve::BatchRunnerOptions RunnerOptions(const ModelSpec& spec,
                                               float appliance_avg_power_w) {
  camal::serve::BatchRunnerOptions options;
  options.stream.window_length = spec.window;
  options.stream.stride = spec.stride;
  options.stream.batch_size = spec.batch;
  options.appliance_avg_power_w = appliance_avg_power_w;
  return options;
}

void WriteModel(const ModelSpec& spec, uint64_t seed, const std::string& dir) {
  camal::Rng rng(seed * 7919 + 1);
  std::vector<camal::core::EnsembleMember> members;
  for (const int64_t k : spec.kernels) {
    camal::core::ResNetConfig config;
    config.base_filters = spec.base_filters;
    config.kernel_size = k;
    camal::core::EnsembleMember member;
    member.model =
        std::make_unique<camal::core::ResNetClassifier>(config, &rng);
    member.model->SetTraining(false);
    member.kernel_size = k;
    members.push_back(std::move(member));
  }
  const camal::core::CamalEnsemble ensemble =
      camal::core::CamalEnsemble::FromMembers(std::move(members));
  const camal::Status saved = camal::core::SaveEnsemble(ensemble, dir);
  Require(saved.ok(), "SaveEnsemble: " + saved.ToString());
}

void WriteCohort(const CohortSpec& cohort, uint64_t seed,
                 const std::string& dir) {
  namespace sim = camal::simulate;
  std::filesystem::create_directories(dir);
  camal::Rng rng(seed * 104729 + 2);
  const bool half_hourly = cohort.interval_seconds >= 1800.0;
  for (int h = 0; h < cohort.count; ++h) {
    sim::HouseholdConfig config;
    config.house_id = h;
    config.interval_seconds = cohort.interval_seconds;
    config.days = static_cast<double>(cohort.readings) *
                  cohort.interval_seconds / 86400.0;
    config.missing_fraction = 0.01;
    // Half-hourly meters see the long loads; minute meters the short ones.
    using Type = sim::ApplianceType;
    const std::vector<Type> types =
        half_hourly ? std::vector<Type>{Type::kDishwasher,
                                        Type::kWashingMachine,
                                        Type::kElectricVehicle}
                    : std::vector<Type>{Type::kDishwasher, Type::kKettle,
                                        Type::kMicrowave,
                                        Type::kWashingMachine};
    for (const Type type : types) {
      sim::InstalledAppliance appliance;
      appliance.type = type;
      appliance.submetered = false;  // the aggregate is all a meter sends
      config.appliances.push_back(appliance);
    }
    camal::data::HouseRecord house = sim::SimulateHousehold(config, &rng);
    // The simulator rounds days to whole samples; pin the exact length.
    house.aggregate.resize(static_cast<size_t>(cohort.readings), 0.0f);
    char name[64];
    std::snprintf(name, sizeof(name), "/house_%04d.cstore", h);
    const camal::Status written =
        camal::data::WriteColumnStore(house, dir + name);
    Require(written.ok(), "WriteColumnStore: " + written.ToString());
  }
}

}  // namespace servebench
