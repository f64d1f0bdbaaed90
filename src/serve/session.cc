#include "serve/session.h"

#include <utility>

#include "serve/service.h"

namespace camal::serve {

Session::Session(Service* service, std::string id, std::string appliance,
                 SessionOptions options)
    : service_(service),
      id_(std::move(id)),
      appliance_(std::move(appliance)),
      options_(std::move(options)),
      last_active_(std::chrono::steady_clock::now()) {}

int64_t Session::readings() const {
  MutexLock lock(&mu_);
  return committed_readings_;
}

bool Session::closed() const {
  MutexLock lock(&mu_);
  return closed_;
}

std::future<Result<ScanResult>> Session::AppendReadings(
    std::vector<float> readings) {
  return service_->AppendReadings(shared_from_this(), std::move(readings));
}

std::future<Result<ScanResult>> Session::AppendReadings(
    data::SeriesView readings) {
  if (Status length = Service::CheckLength(readings.size()); !length.ok()) {
    return service_->Reject(std::move(length));
  }
  return AppendReadings(std::vector<float>(readings.begin(), readings.end()));
}

std::future<Result<ScanResult>> Session::AppendReadings(const float* readings,
                                                        int64_t count) {
  return AppendReadings(data::SeriesView(readings, count));
}

Status Session::Close() { return service_->CloseSession(shared_from_this()); }

}  // namespace camal::serve
