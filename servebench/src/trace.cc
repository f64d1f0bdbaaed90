#include "trace.h"

#include <algorithm>
#include <cstring>

namespace servebench {

double Span::arg(const char* key) const {
  for (int i = 0; i < nargs; ++i) {
    if (std::strcmp(args[static_cast<size_t>(i)].first, key) == 0) {
      return args[static_cast<size_t>(i)].second;
    }
  }
  Fail(std::string("span ") + name + " has no attribute " + key);
}

int32_t Tracer::Open(const char* name, int32_t parent, int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start = Now();
  span.parent = parent;
  span.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int32_t>(spans_.size());
  spans_.push_back(span);
  return span.id;
}

void Tracer::Close(int32_t id) {
  if (id < 0) return;
  const double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = end;
}

int32_t Tracer::Record(const Span& span) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  spans_.back().id = static_cast<int32_t>(spans_.size() - 1);
  return spans_.back().id;
}

void Tracer::Arg(int32_t id, const char* key, double value) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  Require(span.nargs < static_cast<int>(span.args.size()),
          std::string("too many attributes on span ") + span.name);
  span.args[static_cast<size_t>(span.nargs++)] = {key, value};
}

std::vector<Span> Tracer::Find(const char* name, int32_t parent) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0 &&
        (parent == -2 || span.parent == parent)) {
      out.push_back(span);
    }
  }
  return out;
}

std::vector<double> Tracer::Seconds(const char* name, int32_t parent) const {
  std::vector<double> out;
  for (const Span& span : Find(name, parent)) out.push_back(span.seconds());
  return out;
}

int64_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(spans_.size());
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& span : spans_) origin = std::min(origin, span.start);
  std::fprintf(file, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // One row per request keeps a request's spans together in the viewer;
    // spans outside any request share row 0.
    std::fprintf(file,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %d, \"request\": %lld",
                 i == 0 ? "" : ",\n", span.name,
                 static_cast<long long>(span.request + 1),
                 (span.start - origin) * 1e6, span.seconds() * 1e6, i,
                 span.parent, static_cast<long long>(span.request));
    for (int a = 0; a < span.nargs; ++a) {
      const auto& [key, value] = span.args[static_cast<size_t>(a)];
      std::fprintf(file, ", \"%s\": %s", key, FormatNumber(value).c_str());
    }
    std::fprintf(file, "}}");
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace servebench
