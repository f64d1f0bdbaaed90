// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark's own code around its calls into each layer's public API, kept
// in memory, and written out once at exit as a Chrome trace-event file.
// A disabled tracer records nothing and every call is a branch.
#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util.h"

namespace servebench {

/// One timed interval. Times are seconds on the benchmark clock (Now()).
struct Span {
  int32_t id = -1;  ///< index in the tracer, set when recorded.
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int32_t parent = -1;   ///< index of the enclosing span, -1 for a root.
  int64_t request = -1;  ///< operation id shared by a request's spans.
  /// Up to four numeric attributes (counts, sizes) read by the metric code.
  std::array<std::pair<const char*, double>, 4> args{};
  int nargs = 0;

  double seconds() const { return end - start; }
  /// The attribute named \p key; Fail()s when it was never recorded.
  double arg(const char* key) const;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Starts a span now; returns its id (-1 when disabled).
  int32_t Open(const char* name, int32_t parent = -1, int64_t request = -1);
  /// Ends span \p id now. No-op for -1.
  void Close(int32_t id);
  /// Records a finished span; returns its id (-1 when disabled).
  int32_t Record(const Span& span);
  /// Attaches attribute \p key to span \p id. No-op for -1.
  void Arg(int32_t id, const char* key, double value);

  /// Copies of every span named \p name whose parent is \p parent (any
  /// parent when \p parent is -2).
  std::vector<Span> Find(const char* name, int32_t parent = -2) const;
  /// Durations of Find(name, parent), in seconds.
  std::vector<double> Seconds(const char* name, int32_t parent = -2) const;

  int64_t size() const;

  /// Writes every span as a Chrome trace-event JSON file (load it in
  /// chrome://tracing or ui.perfetto.dev). Returns false on an IO error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  /// A deque: recording never moves earlier spans, so it costs the same
  /// whenever it happens and adds no copy inside a timed interval.
  std::deque<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int32_t parent = -1,
             int64_t request = -1)
      : tracer_(tracer), id_(tracer->Open(name, parent, request)) {}
  ~ScopedSpan() { tracer_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }
  void Arg(const char* key, double value) { tracer_->Arg(id_, key, value); }

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
